#include "chord/chord_node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "chord/id.h"
#include "expt/analysis.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/random.h"

namespace flowercdn {
namespace {

/// Minimal host exposing one ChordNode to the simulated network.
class ChordHost : public SimNode {
 public:
  ChordHost(Network* network, PeerId self, ChordId id,
            const ChordNode::Params& params)
      : chord_(network, self, id, params) {}

  void HandleMessage(MessagePtr msg) override { chord_.HandleMessage(msg); }

  ChordNode& chord() { return chord_; }

 private:
  ChordNode chord_;
};

class ChordRingTest : public ::testing::Test {
 protected:
  ChordRingTest()
      : topology_(Topology::Params{}),
        network_(&sim_, &topology_),
        rng_(123) {}

  /// Creates `n` nodes with deterministic ids and assembles a ring.
  void BuildRing(int n, const ChordNode::Params& params = {}) {
    for (int i = 0; i < n; ++i) {
      PeerId peer = static_cast<PeerId>(i + 1);
      network_.RegisterIdentity(peer,
                                topology_.PlaceInLocality(i % 6, rng_));
      ChordId id = ChordHash("node-" + std::to_string(i));
      auto host = std::make_unique<ChordHost>(&network_, peer, id, params);
      Incarnation inc = network_.Attach(peer, host.get());
      host->chord().Bind(inc);
      hosts_.push_back(std::move(host));
    }
    hosts_[0]->chord().CreateRing();
    for (int i = 1; i < n; ++i) {
      // Bootstrap through the ring creator — guaranteed active, like the
      // bootstrap registries of the experiment drivers.
      sim_.Schedule(i * 200, [this, i]() {
        hosts_[i]->chord().Join(1, [](const Status& status) {
          ASSERT_TRUE(status.ok()) << status.ToString();
        });
      });
    }
    // Let joins and several stabilization rounds settle.
    sim_.RunUntil(sim_.now() + 10 * kMinute);
  }

  /// The ground-truth owner of `key`: node with smallest clockwise id.
  ChordNode* ExpectedOwner(ChordId key) {
    ChordNode* best = nullptr;
    ChordId best_distance = 0;
    for (auto& host : hosts_) {
      ChordId d = RingDistance(key, host->chord().id());
      if (best == nullptr || d < best_distance) {
        best = &host->chord();
        best_distance = d;
      }
    }
    return best;
  }

  Simulator sim_;
  Topology topology_;
  Network network_;
  Rng rng_;
  std::vector<std::unique_ptr<ChordHost>> hosts_;
};

TEST_F(ChordRingTest, SingleNodeOwnsEverything) {
  BuildRing(1);
  bool done = false;
  hosts_[0]->chord().Lookup(
      0x1234, [&](const Status& status, RingPeer owner, int hops) {
        EXPECT_TRUE(status.ok());
        EXPECT_EQ(owner.peer, 1u);
        EXPECT_EQ(hops, 0);
        done = true;
      });
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_TRUE(done);
}

TEST_F(ChordRingTest, RingPointersConvergeToSortedOrder) {
  const int n = 16;
  BuildRing(n);
  // Sort nodes by ring id; each node's successor must be the next node.
  std::vector<ChordNode*> sorted;
  for (auto& h : hosts_) sorted.push_back(&h->chord());
  std::sort(sorted.begin(), sorted.end(),
            [](ChordNode* a, ChordNode* b) { return a->id() < b->id(); });
  for (int i = 0; i < n; ++i) {
    ChordNode* node = sorted[i];
    ChordNode* expected_succ = sorted[(i + 1) % n];
    ASSERT_TRUE(node->successor().has_value());
    EXPECT_EQ(node->successor()->peer, expected_succ->self())
        << "node " << i << " has wrong successor";
    ASSERT_TRUE(node->predecessor().has_value());
    EXPECT_EQ(node->predecessor()->peer, sorted[(i + n - 1) % n]->self())
        << "node " << i << " has wrong predecessor";
  }
}

TEST_F(ChordRingTest, LongSuccessorListsHoldTheNextNodes) {
  // A successor list longer than the merge's stack buffer (its merges see
  // up to 24 + 24 + 2 candidates) still converges to the next nodes in
  // ring order.
  const int n = 40;
  ChordNode::Params params;
  params.successor_list_size = 24;
  BuildRing(n, params);
  std::vector<ChordNode*> sorted;
  for (auto& h : hosts_) sorted.push_back(&h->chord());
  std::sort(sorted.begin(), sorted.end(),
            [](ChordNode* a, ChordNode* b) { return a->id() < b->id(); });
  for (int i = 0; i < n; ++i) {
    const std::vector<RingPeer>& list = sorted[i]->successor_list();
    ASSERT_EQ(list.size(), 24u) << "node " << i;
    for (int j = 0; j < 24; ++j) {
      EXPECT_EQ(list[j].peer, sorted[(i + 1 + j) % n]->self())
          << "node " << i << " successor " << j;
    }
  }
}

TEST_F(ChordRingTest, LookupsResolveToCorrectOwner) {
  BuildRing(24);
  Rng keys(99);
  int completed = 0;
  const int kLookups = 50;
  for (int i = 0; i < kLookups; ++i) {
    ChordId key = keys.Next();
    ChordNode* origin = &hosts_[keys.Index(hosts_.size())]->chord();
    ChordNode* expected = ExpectedOwner(key);
    origin->Lookup(key, [&, key, expected](const Status& status,
                                           RingPeer owner, int hops) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(owner.peer, expected->self()) << "key " << key;
      EXPECT_LE(hops, 24);
      ++completed;
    });
  }
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(completed, kLookups);
}

TEST_F(ChordRingTest, LookupHopsAreLogarithmic) {
  BuildRing(32);
  // Give fix-fingers a few more rounds.
  sim_.RunUntil(sim_.now() + 10 * kMinute);
  Rng keys(7);
  int total_hops = 0;
  int completed = 0;
  const int kLookups = 100;
  for (int i = 0; i < kLookups; ++i) {
    ChordId key = keys.Next();
    hosts_[keys.Index(hosts_.size())]->chord().Lookup(
        key, [&](const Status& status, RingPeer, int hops) {
          ASSERT_TRUE(status.ok());
          total_hops += hops;
          ++completed;
        });
  }
  sim_.RunUntil(sim_.now() + kMinute);
  ASSERT_EQ(completed, kLookups);
  double mean_hops = static_cast<double>(total_hops) / kLookups;
  // log2(32) = 5; healthy Chord averages ~log2(N)/2. Allow slack.
  EXPECT_LE(mean_hops, 6.0) << "routing is degenerating to a linear walk";
}

TEST_F(ChordRingTest, JoinAtOccupiedPositionFails) {
  BuildRing(8);
  ChordId taken = hosts_[3]->chord().id();
  PeerId peer = 100;
  network_.RegisterIdentity(peer, topology_.PlaceInLocality(0, rng_));
  ChordNode::Params params;
  auto dup = std::make_unique<ChordHost>(&network_, peer, taken, params);
  Incarnation inc = network_.Attach(peer, dup.get());
  dup->chord().Bind(inc);
  bool failed = false;
  dup->chord().Join(1, [&](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
    failed = true;
  });
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_TRUE(failed);
  EXPECT_EQ(dup->chord().state(), ChordNode::State::kIdle);
}

TEST_F(ChordRingTest, RingHealsAfterFailures) {
  const int n = 20;
  BuildRing(n);
  // Kill 5 nodes abruptly.
  for (int i = 2; i < 7; ++i) {
    network_.Detach(static_cast<PeerId>(i + 1));
  }
  // Several stabilization periods to heal.
  sim_.RunUntil(sim_.now() + 15 * kMinute);

  std::vector<ChordNode*> alive;
  for (auto& h : hosts_) {
    if (network_.IsAlive(h->chord().self())) alive.push_back(&h->chord());
  }
  std::sort(alive.begin(), alive.end(),
            [](ChordNode* a, ChordNode* b) { return a->id() < b->id(); });
  for (size_t i = 0; i < alive.size(); ++i) {
    ASSERT_TRUE(alive[i]->successor().has_value());
    EXPECT_EQ(alive[i]->successor()->peer,
              alive[(i + 1) % alive.size()]->self());
  }
  // Lookups still resolve correctly among the survivors.
  Rng keys(5);
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    ChordId key = keys.Next();
    alive[keys.Index(alive.size())]->Lookup(
        key, [&, key](const Status& status, RingPeer owner, int) {
          ASSERT_TRUE(status.ok());
          // Expected owner among the survivors.
          ChordNode* expected = nullptr;
          ChordId best = 0;
          for (auto& h : hosts_) {
            if (!network_.IsAlive(h->chord().self())) continue;
            ChordId d = RingDistance(key, h->chord().id());
            if (expected == nullptr || d < best) {
              expected = &h->chord();
              best = d;
            }
          }
          EXPECT_EQ(owner.peer, expected->self());
          ++completed;
        });
  }
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(completed, 20);
}

TEST_F(ChordRingTest, GracefulLeaveHandsOverNeighbors) {
  BuildRing(10);
  // Node 4 leaves gracefully.
  ChordNode& leaver = hosts_[4]->chord();
  leaver.Leave();
  network_.Detach(leaver.self());
  sim_.RunUntil(sim_.now() + 10 * kMinute);
  std::vector<ChordNode*> alive;
  for (auto& h : hosts_) {
    if (network_.IsAlive(h->chord().self())) alive.push_back(&h->chord());
  }
  std::sort(alive.begin(), alive.end(),
            [](ChordNode* a, ChordNode* b) { return a->id() < b->id(); });
  for (size_t i = 0; i < alive.size(); ++i) {
    ASSERT_TRUE(alive[i]->successor().has_value());
    EXPECT_EQ(alive[i]->successor()->peer,
              alive[(i + 1) % alive.size()]->self());
  }
}

TEST_F(ChordRingTest, CrashedPredecessorsCauseNoProbeStorm) {
  // A crashed node stays in its successor's predecessor slot until the
  // next predecessor ping. Its ring predecessor must not keep re-adopting
  // it from the successor's probe replies, notifying it and probing it
  // again every ~100 ms, each send drawing a NACK.
  BuildRing(100);
  std::vector<PeerId> crashed;
  for (int i = 10; i < 100; i += 10) {
    ASSERT_TRUE(hosts_[i]->chord().predecessor().has_value());
    crashed.push_back(hosts_[i]->chord().predecessor()->peer);
  }
  for (PeerId peer : crashed) network_.Detach(peer);
  const Network::TrafficBreakdown before = network_.traffic();
  sim_.RunUntil(sim_.now() + kMinute);
  const Network::TrafficBreakdown& after = network_.traffic();
  EXPECT_LE(after.nack.messages - before.nack.messages, 60u);
  EXPECT_LE(after.chord.messages - before.chord.messages, 850u);
}

TEST_F(ChordRingTest, SteadyRingSendsWhatTheModelPredicts) {
  // A converged ring without churn: every round is one successor probe,
  // every other round a predecessor ping and a finger-fix lookup, and no
  // notify (the successor already names its prober as predecessor). The
  // window is one whole finger cycle, because near fingers resolve
  // locally and far ones cost hops.
  const int n = 20;
  BuildRing(n);
  const ChordNode::Params params;
  const int rounds = params.finger_count * params.finger_fix_stride;
  const uint64_t before = network_.traffic().chord.messages;
  sim_.RunUntil(sim_.now() + rounds * params.stabilize_period);
  const double sent =
      static_cast<double>(network_.traffic().chord.messages - before);
  const double model = analysis::ChordMaintenanceRate(params, n) * n *
                       rounds *
                       (static_cast<double>(params.stabilize_period) /
                        kSecond);
  EXPECT_NEAR(sent / model, 1.0, 0.15)
      << "sent " << sent << " Chord messages, model predicts " << model;
}

}  // namespace
}  // namespace flowercdn
