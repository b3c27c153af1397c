#include "chord/chord_node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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

/// Counts the messages sent by type, and silently drops those `drop`
/// selects.
class RecordingHook : public NetworkFaultHook {
 public:
  FaultDecision OnSend(PeerId /*src*/, PeerId dst,
                       const Message& msg) override {
    ++sent[msg.type];
    FaultDecision decision;
    decision.drop = drop && drop(dst, msg);
    return decision;
  }

  std::map<MessageType, uint64_t> sent;
  std::function<bool(PeerId dst, const Message& msg)> drop;
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

TEST_F(ChordRingTest, LeaveFailsLookupsButNotOtherCalls) {
  BuildRing(16);
  ChordNode& node = hosts_[0]->chord();
  const PeerId successor = node.successor()->peer;
  const size_t live = network_.rpc_calls().live();
  const uint64_t cancelled = network_.traffic().rpc_cancelled;
  std::vector<int> failed;
  Rng keys(5);
  int started = 0;
  while (started < 3) {
    // Only keys the node can neither answer nor hand to its successor: each
    // lookup is forwarded with an ack call.
    const ChordId key = keys.Next();
    const PeerId owner = ExpectedOwner(key)->self();
    if (owner == node.self() || owner == successor) continue;
    node.Lookup(key, [&failed, n = started](const Status& status, RingPeer,
                                            int hops) {
      EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
      EXPECT_EQ(hops, -1);
      failed.push_back(n);
    });
    ++started;
  }
  // Each lookup is an awaited id plus its first hop's ack call, both in the
  // Network's table; the node keeps no list of its own.
  EXPECT_EQ(network_.rpc_calls().live(), live + 6);
  node.Leave();
  EXPECT_EQ(failed, (std::vector<int>{0, 1, 2}));  // oldest first
  // The ack calls carry on; nothing was cancelled.
  EXPECT_EQ(network_.rpc_calls().live(), live + 3);
  EXPECT_EQ(network_.traffic().rpc_cancelled, cancelled);
  // The routed answers and the old deadlines find nothing to complete.
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(failed.size(), 3u);
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
  const int rounds = ChordNode::kFingerCount * ChordNode::kFingerFixStride;
  const uint64_t before = network_.traffic().chord.messages;
  sim_.RunUntil(sim_.now() + rounds * ChordNode::kStabilizePeriod);
  const double sent =
      static_cast<double>(network_.traffic().chord.messages - before);
  const double model = analysis::ChordMaintenanceRate(params, n) * n *
                       rounds *
                       (static_cast<double>(ChordNode::kStabilizePeriod) /
                        kSecond);
  EXPECT_NEAR(sent / model, 1.0, 0.15)
      << "sent " << sent << " Chord messages, model predicts " << model;
}

TEST_F(ChordRingTest, SteadyRingSendsNoPredecessorPing) {
  // Each node's predecessor probes it every round, which proves the
  // predecessor alive: a converged ring never pings one.
  BuildRing(20);
  RecordingHook hook;
  network_.SetFaultHook(&hook);
  sim_.RunUntil(sim_.now() + ChordNode::kFingerCount *
                                 ChordNode::kFingerFixStride *
                                 ChordNode::kStabilizePeriod);
  network_.SetFaultHook(nullptr);
  EXPECT_GT(hook.sent[kChordGetNeighbors], 0u);
  EXPECT_EQ(hook.sent[kChordPing], 0u);
}

TEST_F(ChordRingTest, LookupThroughALeftNodeIsRefusedAndRerouted) {
  // A node that left the ring but is still up refuses the lookup step, so
  // the forwarder prunes it and re-routes at once instead of waiting out
  // the ack timeout.
  ChordNode::Params params;
  params.rpc_timeout = 4 * kSecond;
  BuildRing(20, params);
  ChordNode& leaver = hosts_[5]->chord();
  leaver.Leave();
  sim_.RunUntil(sim_.now() + kSecond);  // the hand-off messages land
  // The key right after the leaver: an origin still holding the leaver as
  // a finger has it as its best next hop.
  const ChordId key = leaver.id() + 1;
  ChordNode* expected = ExpectedOwner(key);
  ChordNode* origin = nullptr;
  for (auto& host : hosts_) {
    ChordNode& c = host->chord();
    if (&c == &leaver || &c == expected) continue;
    for (int j = 0; j < c.fingers().size() && origin == nullptr; ++j) {
      const auto& entry = c.fingers().entry(j);
      if (entry.has_value() && entry->peer == leaver.self()) origin = &c;
    }
    if (origin != nullptr) break;
  }
  ASSERT_NE(origin, nullptr);
  const SimTime start = sim_.now();
  SimTime done_at = -1;
  origin->Lookup(key, [&](const Status& status, RingPeer owner, int) {
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(owner.peer, expected->self());
    done_at = sim_.now();
  });
  sim_.RunUntil(start + 2 * params.rpc_timeout);
  ASSERT_GE(done_at, start) << "lookup never completed";
  EXPECT_LT(done_at - start, params.rpc_timeout / 2);
}

TEST_F(ChordRingTest, SuccessorCrashRefillsListedFingersWithoutLookups) {
  // The fingers that pointed at a crashed successor aim inside the
  // successor list, so they are refilled from it: no lookup, even when
  // the repair tick runs before the next successor's probe reply lands.
  BuildRing(20);
  ChordNode* node = nullptr;
  double slowest = 0;
  for (auto& host : hosts_) {
    ChordNode& c = host->chord();
    const double ms = network_.LatencyMs(c.self(), c.successor_list()[1].peer);
    if (ms > slowest) {
      slowest = ms;
      node = &c;
    }
  }
  ASSERT_NE(node, nullptr);
  const PeerId crashed = node->successor()->peer;
  network_.Detach(crashed);
  const SimTime deadline = sim_.now() + 2 * kMinute;
  while (node->successor()->peer == crashed && sim_.now() < deadline) {
    sim_.RunUntil(sim_.now() + 10);
  }
  ASSERT_NE(node->successor()->peer, crashed) << "crash never detected";
  const uint64_t lookups = node->lookups_started();
  sim_.RunUntil(sim_.now() + 5 * kSecond);
  EXPECT_EQ(node->lookups_started(), lookups);
  const std::vector<RingPeer>& list = node->successor_list();
  const ChordId reach = RingDistance(node->id(), list.back().id);
  int listed = 0;
  for (int j = 0; j < node->fingers().size(); ++j) {
    const ChordId target = node->fingers().TargetOf(j);
    const ChordId distance = RingDistance(node->id(), target);
    if (distance > reach) continue;
    ++listed;
    auto owner = std::find_if(list.begin(), list.end(), [&](const RingPeer& p) {
      return RingDistance(node->id(), p.id) >= distance;
    });
    ASSERT_TRUE(node->fingers().entry(j).has_value()) << "finger " << j;
    EXPECT_EQ(node->fingers().entry(j)->peer, owner->peer) << "finger " << j;
  }
  EXPECT_GT(listed, 0);
}

TEST_F(ChordRingTest, SilentCrashedPredecessorIsStillCleared) {
  // A predecessor is pinged only when it has not probed us lately. When
  // it crashes and no other node probes past it, the node's own check
  // must still clear it within two check windows and one RPC timeout.
  BuildRing(20);
  const ChordNode::Params params;
  ChordNode& node = hosts_[7]->chord();
  ASSERT_TRUE(node.predecessor().has_value());
  const PeerId pred = node.predecessor()->peer;
  RecordingHook hook;
  // No request reaches the node: nobody challenges or replaces its
  // predecessor for it.
  hook.drop = [&](PeerId dst, const Message& msg) {
    return dst == node.self() && !msg.is_response;
  };
  network_.SetFaultHook(&hook);
  network_.Detach(pred);
  const SimTime deadline =
      sim_.now() + 2 * ChordNode::kPredecessorCheckStride *
                       ChordNode::kStabilizePeriod +
      params.rpc_timeout;
  auto holds_crashed = [&]() {
    return node.predecessor().has_value() && node.predecessor()->peer == pred;
  };
  while (holds_crashed() && sim_.now() < deadline) {
    sim_.RunUntil(sim_.now() + 100);
  }
  network_.SetFaultHook(nullptr);
  EXPECT_FALSE(holds_crashed());
}

TEST_F(ChordRingTest, PredecessorThatLeftQuietlyIsCleared) {
  // A node that went idle without its successor hearing of it (here its
  // leave message is lost) is still up, but refuses the successor's ping,
  // so it loses the predecessor slot within two check windows and one RPC
  // timeout instead of being vouched for by its own pongs.
  BuildRing(20);
  const ChordNode::Params params;
  ChordNode& node = hosts_[7]->chord();
  ASSERT_TRUE(node.predecessor().has_value());
  const PeerId pred = node.predecessor()->peer;
  RecordingHook hook;
  hook.drop = [](PeerId, const Message& msg) {
    return msg.type == kChordLeave;
  };
  network_.SetFaultHook(&hook);
  hosts_[pred - 1]->chord().Leave();  // peer i + 1 is hosts_[i]
  const SimTime deadline =
      sim_.now() + 2 * ChordNode::kPredecessorCheckStride *
                       ChordNode::kStabilizePeriod +
      params.rpc_timeout;
  auto holds_leaver = [&]() {
    return node.predecessor().has_value() && node.predecessor()->peer == pred;
  };
  while (holds_leaver() && sim_.now() < deadline) {
    sim_.RunUntil(sim_.now() + 100);
  }
  network_.SetFaultHook(nullptr);
  EXPECT_FALSE(holds_leaver());
}

}  // namespace
}  // namespace flowercdn
