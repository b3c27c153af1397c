// Chord across a healed network partition: a locality cut (injected by the
// chaos FaultInjector) splits the ring's message paths; after healing, the
// stabilization protocol must reconverge successor lists and fingers, and
// lookups must succeed ring-wide again — including one issued while the
// cut was still active.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chaos/fault_injector.h"
#include "chord/chord_node.h"
#include "obs/stats.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/random.h"

namespace flowercdn {
namespace {

class ChordPartitionTest : public ::testing::Test {
 protected:
  struct Host : SimNode {
    Host(Network* network, PeerId self, ChordId id)
        : chord(network, self, id, ChordNode::Params{}) {}
    void HandleMessage(MessagePtr msg) override { chord.HandleMessage(msg); }
    ChordNode chord;
  };

  /// Zero-scatter landmarks so every peer classifies to exactly the
  /// locality it was placed in — the cut between two localities is total,
  /// while the other four keep the ring connected (a full bisection would
  /// split Chord into two rings that stabilization alone cannot merge).
  static Topology::Params ExactLocalities() {
    Topology::Params params;
    params.cluster_stddev = 0;
    return params;
  }

  ChordPartitionTest()
      : topology_(ExactLocalities()), network_(&sim_, &topology_) {}

  /// `n` nodes spread round-robin over the six localities.
  void StartRing(int n) {
    Rng rng(5);
    for (int i = 0; i < n; ++i) {
      PeerId p = static_cast<PeerId>(i + 1);
      network_.RegisterIdentity(p, topology_.PlaceInLocality(i % 6, rng));
      ids_.push_back(ChordHash("node" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
      PeerId p = static_cast<PeerId>(i + 1);
      hosts_[p] = std::make_unique<Host>(&network_, p, ids_[i]);
      Incarnation inc = network_.Attach(p, hosts_[p].get());
      hosts_[p]->chord.Bind(inc);
      if (i == 0) {
        hosts_[p]->chord.CreateRing();
      } else {
        hosts_[p]->chord.Join(1, [](const Status&) {});
      }
    }
  }

  /// Every live node's successor must be the true clockwise next live node.
  void ExpectRingConverged() {
    std::vector<ChordNode*> live;
    for (auto& [p, h] : hosts_) {
      if (h->chord.active()) live.push_back(&h->chord);
    }
    ASSERT_GT(live.size(), 0u);
    std::sort(live.begin(), live.end(),
              [](ChordNode* a, ChordNode* b) { return a->id() < b->id(); });
    for (size_t i = 0; i < live.size(); ++i) {
      ASSERT_TRUE(live[i]->successor().has_value());
      EXPECT_EQ(live[i]->successor()->peer,
                live[(i + 1) % live.size()]->self())
          << "successor list did not reconverge after the heal";
    }
  }

  Simulator sim_;
  StatsRegistry stats_{[this] { return sim_.now(); }};
  Topology topology_;
  Network network_;
  std::vector<ChordId> ids_;
  std::unordered_map<PeerId, std::unique_ptr<Host>> hosts_;
};

TEST_F(ChordPartitionTest, RingReconvergesAfterPartitionHeals) {
  StartRing(24);
  sim_.RunUntil(10 * kMinute);
  ExpectRingConverged();

  FaultInjector injector(&network_, Rng(17), &stats_);
  network_.SetFaultHook(&injector);
  injector.AddPartition(0, 1);
  SimTime cut_at = sim_.now();

  // 10 minutes of partition: stabilization on each side keeps timing out
  // on cross-cut successors/fingers and routes around them.
  sim_.RunUntil(cut_at + 10 * kMinute);
  EXPECT_GT(injector.counts().partition_drops, 0u)
      << "the cut never intercepted stabilization traffic";

  // A lookup issued while the cut is still active, for a key that lives on
  // the far side; retries must carry it across the heal.
  int during_completed = 0;
  bool during_succeeded = false;
  Rng rng(23);
  ChordId key = rng.Next();
  hosts_[1]->chord.Lookup(key, [&](const Status& status, RingPeer, int) {
    ++during_completed;
    during_succeeded = status.ok();
  });

  // Heal 5 seconds later and let stabilization mend the ring.
  sim_.RunUntil(sim_.now() + 5 * kSecond);
  injector.RemovePartition(0, 1);
  sim_.RunUntil(sim_.now() + 15 * kMinute);
  network_.SetFaultHook(nullptr);

  EXPECT_EQ(during_completed, 1);
  EXPECT_TRUE(during_succeeded)
      << "lookup issued during the partition must succeed after the heal";

  ExpectRingConverged();

  // Fresh lookups from both sides of the former cut succeed.
  int issued = 0, succeeded = 0;
  for (int i = 0; i < 20; ++i) {
    PeerId origin = static_cast<PeerId>((i % 24) + 1);
    if (!hosts_[origin]->chord.active()) continue;
    ++issued;
    hosts_[origin]->chord.Lookup(
        rng.Next(), [&succeeded](const Status& status, RingPeer, int) {
          if (status.ok()) ++succeeded;
        });
  }
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(succeeded, issued);
}

TEST_F(ChordPartitionTest, LookupsWithinOneSideSurviveTheCut) {
  StartRing(24);
  sim_.RunUntil(10 * kMinute);

  FaultInjector injector(&network_, Rng(17), &stats_);
  network_.SetFaultHook(&injector);
  injector.AddPartition(0, 1);
  sim_.RunUntil(sim_.now() + 5 * kMinute);

  // Nodes can still route via the four uncut localities: at least some
  // lookups from the cut-off locality complete during the partition.
  int completed = 0;
  for (PeerId p = 1; p <= 24; ++p) {
    if (network_.LocalityOf(p) != 0) continue;
    if (!hosts_[p]->chord.active()) continue;
    Rng rng(p);
    hosts_[p]->chord.Lookup(
        rng.Next(), [&completed](const Status&, RingPeer, int) {
          ++completed;
        });
  }
  sim_.RunUntil(sim_.now() + 2 * kMinute);
  EXPECT_GT(completed, 0) << "every lookup hung under the partition";
  network_.SetFaultHook(nullptr);
}

}  // namespace
}  // namespace flowercdn
