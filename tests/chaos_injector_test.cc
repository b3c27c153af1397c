#include "chaos/fault_injector.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "obs/stats.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/random.h"

namespace flowercdn {
namespace {

struct TestMsg : Message {
  explicit TestMsg(int v = 0) : value(v) { type = 901; }
  int value;
};

class RecorderNode : public SimNode {
 public:
  void HandleMessage(MessagePtr msg) override {
    values.insert(static_cast<const TestMsg&>(*msg).value);
  }
  std::set<int> values;
};

/// Zero-scatter topology: PlaceInLocality(L) classifies back to exactly L,
/// so partition membership in the tests is unambiguous.
Topology::Params ExactLocalities() {
  Topology::Params params;
  params.cluster_stddev = 0;
  return params;
}

/// Two peers in locality 0 (ids 1, 2), one in locality 1 (id 3).
class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest()
      : topology_(ExactLocalities()), network_(&sim_, &topology_) {
    Rng rng(1);
    network_.RegisterIdentity(1, topology_.PlaceInLocality(0, rng));
    network_.RegisterIdentity(2, topology_.PlaceInLocality(0, rng));
    network_.RegisterIdentity(3, topology_.PlaceInLocality(1, rng));
    network_.Attach(1, &a_);
    network_.Attach(2, &b_);
    network_.Attach(3, &c_);
  }

  Simulator sim_;
  StatsRegistry stats_{[this] { return sim_.now(); }};
  Topology topology_;
  Network network_;
  RecorderNode a_, b_, c_;
};

TEST_F(FaultInjectorTest, PartitionCutsBothDirectionsAndHeals) {
  FaultInjector injector(&network_, Rng(7), &stats_);
  network_.SetFaultHook(&injector);
  injector.AddPartition(0, 1);

  network_.Send(1, 3, std::make_unique<TestMsg>(1));  // crosses the cut
  network_.Send(3, 1, std::make_unique<TestMsg>(2));  // reverse direction
  network_.Send(1, 2, std::make_unique<TestMsg>(3));  // intra-locality
  sim_.Run();
  EXPECT_TRUE(c_.values.empty());
  EXPECT_TRUE(a_.values.empty());
  EXPECT_EQ(b_.values.count(3), 1u) << "intra-locality traffic unaffected";
  EXPECT_EQ(injector.counts().partition_drops, 2u);

  injector.RemovePartition(1, 0);  // heal, argument order irrelevant
  EXPECT_EQ(injector.active_partitions(), 0u);
  network_.Send(1, 3, std::make_unique<TestMsg>(4));
  sim_.Run();
  EXPECT_EQ(c_.values.count(4), 1u);
}

TEST_F(FaultInjectorTest, CertainLossDropsEverything) {
  FaultInjector injector(&network_, Rng(7), &stats_);
  network_.SetFaultHook(&injector);
  injector.SetBaseFaults(/*loss_rate=*/1.0, 0, 0);
  for (int i = 0; i < 20; ++i) {
    network_.Send(1, 2, std::make_unique<TestMsg>(i));
  }
  sim_.Run();
  EXPECT_TRUE(b_.values.empty());
  EXPECT_EQ(injector.counts().loss_drops, 20u);
}

TEST_F(FaultInjectorTest, ZeroKnobsTouchNothing) {
  FaultInjector injector(&network_, Rng(7), &stats_);
  network_.SetFaultHook(&injector);
  for (int i = 0; i < 20; ++i) {
    network_.Send(1, 2, std::make_unique<TestMsg>(i));
  }
  sim_.Run();
  EXPECT_EQ(b_.values.size(), 20u);
  EXPECT_EQ(injector.counts().loss_drops, 0u);
  EXPECT_EQ(injector.counts().delayed, 0u);
  EXPECT_EQ(injector.counts().dup_copies, 0u);
  // A fault class that never fired exports no counter at all.
  EXPECT_TRUE(stats_.SnapshotCounters().empty());
}

TEST_F(FaultInjectorTest, JitterDelaysEveryMessageSent) {
  FaultInjector injector(&network_, Rng(7), &stats_);
  network_.SetFaultHook(&injector);
  injector.SetBaseFaults(0, /*delay_jitter_ms=*/40.0, 0);
  for (int i = 0; i < 25; ++i) {
    network_.Send(1, i % 2 == 0 ? 2 : 3, std::make_unique<TestMsg>(i));
  }
  network_.Send(1, 1, std::make_unique<TestMsg>(99));  // local, exempt
  sim_.Run();
  EXPECT_EQ(b_.values.size() + c_.values.size(), 25u);
  EXPECT_EQ(stats_.Total("chaos.delayed"), 25u);
  EXPECT_EQ(injector.counts().delayed, 25u);
  // Lost messages are never delayed: delayed == sent - dropped.
  injector.SetBaseFaults(/*loss_rate=*/0.5, /*delay_jitter_ms=*/40.0, 0);
  for (int i = 0; i < 40; ++i) {
    network_.Send(1, 2, std::make_unique<TestMsg>(100 + i));
  }
  sim_.Run();
  const FaultInjector::Counts counts = injector.counts();
  EXPECT_GT(counts.loss_drops, 0u);
  EXPECT_EQ(counts.delayed, 25u + 40u - counts.loss_drops);
}

TEST_F(FaultInjectorTest, EffectiveLossRateRampsLinearly) {
  FaultInjector injector(&network_, Rng(7), &stats_);
  injector.SetLossRamp(/*rate=*/0.2, /*t0=*/1000, /*t1=*/2000);
  EXPECT_DOUBLE_EQ(injector.EffectiveLossRate(0), 0.0);
  EXPECT_DOUBLE_EQ(injector.EffectiveLossRate(1000), 0.0);
  EXPECT_DOUBLE_EQ(injector.EffectiveLossRate(1500), 0.1);
  EXPECT_DOUBLE_EQ(injector.EffectiveLossRate(2000), 0.2);
  EXPECT_DOUBLE_EQ(injector.EffectiveLossRate(5000), 0.2)
      << "ramp holds its target after t1";
}

TEST_F(FaultInjectorTest, RampAddsToBaseRateCappedAtOne) {
  FaultInjector injector(&network_, Rng(7), &stats_);
  injector.SetBaseFaults(/*loss_rate=*/0.9, 0, 0);
  injector.SetLossRamp(/*rate=*/0.5, 0, 0);
  EXPECT_DOUBLE_EQ(injector.EffectiveLossRate(1000), 1.0);
}

TEST_F(FaultInjectorTest, SelfSendsAreExempt) {
  FaultInjector injector(&network_, Rng(7), &stats_);
  network_.SetFaultHook(&injector);
  injector.SetBaseFaults(/*loss_rate=*/1.0, 0, 0);
  network_.Send(1, 1, std::make_unique<TestMsg>(42));
  sim_.Run();
  EXPECT_EQ(a_.values.count(42), 1u);
  EXPECT_EQ(injector.counts().loss_drops, 0u);
}

/// Sends `n` messages 1->2 under `injector` config and returns which
/// arrived. Fresh network each call so delivery is comparable.
std::set<int> DeliveredUnder(uint64_t seed, double loss, double jitter,
                             double dup) {
  Simulator sim;
  Topology topology{ExactLocalities()};
  Network network(&sim, &topology);
  Rng place(1);
  network.RegisterIdentity(1, topology.PlaceInLocality(0, place));
  network.RegisterIdentity(2, topology.PlaceInLocality(0, place));
  RecorderNode a, b;
  network.Attach(1, &a);
  network.Attach(2, &b);
  StatsRegistry stats([&sim] { return sim.now(); });
  FaultInjector injector(&network, Rng(seed), &stats);
  network.SetFaultHook(&injector);
  injector.SetBaseFaults(loss, jitter, dup);
  for (int i = 0; i < 200; ++i) {
    network.Send(1, 2, std::make_unique<TestMsg>(i));
  }
  sim.Run();
  return b.values;
}

TEST(FaultInjectorDeterminism, SameSeedSameDrops) {
  std::set<int> first = DeliveredUnder(99, 0.5, 0, 0);
  std::set<int> second = DeliveredUnder(99, 0.5, 0, 0);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.size(), 0u);
  EXPECT_LT(first.size(), 200u);
}

TEST(FaultInjectorDeterminism, EnablingJitterDoesNotPerturbLossDraws) {
  // Each fault class draws from the stream only when its knob is nonzero,
  // in fixed order — so adding jitter (drawn after the loss decision)
  // leaves the loss pattern bit-identical.
  std::set<int> plain = DeliveredUnder(99, 0.5, 0, 0);
  std::set<int> jittered = DeliveredUnder(99, 0.5, 40.0, 0);
  EXPECT_EQ(plain, jittered);
}

TEST(FaultInjectorDeterminism, DifferentSeedsDifferentDrops) {
  std::set<int> first = DeliveredUnder(99, 0.5, 0, 0);
  std::set<int> second = DeliveredUnder(100, 0.5, 0, 0);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace flowercdn
