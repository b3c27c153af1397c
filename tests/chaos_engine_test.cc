#include "chaos/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "chaos/probe.h"
#include "chaos/scenario.h"
#include "obs/stats.h"
#include "sim/churn.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/random.h"

namespace flowercdn {
namespace {

class ChaosEngineTest : public ::testing::Test {
 protected:
  ChaosEngineTest()
      : topology_(Topology::Params{}), network_(&sim_, &topology_) {}

  ChaosEngine MakeEngine(ScenarioScript script, ChaosHooks hooks,
                         ChurnProcess* churn = nullptr) {
    return ChaosEngine(&sim_, &network_, churn, &stats_, Rng(11),
                       std::move(script), std::move(hooks));
  }

  Simulator sim_;
  StatsRegistry stats_{[this] { return sim_.now(); }};
  Topology topology_;
  Network network_;
};

TEST_F(ChaosEngineTest, KillActionFiresAtScriptedTime) {
  ScenarioScript script;
  script.AddKillDirectory(/*website=*/2, /*locality=*/1, 10 * kMinute);

  SimTime killed_at = 0;
  bool alive = true;
  ChaosHooks hooks;
  hooks.kill_directory = [&](WebsiteId ws, int loc) {
    EXPECT_EQ(ws, 2u);
    EXPECT_EQ(loc, 1);
    killed_at = sim_.now();
    alive = false;
    return true;
  };
  hooks.directory_alive = [&](WebsiteId, int) { return alive; };

  ChaosEngine engine = MakeEngine(script, std::move(hooks));
  engine.Start();
  // Replacement appears 3 minutes after the kill.
  sim_.Schedule(13 * kMinute, [&] { alive = true; });
  sim_.RunUntil(30 * kMinute);

  ChaosReport report = engine.Finish();
  EXPECT_EQ(killed_at, 10 * kMinute);
  EXPECT_EQ(report.actions_executed, 1u);
  ASSERT_EQ(report.directory_kills.size(), 1u);
  EXPECT_TRUE(report.directory_kills[0].had_directory);
  EXPECT_EQ(report.directory_kills[0].kill_time, 10 * kMinute);
  // Polled at the one-minute probe cadence: observed on the first poll at
  // or after the replacement.
  EXPECT_GE(report.directory_kills[0].replacement_latency_ms, 3 * kMinute);
  EXPECT_LE(report.directory_kills[0].replacement_latency_ms, 4 * kMinute);
}

TEST_F(ChaosEngineTest, UnreplacedKillReportsMinusOne) {
  ScenarioScript script;
  script.AddKillDirectory(0, 0, kMinute);
  ChaosHooks hooks;
  hooks.kill_directory = [](WebsiteId, int) { return true; };
  hooks.directory_alive = [](WebsiteId, int) { return false; };
  ChaosEngine engine = MakeEngine(script, std::move(hooks));
  engine.Start();
  sim_.RunUntil(10 * kMinute);
  ChaosReport report = engine.Finish();
  ASSERT_EQ(report.directory_kills.size(), 1u);
  EXPECT_EQ(report.directory_kills[0].replacement_latency_ms, -1);
}

TEST_F(ChaosEngineTest, PartitionInstallsAndHealsCut) {
  ScenarioScript script;
  script.AddPartition(0, 1, 5 * kMinute, 10 * kMinute);
  uint64_t queries = 0, hits = 0;
  ChaosHooks hooks;
  hooks.query_totals = [&](uint64_t& q, uint64_t& h) {
    q = queries;
    h = hits;
  };
  ChaosEngine engine = MakeEngine(script, std::move(hooks));
  engine.Start();
  EXPECT_EQ(engine.injector().active_partitions(), 0u);

  sim_.RunUntil(6 * kMinute);
  EXPECT_EQ(engine.injector().active_partitions(), 1u);
  // 40 queries / 10 hits land while the cut is active...
  queries = 40;
  hits = 10;
  sim_.RunUntil(16 * kMinute);
  EXPECT_EQ(engine.injector().active_partitions(), 0u) << "healed";
  // ...and another 60 / 40 in the equally long window after healing.
  queries = 100;
  hits = 50;
  sim_.RunUntil(30 * kMinute);

  ChaosReport report = engine.Finish();
  ASSERT_EQ(report.partition_windows.size(), 1u);
  const auto& window = report.partition_windows[0];
  EXPECT_EQ(window.start, 5 * kMinute);
  EXPECT_EQ(window.end, 15 * kMinute);
  EXPECT_EQ(window.queries_during, 40u);
  EXPECT_EQ(window.hits_during, 10u);
  EXPECT_EQ(window.queries_after, 60u);
  EXPECT_EQ(window.hits_after, 40u);
  EXPECT_DOUBLE_EQ(window.SuccessDuring(), 0.25);
  EXPECT_DOUBLE_EQ(window.SuccessAfter(), 40.0 / 60.0);
}

TEST_F(ChaosEngineTest, IncompletePartitionWindowTruncatedAtFinish) {
  ScenarioScript script;
  script.AddPartition(0, 1, 5 * kMinute, kHour);
  ChaosEngine engine = MakeEngine(script, ChaosHooks{});
  engine.Start();
  sim_.RunUntil(10 * kMinute);  // cut still active at run end
  ChaosReport report = engine.Finish();
  ASSERT_EQ(report.partition_windows.size(), 1u);
  EXPECT_EQ(report.partition_windows[0].end, 10 * kMinute);
}

TEST_F(ChaosEngineTest, FlashCrowdSetsAndRevertsQueryRate) {
  ScenarioScript script;
  script.AddFlashCrowd(/*ws=*/3, 5 * kMinute, /*multiplier=*/10.0,
                       /*duration=*/10 * kMinute);
  std::vector<double> rates;
  ChaosHooks hooks;
  hooks.set_query_rate = [&](WebsiteId ws, double m) {
    EXPECT_EQ(ws, 3u);
    rates.push_back(m);
  };
  ChaosEngine engine = MakeEngine(script, std::move(hooks));
  engine.Start();
  sim_.RunUntil(30 * kMinute);
  engine.Finish();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 1.0);
}

TEST_F(ChaosEngineTest, ChurnSpikeScalesAndRestoresMultiplier) {
  ChurnProcess::Params params;
  params.enabled = false;
  ChurnProcess churn(&sim_, Rng(3), params);
  ScenarioScript script;
  script.AddChurnSpike(/*factor=*/3.0, 5 * kMinute, 10 * kMinute);
  ChaosEngine engine = MakeEngine(script, ChaosHooks{}, &churn);
  engine.Start();
  sim_.RunUntil(6 * kMinute);
  EXPECT_DOUBLE_EQ(churn.rate_multiplier(), 3.0);
  sim_.RunUntil(16 * kMinute);
  EXPECT_DOUBLE_EQ(churn.rate_multiplier(), 1.0);
  engine.Finish();
}

TEST_F(ChaosEngineTest, NullHooksDegradeToCountedNoOps) {
  ScenarioScript script;
  script.AddKillDirectory(0, 0, kMinute)
      .AddFlashCrowd(0, 2 * kMinute, 5.0, kMinute)
      .AddChurnSpike(2.0, 3 * kMinute, kMinute);
  ChaosEngine engine = MakeEngine(script, ChaosHooks{});
  engine.Start();
  sim_.RunUntil(10 * kMinute);
  ChaosReport report = engine.Finish();
  EXPECT_EQ(report.actions_executed, 3u);
  ASSERT_EQ(report.directory_kills.size(), 1u);
  EXPECT_FALSE(report.directory_kills[0].had_directory);
}

TEST_F(ChaosEngineTest, BaseFaultsInstalledOnStart) {
  ScenarioScript script;
  script.loss_rate = 0.25;
  ChaosEngine engine = MakeEngine(script, ChaosHooks{});
  engine.Start();
  EXPECT_DOUBLE_EQ(engine.injector().EffectiveLossRate(0), 0.25);
  EXPECT_EQ(network_.fault_hook(), &engine.injector());
  engine.Finish();
  EXPECT_EQ(network_.fault_hook(), nullptr) << "Finish uninstalls the hook";
}

// --- RecoveryProbe -----------------------------------------------------------

TEST(RecoveryProbe, BaselineFrozenAtEventAndRecoveryMeasured) {
  RecoveryProbe::Params params;
  params.window = 10 * kMinute;
  RecoveryProbe probe(params);

  // Warmup at a steady 80% ratio.
  uint64_t queries = 0, hits = 0;
  for (SimTime t = kMinute; t <= 20 * kMinute; t += kMinute) {
    queries += 10;
    hits += 8;
    probe.AddSample(t, queries, hits);
  }
  probe.MarkEventStart(20 * kMinute);
  EXPECT_NEAR(probe.baseline(), 0.8, 1e-9);

  // Fault: ratio collapses to 20% for 10 minutes...
  for (SimTime t = 21 * kMinute; t <= 30 * kMinute; t += kMinute) {
    queries += 10;
    hits += 2;
    probe.AddSample(t, queries, hits);
  }
  EXPECT_LT(probe.dip_min(), 0.8 - RecoveryProbe::kTolerance);
  EXPECT_LT(probe.recovery_ms(), 0) << "not yet recovered";

  // ...then climbs back to 90% until the window is clean again.
  for (SimTime t = 31 * kMinute; t <= 60 * kMinute; t += kMinute) {
    queries += 10;
    hits += 9;
    probe.AddSample(t, queries, hits);
  }
  EXPECT_GT(probe.recovery_ms(), 0);
  EXPECT_LE(probe.recovery_ms(), 40.0 * kMinute);
}

TEST(RecoveryProbe, NeverDippingReportsZero) {
  RecoveryProbe probe;
  uint64_t queries = 0, hits = 0;
  for (SimTime t = kMinute; t <= 30 * kMinute; t += kMinute) {
    queries += 10;
    hits += 8;
    probe.AddSample(t, queries, hits);
    if (t == 10 * kMinute) probe.MarkEventStart(t);
  }
  EXPECT_EQ(probe.recovery_ms(), 0);
}

TEST(RecoveryProbe, SecondMarkIsIgnored) {
  RecoveryProbe probe;
  probe.AddSample(kMinute, 10, 8);
  probe.MarkEventStart(kMinute);
  double baseline = probe.baseline();
  probe.AddSample(2 * kMinute, 30, 10);
  probe.MarkEventStart(2 * kMinute);
  EXPECT_DOUBLE_EQ(probe.baseline(), baseline);
}

}  // namespace
}  // namespace flowercdn
