#include <gtest/gtest.h>

#include "expt/config.h"

namespace flowercdn {
namespace {

/// Pins the defaults to Table 1 of the paper — a regression net against
/// accidental re-tuning.
TEST(ConfigDefaultsTest, MatchTable1) {
  ExperimentConfig config;
  // Latency (ms): 10 - 500.
  EXPECT_DOUBLE_EQ(Topology::kMinLatencyMs, 10.0);
  EXPECT_DOUBLE_EQ(Topology::kMaxLatencyMs, 500.0);
  // Nb of localities (k): 6.
  EXPECT_EQ(config.topology.num_localities, 6);
  // Nb of websites |W|: 100, 6 active.
  EXPECT_EQ(config.catalog.num_websites, 100);
  EXPECT_EQ(config.catalog.num_active, 6);
  // Nb of objects per website: 500.
  EXPECT_EQ(config.catalog.objects_per_website, 500);
  // Mean uptime m: 60 min, always-fail churn.
  EXPECT_EQ(config.mean_uptime, 60 * kMinute);
  EXPECT_TRUE(config.churn_enabled);
  // Total network size: P * 1.3.
  EXPECT_DOUBLE_EQ(config.universe_factor, 1.3);
  // Query rate: 1 query every 6 min.
  EXPECT_EQ(QueryWorkload::kMeanQueryGap, 6 * kMinute);
  // Push threshold: 0.5.
  EXPECT_DOUBLE_EQ(kPushThreshold, 0.5);
  // Gossip/keepalive period: 1 hour.
  EXPECT_EQ(config.flower.gossip_period, kHour);
  // Experiment length: 24 hours.
  EXPECT_EQ(config.duration, 24 * kHour);
}

TEST(ConfigDefaultsTest, DerivedQuantities) {
  ExperimentConfig config;
  config.target_population = 3000;
  // Arrival rate P/m keeps the population converged at P.
  EXPECT_DOUBLE_EQ(config.ArrivalRatePerMs() * config.mean_uptime, 3000.0);
  // Universe 1.3 * P.
  EXPECT_EQ(config.UniverseSize(), 3900u);
  // Initial D-ring: k * |W| = 600 directory peers.
  EXPECT_EQ(static_cast<size_t>(config.catalog.num_websites) *
                config.topology.num_localities,
            600u);
}

TEST(ConfigDefaultsTest, PaperFaithfulProtocolSwitches) {
  ExperimentConfig config;
  // §3.2 collaboration is an optional extension, off by default.
  EXPECT_FALSE(config.flower.enable_dir_collaboration);
  // PetalUp elasticity is part of the contribution, on by default.
  EXPECT_TRUE(config.flower.petalup_enabled);
  // Directory load limit: petals "never surpass 30" in the paper's runs.
  EXPECT_EQ(config.flower.max_directory_load, 30u);
  // Squirrel runs the directory variant the paper compares against.
  EXPECT_EQ(config.squirrel.mode, SquirrelMode::kDirectory);
}

}  // namespace
}  // namespace flowercdn
