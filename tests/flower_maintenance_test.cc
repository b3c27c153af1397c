#include <gtest/gtest.h>

#include <string>

#include "expt/env.h"
#include "expt/flower_system.h"

namespace flowercdn {
namespace {

/// One active petal under manual failure injection — exercises the paper's
/// §5 maintenance protocols in isolation.
class FlowerMaintenanceTest : public ::testing::Test {
 protected:
  ExperimentConfig MakeConfig() {
    ExperimentConfig config;
    config.seed = 33;
    config.target_population = 30;
    config.universe_factor = 1.0;
    config.topology.num_localities = 1;
    config.catalog.num_websites = 1;
    config.catalog.num_active = 1;
    config.catalog.objects_per_website = 60;
    // Arrivals flow in quickly; failures effectively never (we inject).
    config.mean_uptime = 100000 * kHour;
    config.arrival_rate_override_per_ms = 30.0 / kHour;
    config.duration = 12 * kHour;
    // Faster petal maintenance so recovery happens within the test window.
    config.flower.gossip_period = 10 * kMinute;
    config.flower.max_directory_load = 100;  // keep one instance
    return config;
  }

  void Warmup(ExperimentEnv& env, FlowerSystem& system, SimTime until) {
    system.Setup();
    env.sim().RunUntil(until);
  }
};

TEST_F(FlowerMaintenanceTest, PushesRebuildTheDirectoryIndex) {
  ExperimentConfig config = MakeConfig();
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  Warmup(env, system, 3 * kHour);

  FlowerPeer* dir = system.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  // Content peers queried and pushed: the index must know their objects.
  EXPECT_GT(dir->index().num_entries(), 20u);
  EXPECT_GT(dir->view().size(), 10u);
}

// The protocol counters live in the stats registry, not in the sessions, so
// what a session counted survives its destruction.
TEST_F(FlowerMaintenanceTest, DepartedSessionsKeepTheirCounts) {
  ExperimentConfig config = MakeConfig();
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  Warmup(env, system, 3 * kHour);
  // One departure with a detected directory failure behind it.
  FlowerPeer* dir = system.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  system.InjectFailure(dir->self());
  env.sim().RunUntil(env.sim().now() + 3 * config.flower.gossip_period);
  const FlowerSystem::Stats before = system.ComputeStats();
  ASSERT_GT(before.queries_issued, 0u);
  ASSERT_GT(before.dir_failures_detected, 0u);
  for (PeerId peer = 1; peer <= env.universe_size(); ++peer) {
    system.InjectFailure(peer);
  }
  const FlowerSystem::Stats after = system.ComputeStats();
  EXPECT_EQ(after.live_sessions, 0u);
  EXPECT_EQ(after.queries_issued, before.queries_issued);
  EXPECT_EQ(after.dring_resolve_failures, before.dring_resolve_failures);
  EXPECT_EQ(after.dir_reply_vacant, before.dir_reply_vacant);
  EXPECT_EQ(after.dir_query_timeouts, before.dir_query_timeouts);
  EXPECT_EQ(after.dir_failures_detected, before.dir_failures_detected);
  EXPECT_EQ(after.promotions_triggered, before.promotions_triggered);
  EXPECT_EQ(after.summary_hits, before.summary_hits);
  EXPECT_EQ(after.collaboration_hits, before.collaboration_hits);
  EXPECT_EQ(after.dir_failures_detected,
            env.stats().Total("flower.dir_failures_detected"));
}

TEST_F(FlowerMaintenanceTest, DirectoryFailureIsDetectedAndReplaced) {
  ExperimentConfig config = MakeConfig();
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  Warmup(env, system, 3 * kHour);

  FlowerPeer* dir = system.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  PeerId failed = dir->self();
  system.InjectFailure(failed);
  ASSERT_EQ(system.FindDirectory(0, 0), nullptr);

  // Within a couple of query/keepalive intervals some content peer must
  // detect the failure and claim the vacant position (§5.2.1).
  env.sim().RunUntil(env.sim().now() + 90 * kMinute);
  FlowerPeer* replacement = system.FindDirectory(0, 0);
  ASSERT_NE(replacement, nullptr) << "no replacement directory appeared";
  EXPECT_NE(replacement->self(), failed);
  EXPECT_EQ(replacement->role(), FlowerRole::kDirectoryPeer);

  // And the new index must be repopulated by pushes (§5.1/§5.2.2).
  env.sim().RunUntil(env.sim().now() + 2 * config.flower.gossip_period);
  EXPECT_GT(replacement->index().num_peers(), 3u)
      << "index was not rebuilt by pushes";
}

TEST_F(FlowerMaintenanceTest, RepeatedFailuresKeepGettingRepaired) {
  ExperimentConfig config = MakeConfig();
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  Warmup(env, system, 3 * kHour);

  for (int round = 0; round < 3; ++round) {
    FlowerPeer* dir = system.FindDirectory(0, 0);
    ASSERT_NE(dir, nullptr) << "round " << round;
    system.InjectFailure(dir->self());
    env.sim().RunUntil(env.sim().now() + 90 * kMinute);
  }
  EXPECT_NE(system.FindDirectory(0, 0), nullptr);
}

TEST_F(FlowerMaintenanceTest, GracefulLeaveHandsOffIndexImmediately) {
  ExperimentConfig config = MakeConfig();
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  Warmup(env, system, 3 * kHour);

  FlowerPeer* dir = system.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  size_t entries_before = dir->index().num_entries();
  ASSERT_GT(entries_before, 0u);
  system.InjectGracefulLeave(dir->self());

  // The heir claims the position carrying the handed-off index: much
  // faster than a failure rebuild and with state intact.
  env.sim().RunUntil(env.sim().now() + 15 * kMinute);
  FlowerPeer* heir = system.FindDirectory(0, 0);
  ASSERT_NE(heir, nullptr) << "handoff target did not take over";
  EXPECT_GT(heir->index().num_entries(), entries_before / 2)
      << "the transferred directory-index was lost";
}

TEST_F(FlowerMaintenanceTest, QueriesKeepResolvingThroughFailures) {
  ExperimentConfig config = MakeConfig();
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  Warmup(env, system, 2 * kHour);

  // Kill the directory every hour; the petal should keep serving.
  for (int round = 0; round < 6; ++round) {
    FlowerPeer* dir = system.FindDirectory(0, 0);
    if (dir != nullptr) system.InjectFailure(dir->self());
    env.sim().RunUntil(env.sim().now() + kHour);
  }
  const MetricsCollector& metrics = env.metrics();
  EXPECT_GT(metrics.total_queries(), 200u);
  // Hits must keep flowing despite the failures (exact level depends on
  // warmup; the invariant is robustness, not a specific ratio).
  EXPECT_GT(metrics.HitRatio(), 0.3);
}

// The paper's §5 ablation: a petal's directory fails, a content peer
// replaces it, and pushes and gossip rebuild its index. The parameter is
// the gossip/keepalive period in minutes (Table 1: 60). Failure is detected
// by queries and keepalives, so replacement takes minutes at every period.
class DirectoryRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(DirectoryRecoveryTest, ReplacesTheDirectoryAndRebuildsItsIndex) {
  constexpr SimTime kKillAt = 4 * kHour;
  ExperimentConfig config;
  config.seed = 42;
  config.target_population = 40;
  config.universe_factor = 1.0;
  config.topology.num_localities = 1;
  config.catalog.num_websites = 1;
  config.catalog.num_active = 1;
  config.catalog.objects_per_website = 120;
  config.mean_uptime = 100000 * kHour;  // failures only by injection
  config.arrival_rate_override_per_ms = 40.0 / kHour;
  config.flower.gossip_period = GetParam() * kMinute;
  config.flower.max_directory_load = 200;  // keep one instance
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  system.Setup();
  env.sim().RunUntil(kKillAt);

  FlowerPeer* dir = system.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  const size_t entries_before = dir->index().num_entries();
  ASSERT_GT(entries_before, 0u);
  ASSERT_TRUE(system.KillDirectory(0, 0));

  int replaced_min = -1;
  int rebuilt_min = -1;
  for (int minute = 1; minute <= 30 && rebuilt_min < 0; ++minute) {
    env.sim().RunUntil(kKillAt + minute * kMinute);
    FlowerPeer* replacement = system.FindDirectory(0, 0);
    if (replacement == nullptr) continue;
    if (replaced_min < 0) replaced_min = minute;
    if (replacement->index().num_entries() >= entries_before / 2) {
      rebuilt_min = minute;
    }
  }
  EXPECT_GE(replaced_min, 1) << "no replacement within 30 min";
  EXPECT_LE(replaced_min, 5);
  EXPECT_GE(rebuilt_min, 1)
      << "the index did not regain half of its " << entries_before
      << " entries within 30 min";
}

INSTANTIATE_TEST_SUITE_P(GossipPeriods, DirectoryRecoveryTest,
                         ::testing::Values(10, 30, 60, 120),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "min";
                         });

}  // namespace
}  // namespace flowercdn
