#include <gtest/gtest.h>

#include "expt/env.h"
#include "expt/squirrel_system.h"

namespace flowercdn {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.seed = 44;
  config.target_population = 60;
  config.universe_factor = 1.0;
  config.catalog.num_websites = 2;
  config.catalog.num_active = 2;
  config.catalog.objects_per_website = 50;
  config.mean_uptime = 100000 * kHour;  // failures only by injection
  config.arrival_rate_override_per_ms = 60.0 / kHour;
  config.duration = 8 * kHour;
  return config;
}

TEST(SquirrelTest, AllPeersJoinTheRing) {
  ExperimentConfig config = SmallConfig();
  ExperimentEnv env(config);
  SquirrelSystem system(&env, config.squirrel);
  system.Setup();
  env.sim().RunUntil(3 * kHour);
  auto stats = system.ComputeStats();
  EXPECT_EQ(stats.live_sessions, env.universe_size());
  EXPECT_EQ(stats.joined_sessions, stats.live_sessions);
}

TEST(SquirrelTest, HomeDirectoriesDriveHits) {
  ExperimentConfig config = SmallConfig();
  ExperimentEnv env(config);
  SquirrelSystem system(&env, config.squirrel);
  system.Setup();
  env.sim().RunUntil(config.duration);
  const MetricsCollector& metrics = env.metrics();
  EXPECT_GT(metrics.total_queries(), 300u);
  EXPECT_GT(metrics.HitRatio(), 0.4) << "directory scheme broken";
  auto stats = system.ComputeStats();
  EXPECT_GT(stats.home_redirects, 100u);
  // Without churn, redirects should almost always succeed.
  EXPECT_LT(stats.delegate_failures, stats.home_redirects / 10);
}

// The outcome counters live in the stats registry, not in the sessions, so
// a session's queries still count after it is destroyed.
TEST(SquirrelTest, DepartedSessionsKeepTheirCounts) {
  ExperimentConfig config = SmallConfig();
  ExperimentEnv env(config);
  SquirrelSystem system(&env, config.squirrel);
  system.Setup();
  env.sim().RunUntil(3 * kHour);
  const SquirrelSystem::Stats before = system.ComputeStats();
  ASSERT_GT(before.queries_issued, 0u);
  ASSERT_GT(before.home_redirects, 0u);
  for (PeerId peer = 1; peer <= env.universe_size(); ++peer) {
    system.InjectFailure(peer);
  }
  const SquirrelSystem::Stats after = system.ComputeStats();
  EXPECT_EQ(after.live_sessions, 0u);
  EXPECT_EQ(after.queries_issued, before.queries_issued);
  EXPECT_EQ(after.home_redirects, before.home_redirects);
  EXPECT_EQ(after.home_empty, before.home_empty);
  EXPECT_EQ(after.delegate_failures, before.delegate_failures);
  EXPECT_EQ(after.lookup_failures, before.lookup_failures);
  EXPECT_EQ(after.queries_issued,
            env.stats().Total("squirrel.queries_issued"));
}

TEST(SquirrelTest, HomeFailureAbruptlyLosesDirectory) {
  // The paper's central criticism: kill the home node of a hot object and
  // its directory is gone.
  ExperimentConfig config = SmallConfig();
  ExperimentEnv env(config);
  SquirrelSystem system(&env, config.squirrel);
  system.Setup();
  env.sim().RunUntil(2 * kHour);

  // Find the peer with the largest home directory and kill it.
  PeerId victim = kInvalidPeer;
  size_t best = 0;
  for (size_t i = 1; i <= env.universe_size(); ++i) {
    SquirrelPeer* s = system.session(static_cast<PeerId>(i));
    if (s != nullptr && s->directory_entries() > best) {
      best = s->directory_entries();
      victim = static_cast<PeerId>(i);
    }
  }
  ASSERT_NE(victim, kInvalidPeer);
  ASSERT_GT(best, 0u);
  system.InjectFailure(victim);
  // The information is simply gone — no replica anywhere. (The ring heals,
  // but the successor starts with an empty directory for those objects.)
  env.sim().RunUntil(env.sim().now() + 30 * kMinute);
  EXPECT_EQ(system.session(victim), nullptr);
  // The system keeps operating.
  uint64_t queries_before = env.metrics().total_queries();
  env.sim().RunUntil(env.sim().now() + kHour);
  EXPECT_GT(env.metrics().total_queries(), queries_before);
}

TEST(SquirrelTest, JoinHandoffMovesDirectoryEntries) {
  // A freshly joined peer must inherit directory entries for the keys it
  // now owns (Chord key transfer), instead of leaving them stranded.
  ExperimentConfig config = SmallConfig();
  // Stagger arrivals over 4 hours so late joiners land in a warm ring.
  config.arrival_rate_override_per_ms = 60.0 / (4.0 * kHour);
  ExperimentEnv env(config);
  SquirrelSystem system(&env, config.squirrel);
  system.Setup();
  env.sim().RunUntil(config.duration);
  // Aggregate directory entries across lately joined peers: they only have
  // state if handoff (or fresh updates addressed to them) happened. The
  // stronger global signal: the system's hit ratio stayed high through the
  // join churn.
  EXPECT_GT(env.metrics().HitRatio(), 0.4);
}

}  // namespace
}  // namespace flowercdn
