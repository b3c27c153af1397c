#include <gtest/gtest.h>

#include "expt/env.h"
#include "expt/experiment.h"

namespace flowercdn {
namespace {

ExperimentConfig TinyConfig(uint64_t seed) {
  ExperimentConfig config;
  config.seed = seed;
  config.target_population = 200;
  config.duration = 3 * kHour;
  config.catalog.num_websites = 10;
  config.catalog.num_active = 2;
  config.catalog.objects_per_website = 100;
  return config;
}

TEST(ExperimentEnvTest, IdentityLayoutSeedsInitialDirectories) {
  ExperimentConfig config = TinyConfig(1);
  ExperimentEnv env(config);
  const int k = config.topology.num_localities;
  // First k*|W| identities enumerate every (website, locality) pair.
  for (int ws = 0; ws < config.catalog.num_websites; ++ws) {
    for (int loc = 0; loc < k; ++loc) {
      PeerId id = static_cast<PeerId>(ws * k + loc + 1);
      const auto& identity = env.identity(id);
      EXPECT_EQ(identity.website, static_cast<WebsiteId>(ws));
      EXPECT_EQ(identity.locality, loc);
    }
  }
  EXPECT_GE(env.universe_size(),
            static_cast<size_t>(config.catalog.num_websites) * k);
  EXPECT_EQ(env.universe_size(), config.UniverseSize());
}

TEST(ExperimentEnvTest, UniverseNeverSmallerThanInitialRing) {
  ExperimentConfig config = TinyConfig(1);
  config.target_population = 10;  // smaller than k * |W| = 60
  EXPECT_EQ(config.UniverseSize(), 60u);
}

TEST(ExperimentEnvTest, ArrivalRateKeepsPopulationAtTarget) {
  ExperimentConfig config = TinyConfig(1);
  EXPECT_DOUBLE_EQ(
      config.ArrivalRatePerMs() * static_cast<double>(config.mean_uptime),
      static_cast<double>(config.target_population));
}

TEST(ExperimentTest, SameSeedReproducesExactly) {
  ExperimentResult a = RunExperiment(TinyConfig(7), SystemKind::kFlowerCdn);
  ExperimentResult b = RunExperiment(TinyConfig(7), SystemKind::kFlowerCdn);
  EXPECT_EQ(a.total_queries, b.total_queries);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_DOUBLE_EQ(a.mean_lookup_ms, b.mean_lookup_ms);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.churn_arrivals, b.churn_arrivals);
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  ExperimentResult a = RunExperiment(TinyConfig(7), SystemKind::kFlowerCdn);
  ExperimentResult b = RunExperiment(TinyConfig(8), SystemKind::kFlowerCdn);
  EXPECT_NE(a.messages_sent, b.messages_sent);
}

// Cross-seed invariants of a full experiment — the property sweep.
class ExperimentPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExperimentPropertyTest, FlowerInvariantsHold) {
  ExperimentResult r =
      RunExperiment(TinyConfig(GetParam()), SystemKind::kFlowerCdn);
  EXPECT_LE(r.hits, r.total_queries);
  EXPECT_GE(r.hit_ratio, 0.0);
  EXPECT_LE(r.hit_ratio, 1.0);
  EXPECT_EQ(r.lookup_all.count(), r.total_queries);
  EXPECT_EQ(r.transfer_hits.count(), r.hits);
  EXPECT_LE(r.new_client_queries, r.total_queries);
  EXPECT_GE(r.mean_lookup_ms, 0.0);
  // Population stays near target under the churn model.
  EXPECT_GT(r.final_population, r.target_population / 2);
  EXPECT_LT(r.final_population, r.target_population * 2);
  // Conservation in the time series.
  uint64_t sum = 0;
  for (const auto& b : r.time_series) sum += b.queries;
  EXPECT_EQ(sum, r.total_queries);
}

TEST_P(ExperimentPropertyTest, SquirrelInvariantsHold) {
  ExperimentResult r =
      RunExperiment(TinyConfig(GetParam()), SystemKind::kSquirrel);
  EXPECT_LE(r.hits, r.total_queries);
  EXPECT_LE(r.hit_ratio, 1.0);
  EXPECT_EQ(r.lookup_all.count(), r.total_queries);
  EXPECT_EQ(r.squirrel_stats.home_redirects + r.squirrel_stats.home_empty +
                r.squirrel_stats.lookup_failures,
            0u + r.total_queries)
      << "every query must take exactly one home-resolution path";
  EXPECT_LE(r.squirrel_stats.delegate_failures,
            r.squirrel_stats.home_redirects);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExperimentPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace flowercdn
