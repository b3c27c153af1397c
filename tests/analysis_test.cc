#include "expt/analysis.h"

#include <gtest/gtest.h>

#include "expt/experiment.h"

namespace flowercdn {
namespace {

TEST(AnalysisTest, SteadyStatePopulationIsLittlesLaw) {
  // λ = P/m  =>  λ * m = P.
  ExperimentConfig config;
  config.target_population = 3000;
  EXPECT_DOUBLE_EQ(analysis::SteadyStatePopulation(config.ArrivalRatePerMs(),
                                                   config.mean_uptime),
                   3000.0);
}

TEST(AnalysisTest, PetalSizeMatchesPaperConfiguration) {
  // P=3000 over 100 websites x 6 localities: 5 peers per petal on average
  // (consistent with the paper's "petal size never surpasses 30").
  ExperimentConfig config;
  config.target_population = 3000;
  EXPECT_DOUBLE_EQ(analysis::ExpectedPetalSize(config), 5.0);
}

TEST(AnalysisTest, ChordHopsGrowLogarithmically) {
  EXPECT_DOUBLE_EQ(analysis::ExpectedChordHops(1), 0.0);
  EXPECT_NEAR(analysis::ExpectedChordHops(600), 4.6, 0.1);
  EXPECT_NEAR(analysis::ExpectedChordHops(3000), 5.8, 0.1);
  EXPECT_LT(analysis::ExpectedChordHops(3000),
            2 * analysis::ExpectedChordHops(64));
}

TEST(AnalysisTest, LookupLatencyEstimateMatchesSquirrelScale) {
  // ~170 ms mean link latency, 3000-node ring: ≈ 1.2 s one-way resolution
  // — the right order for the measured/paper Squirrel lookups (1.5-1.8 s
  // including redirect and retries).
  double est = analysis::ExpectedLookupLatencyMs(3000, 170.0);
  EXPECT_GT(est, 900.0);
  EXPECT_LT(est, 1500.0);
}

TEST(AnalysisTest, StaleDirectoryFractionBounds) {
  // Detection interval = gossip period 1 h, uptime 60 min: directories are
  // stale for a large share of their members' sessions — why query-driven
  // detection (timeouts/NACKs) matters.
  EXPECT_DOUBLE_EQ(
      analysis::ExpectedStaleDirectoryFraction(kHour, 60 * kMinute), 0.5);
  EXPECT_DOUBLE_EQ(
      analysis::ExpectedStaleDirectoryFraction(10 * kMinute, 60 * kMinute),
      10.0 / 120.0);
  EXPECT_DOUBLE_EQ(
      analysis::ExpectedStaleDirectoryFraction(10 * kHour, 60 * kMinute),
      1.0);
}

TEST(AnalysisTest, HitCeilingIncreasesWithPetalSizeAndCache) {
  ZipfDistribution zipf(500, 0.8);
  double small = analysis::PetalHitRatioCeiling(zipf, 2, 10);
  double more_peers = analysis::PetalHitRatioCeiling(zipf, 10, 10);
  double more_cache = analysis::PetalHitRatioCeiling(zipf, 2, 100);
  EXPECT_GT(more_peers, small);
  EXPECT_GT(more_cache, small);
  EXPECT_GE(small, 0.0);
  EXPECT_LE(more_peers, 1.0);
  EXPECT_EQ(analysis::PetalHitRatioCeiling(zipf, 0, 10), 0.0);
}

TEST(AnalysisTest, HitCeilingBoundsSimulatedHitRatio) {
  // Simulated hit ratio must stay below the analytical ceiling computed
  // from the observed cache/petal parameters.
  ExperimentConfig config;
  config.seed = 3;
  config.target_population = 300;
  config.duration = 6 * kHour;
  config.catalog.num_websites = 10;
  config.catalog.num_active = 3;
  config.catalog.objects_per_website = 100;
  ExperimentResult r = RunExperiment(config, SystemKind::kFlowerCdn);

  ZipfDistribution zipf(config.catalog.objects_per_website,
                        config.catalog.zipf_alpha);
  // Generous parameters (identity-universe caches, full petal alive): the
  // ceiling must still be an upper bound.
  double peers_per_petal =
      static_cast<double>(config.UniverseSize()) /
      (config.catalog.num_websites * config.topology.num_localities);
  double ceiling =
      analysis::PetalHitRatioCeiling(zipf, peers_per_petal, 60.0);
  EXPECT_LE(r.hit_ratio, ceiling + 0.05)
      << "simulation beats the analytical ceiling: accounting bug";
}

TEST(AnalysisTest, MaintenanceRatesFavorFlowerPetals) {
  // The paper's overhead argument in closed form: hourly petal gossip is
  // orders of magnitude cheaper than 30 s Chord stabilization.
  double petal = analysis::FlowerPetalMaintenanceRate(kHour);
  ChordNode::Params chord;
  double ring = analysis::ChordMaintenanceRate(chord, 3000);
  EXPECT_LT(petal, 0.01);  // ~0.001 msg/s
  EXPECT_GT(ring, 10 * petal);
}

TEST(AnalysisTest, ChordRoundChargesOneProbeNoNotify) {
  // A lone node: per 30 s round, the successor probe (2 msgs); its finger
  // lookups never leave it. A converged ring sends no notify and no
  // predecessor ping (the predecessor's probe proves it alive), so the
  // model charges neither.
  ChordNode::Params chord;
  EXPECT_DOUBLE_EQ(analysis::ChordMaintenanceRate(chord, 1), 2.0 / 30.0);
}

}  // namespace
}  // namespace flowercdn
