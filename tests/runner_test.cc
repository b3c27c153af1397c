// Unit tests for the src/runner subsystem: seed derivation, sweep parsing
// and expansion, aggregation math against hand-computed values, and JSON
// structure. The end-to-end jobs=1 vs jobs=N bit-identity test lives in
// runner_determinism_test.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "runner/aggregate.h"
#include "runner/json_export.h"
#include "runner/seed.h"
#include "runner/sweep.h"
#include "runner/trial_runner.h"

namespace flowercdn {
namespace {

// --- Seeds -----------------------------------------------------------------

TEST(SeedTest, SplitMix64MatchesReferenceStream) {
  // First output of the canonical splitmix64 with state 0 (Vigna's
  // reference implementation).
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafULL);
}

TEST(SeedTest, TrialSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(DeriveTrialSeed(42, 0), DeriveTrialSeed(42, 0));
  EXPECT_NE(DeriveTrialSeed(42, 0), DeriveTrialSeed(42, 1));
  EXPECT_NE(DeriveTrialSeed(42, 0), DeriveTrialSeed(43, 0));
  EXPECT_NE(DeriveTrialSeed(42, 0), 0u);
  // A pure function of its inputs only: a whole fleet of trials never
  // collides within any realistic trial count.
  for (uint64_t i = 0; i < 100; ++i) {
    for (uint64_t j = i + 1; j < 100; ++j) {
      EXPECT_NE(DeriveTrialSeed(7, i), DeriveTrialSeed(7, j));
    }
  }
}

// --- MetricSummary ---------------------------------------------------------

TEST(MetricSummaryTest, HandComputedMoments) {
  // Samples {1,2,3,4}: mean 2.5, sample variance 5/3, t(df=3) = 3.182.
  MetricSummary s = MetricSummary::FromSamples({1, 2, 3, 4});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(5.0 / 3.0));
  EXPECT_NEAR(s.ci95_half, 3.182 * std::sqrt(5.0 / 3.0) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(MetricSummaryTest, TwoSamples) {
  // {0.4, 0.6}: mean 0.5, stddev sqrt(0.02), t(df=1) = 12.706.
  MetricSummary s = MetricSummary::FromSamples({0.4, 0.6});
  EXPECT_DOUBLE_EQ(s.mean, 0.5);
  EXPECT_NEAR(s.stddev, std::sqrt(0.02), 1e-12);
  EXPECT_NEAR(s.ci95_half, 12.706 * std::sqrt(0.02) / std::sqrt(2.0), 1e-9);
}

TEST(MetricSummaryTest, DegenerateSizes) {
  MetricSummary empty = MetricSummary::FromSamples({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);

  MetricSummary one = MetricSummary::FromSamples({7.5});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 7.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.ci95_half, 0.0);  // no spread estimate from n=1
  EXPECT_DOUBLE_EQ(one.min, 7.5);
  EXPECT_DOUBLE_EQ(one.max, 7.5);
}

TEST(StudentTTest, TableValues) {
  EXPECT_DOUBLE_EQ(StudentT95(0), 0.0);
  EXPECT_DOUBLE_EQ(StudentT95(1), 12.706);
  EXPECT_DOUBLE_EQ(StudentT95(3), 3.182);
  EXPECT_DOUBLE_EQ(StudentT95(30), 2.042);
  EXPECT_DOUBLE_EQ(StudentT95(31), 1.960);
  EXPECT_DOUBLE_EQ(StudentT95(1000), 1.960);
}

// --- Aggregate -------------------------------------------------------------

ExperimentResult FakeResult(double hit_ratio, double lookup_ms,
                            std::vector<double> cumulative) {
  ExperimentResult r;
  r.system = SystemKind::kFlowerCdn;
  r.target_population = 500;
  r.hit_ratio = hit_ratio;
  r.mean_lookup_ms = lookup_ms;
  r.total_queries = 1000;
  r.cumulative_hit_ratio = std::move(cumulative);
  return r;
}

TEST(AggregateTest, HandComputedHeadlineStats) {
  ExperimentResult a = FakeResult(0.4, 100, {0.1, 0.2});
  a.lookup_hits.Add(50);
  a.lookup_hits.Add(150);
  ExperimentResult b = FakeResult(0.6, 200, {0.3});
  b.lookup_hits.Add(250);

  AggregateResult agg = Aggregate({a, b});
  EXPECT_EQ(agg.trials, 2u);
  EXPECT_EQ(agg.system, SystemKind::kFlowerCdn);
  EXPECT_EQ(agg.target_population, 500u);

  EXPECT_DOUBLE_EQ(agg.hit_ratio.mean, 0.5);
  EXPECT_NEAR(agg.hit_ratio.stddev, std::sqrt(0.02), 1e-12);
  EXPECT_DOUBLE_EQ(agg.mean_lookup_ms.mean, 150.0);
  EXPECT_DOUBLE_EQ(agg.total_queries.mean, 1000.0);
  EXPECT_DOUBLE_EQ(agg.total_queries.stddev, 0.0);

  // Histogram pooled across trials: 3 samples, mean (50+150+250)/3.
  EXPECT_EQ(agg.lookup_hits.count(), 3u);
  EXPECT_DOUBLE_EQ(agg.lookup_hits.Mean(), 150.0);

  // Pointwise time series: hour 1 has both trials, hour 2 only trial a.
  ASSERT_EQ(agg.cumulative_hit_ratio.size(), 2u);
  EXPECT_EQ(agg.cumulative_hit_ratio[0].n, 2u);
  EXPECT_DOUBLE_EQ(agg.cumulative_hit_ratio[0].mean, 0.2);
  EXPECT_EQ(agg.cumulative_hit_ratio[1].n, 1u);
  EXPECT_DOUBLE_EQ(agg.cumulative_hit_ratio[1].mean, 0.2);
}

TEST(AggregateTest, SingleTrialHasNoSpread) {
  AggregateResult agg = Aggregate({FakeResult(0.5, 120, {0.5})});
  EXPECT_EQ(agg.trials, 1u);
  EXPECT_DOUBLE_EQ(agg.hit_ratio.mean, 0.5);
  EXPECT_DOUBLE_EQ(agg.hit_ratio.ci95_half, 0.0);
}

// --- SweepSpec -------------------------------------------------------------

TEST(SweepSpecTest, ParsesFullSpec) {
  ExperimentConfig base;
  Result<SweepSpec> r = SweepSpec::Parse(
      "population=100,200;system=flower,squirrel;trials=3;zipf=0.7;"
      "uptime-min=30;seed=7;hours=2",
      base);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SweepSpec& s = *r;
  EXPECT_EQ(s.populations, (std::vector<size_t>{100, 200}));
  ASSERT_EQ(s.systems.size(), 2u);
  EXPECT_EQ(s.systems[0].kind, SystemKind::kFlowerCdn);
  EXPECT_EQ(s.systems[1].kind, SystemKind::kSquirrel);
  EXPECT_EQ(s.trials, 3u);
  EXPECT_EQ(s.base_seed, 7u);
  EXPECT_EQ(s.base.duration, 2 * kHour);
  ASSERT_EQ(s.zipf_alphas.size(), 1u);
  EXPECT_DOUBLE_EQ(s.zipf_alphas[0], 0.7);
  ASSERT_EQ(s.mean_uptimes.size(), 1u);
  EXPECT_EQ(s.mean_uptimes[0], 30 * kMinute);
  EXPECT_EQ(s.NumCells(), 4u);
}

TEST(SweepSpecTest, EmptySpecKeepsBase) {
  ExperimentConfig base;
  base.seed = 99;
  Result<SweepSpec> r = SweepSpec::Parse("", base);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->base_seed, 99u);
  EXPECT_EQ(r->trials, 1u);
  EXPECT_EQ(r->NumCells(), 1u);
}

TEST(SweepSpecTest, RejectsMalformedSpecs) {
  ExperimentConfig base;
  EXPECT_FALSE(SweepSpec::Parse("bogus-key=1", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("population", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("population=", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("population=abc", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("system=ipfs", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("trials=0", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("trials=2,3", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("uptime-min=0", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("hours=0", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("hours=-1", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("hours=nan", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("hours=1,2", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("population=2.5", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("seed=-1", base).ok());
  EXPECT_FALSE(SweepSpec::Parse("zipf=-0.1", base).ok());
}

TEST(SweepSpecTest, SeedTakesFullUint64Range) {
  ExperimentConfig base;
  Result<SweepSpec> r = SweepSpec::Parse("seed=17532488217563185893", base);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->base_seed, 17532488217563185893ULL);
}

TEST(SweepSpecTest, AcceptsFractionalHours) {
  ExperimentConfig base;
  Result<SweepSpec> r = SweepSpec::Parse("hours=0.25", base);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->base.duration, 15 * kMinute);
}

TEST(ParseWholeTest, RangeAndRejections) {
  EXPECT_EQ(*ParseWhole("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(*ParseWhole("10", 1, 10), 10u);
  for (const char* bad : {"", "0", "11", "-1", "+1", " 1", "1.5", "abc"}) {
    EXPECT_FALSE(ParseWhole(bad, 1, 10).ok()) << bad;
  }
  EXPECT_FALSE(ParseWhole("18446744073709551616", 0, UINT64_MAX).ok());
}

TEST(ParseDecimalTest, FiniteAndBounded) {
  EXPECT_DOUBLE_EQ(*ParseDecimal("0.8", 0), 0.8);
  for (const char* bad : {"", "-0.1", "abc", "nan", "inf", "1x"}) {
    EXPECT_FALSE(ParseDecimal(bad, 0).ok()) << bad;
  }
}

TEST(ParseDurationTest, DecimalUnitsAndRejections) {
  EXPECT_EQ(*ParseDuration("0.25", kHour), 15 * kMinute);
  EXPECT_EQ(*ParseDuration("24", kHour), 24 * kHour);
  EXPECT_EQ(*ParseDuration("1.5", kMinute), 90 * kSecond);
  for (const char* bad : {"", "0", "-2", "abc", "1h", "nan", "inf", "1e-9"}) {
    EXPECT_FALSE(ParseDuration(bad, kHour).ok()) << bad;
  }
}

TEST(SweepSpecTest, ExpandIsCellMajorWithDerivedSeeds) {
  ExperimentConfig base;
  Result<SweepSpec> r = SweepSpec::Parse(
      "population=100,200;system=flower,squirrel;trials=2;seed=7", base);
  ASSERT_TRUE(r.ok());
  std::vector<TrialJob> jobs = r->Expand();
  // 2 populations x 2 systems x 2 trials, cell-major.
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].cell, 0u);
  EXPECT_EQ(jobs[0].trial, 0u);
  EXPECT_EQ(jobs[1].cell, 0u);
  EXPECT_EQ(jobs[1].trial, 1u);
  EXPECT_EQ(jobs[2].cell, 1u);
  EXPECT_EQ(jobs.back().cell, 3u);

  // Population is the outer dimension; system the inner.
  EXPECT_EQ(jobs[0].config.target_population, 100u);
  EXPECT_EQ(jobs[0].kind, SystemKind::kFlowerCdn);
  EXPECT_EQ(jobs[2].kind, SystemKind::kSquirrel);
  EXPECT_EQ(jobs[4].config.target_population, 200u);

  // Labels name only swept dimensions (population), plus the system.
  EXPECT_EQ(jobs[0].label, "flower/P=100");
  EXPECT_EQ(jobs[6].label, "squirrel/P=200");

  // Seeds derive from (base seed, trial) — equal across cells, distinct
  // across trials, so paired system comparisons share workloads.
  EXPECT_EQ(jobs[0].config.seed, DeriveTrialSeed(7, 0));
  EXPECT_EQ(jobs[1].config.seed, DeriveTrialSeed(7, 1));
  EXPECT_EQ(jobs[2].config.seed, jobs[0].config.seed);
}

TEST(SweepSpecTest, HomestoreSetsSquirrelMode) {
  ExperimentConfig base;
  Result<SweepSpec> r = SweepSpec::Parse("system=squirrel-homestore", base);
  ASSERT_TRUE(r.ok());
  std::vector<TrialJob> jobs = r->Expand();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].kind, SystemKind::kSquirrel);
  EXPECT_EQ(jobs[0].config.squirrel.mode, SquirrelMode::kHomeStore);
}

// --- JSON ------------------------------------------------------------------

TEST(JsonWriterTest, WritesWellFormedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("name").Value("a \"quoted\"\nvalue");
  w.Key("pi").Value(3.5);
  w.Key("n").Value(uint64_t{7});
  w.Key("flag").Value(true);
  w.Key("list").BeginArray().Value(1.0).Value(2.0).EndArray();
  w.Key("nested").BeginObject().Key("x").Value(uint64_t{1}).EndObject();
  w.EndObject();
  EXPECT_EQ(os.str(),
            "{\"name\":\"a \\\"quoted\\\"\\nvalue\",\"pi\":3.5,\"n\":7,"
            "\"flag\":true,\"list\":[1,2],\"nested\":{\"x\":1}}");
}

TEST(JsonExportTest, SweepDocumentShape) {
  CellResult cell;
  cell.label = "flower";
  cell.kind = SystemKind::kFlowerCdn;
  cell.config.target_population = 500;
  cell.trials = {FakeResult(0.4, 100, {0.1}), FakeResult(0.6, 200, {0.3})};
  cell.aggregate = Aggregate(cell.trials);

  std::string json = SweepJsonString(42, {cell}, /*include_trials=*/true);
  EXPECT_NE(json.find("\"schema\":\"flowercdn-runner/v5\""),
            std::string::npos);
  EXPECT_NE(json.find("\"base_seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"flower\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_ratio\":{\"n\":2,\"mean\":0.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"trial_results\":["), std::string::npos);
  // v2 additions: per-trial overhead/overlay sections and p99 quantiles.
  EXPECT_NE(json.find("\"overhead\":{"), std::string::npos);
  EXPECT_NE(json.find("\"families\":{\"chord\":{"), std::string::npos);
  EXPECT_NE(json.find("\"overlay\":["), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // v3 additions: injected-loss family, rpc cancellation counter, and an
  // always-present per-trial chaos section (disabled on fault-free runs).
  EXPECT_NE(json.find("\"injected_loss\":{"), std::string::npos);
  EXPECT_NE(json.find("\"rpc_cancelled\":"), std::string::npos);
  EXPECT_NE(json.find("\"chaos\":{\"enabled\":false}"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"\""), std::string::npos);
  // v4 additions: the cell's byte-accounting mode and a dedicated traffic
  // family for transport NACKs.
  EXPECT_NE(json.find("\"wire_mode\":\"modeled\""), std::string::npos);
  EXPECT_NE(json.find("\"nack\":{"), std::string::npos);
  // v5 addition: the cell's directory replication factor.
  EXPECT_NE(json.find("\"replication\":1"), std::string::npos);

  std::string no_trials = SweepJsonString(42, {cell}, false);
  EXPECT_EQ(no_trials.find("\"trial_results\""), std::string::npos);
  EXPECT_LT(no_trials.size(), json.size());
}

// v5: a chaos cell where no killed directory was ever replaced must export
// a literal null aggregate latency, never a fake 0 ms summary, which read
// as an instant replacement for Squirrel cells (no directories to kill).
TEST(JsonExportTest, UnreplacedKillExportsNullLatency) {
  CellResult cell;
  cell.label = "squirrel/faults";
  cell.kind = SystemKind::kSquirrel;
  ExperimentResult r = FakeResult(0.4, 100, {0.1});
  r.chaos.enabled = true;
  ChaosReport::DirectoryKill kill;
  kill.website = 0;
  kill.locality = 0;
  kill.had_directory = true;
  kill.replacement_latency_ms = -1;  // never replaced by run end
  r.chaos.directory_kills.push_back(kill);
  cell.trials = {r};
  cell.aggregate = Aggregate(cell.trials);

  EXPECT_EQ(cell.aggregate.chaos_replacement_latency_ms.n, 0u);
  std::string json = SweepJsonString(42, {cell}, /*include_trials=*/false);
  EXPECT_NE(json.find("\"replacement_latency_ms\":null"), std::string::npos);

  // And once a kill IS replaced, the summary carries the real latency.
  cell.trials[0].chaos.directory_kills[0].replacement_latency_ms = 30000.0;
  cell.aggregate = Aggregate(cell.trials);
  EXPECT_EQ(cell.aggregate.chaos_replacement_latency_ms.n, 1u);
  EXPECT_DOUBLE_EQ(cell.aggregate.chaos_replacement_latency_ms.mean, 30000.0);
  json = SweepJsonString(42, {cell}, /*include_trials=*/false);
  EXPECT_EQ(json.find("\"replacement_latency_ms\":null"), std::string::npos);
  EXPECT_NE(json.find("\"replacement_latency_ms\":{\"n\":1,\"mean\":30000"),
            std::string::npos);
}

// --- TrialRunner (pure ordering properties; sims are tiny) ----------------

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.target_population = 120;
  config.duration = 1 * kHour;
  config.catalog.num_websites = 8;
  config.catalog.num_active = 2;
  config.catalog.objects_per_website = 50;
  return config;
}

TEST(TrialRunnerTest, ResultsLandAtJobIndex) {
  ExperimentConfig config = TinyConfig();
  std::vector<TrialJob> jobs;
  for (size_t t = 0; t < 2; ++t) {
    TrialJob job;
    job.config = config;
    job.config.seed = DeriveTrialSeed(5, t);
    job.kind = t == 0 ? SystemKind::kFlowerCdn : SystemKind::kSquirrel;
    job.cell = t;
    job.label = t == 0 ? "flower" : "squirrel";
    jobs.push_back(job);
  }
  TrialRunner runner(TrialRunner::Options{2});
  std::vector<ExperimentResult> results = runner.Run(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].system, SystemKind::kFlowerCdn);
  EXPECT_EQ(results[1].system, SystemKind::kSquirrel);
  EXPECT_GT(results[0].total_queries, 0u);
  EXPECT_GT(results[1].total_queries, 0u);
}

TEST(TrialRunnerTest, EffectiveJobsClampsToBatch) {
  TrialRunner eight(TrialRunner::Options{8});
  EXPECT_EQ(eight.EffectiveJobs(3), 3u);
  EXPECT_EQ(eight.EffectiveJobs(100), 8u);
  TrialRunner one(TrialRunner::Options{1});
  EXPECT_EQ(one.EffectiveJobs(100), 1u);
  TrialRunner hw(TrialRunner::Options{0});
  EXPECT_GE(hw.EffectiveJobs(100), 1u);
}

TEST(TrialRunnerTest, ProgressReportsEveryJobOnce) {
  ExperimentConfig config = TinyConfig();
  std::vector<TrialJob> jobs;
  for (size_t t = 0; t < 3; ++t) {
    TrialJob job;
    job.config = config;
    job.config.seed = DeriveTrialSeed(5, t);
    job.cell = 0;
    job.trial = t;
    job.label = "flower";
    jobs.push_back(job);
  }
  std::vector<size_t> done_counts;
  TrialRunner runner(TrialRunner::Options{2});
  std::vector<CellResult> cells = RunCells(
      runner, jobs, [&](const TrialJob&, size_t done, size_t total) {
        EXPECT_EQ(total, 3u);
        done_counts.push_back(done);
      });
  EXPECT_EQ(done_counts.size(), 3u);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].trials.size(), 3u);
  EXPECT_EQ(cells[0].aggregate.trials, 3u);
  EXPECT_EQ(cells[0].label, "flower");
}

// A quarter-hour cell (the committed 100k x 0.25 h kernel point) runs and
// exports its exact duration; whole-hour cells keep the integer layout.
TEST(TrialRunnerTest, QuarterHourCellRunsAndExportsDecimalHours) {
  ExperimentConfig base = TinyConfig();
  Result<SweepSpec> spec = SweepSpec::Parse("hours=0.25", base);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  TrialRunner runner(TrialRunner::Options{1});
  std::vector<CellResult> cells = RunCells(runner, spec->Expand());
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_EQ(cells[0].trials.size(), 1u);
  EXPECT_EQ(cells[0].config.duration, 15 * kMinute);
  EXPECT_GT(cells[0].trials[0].events_processed, 0u);
  EXPECT_GT(cells[0].trials[0].final_population, 0u);

  std::string json = SweepJsonString(spec->base_seed, cells, false);
  EXPECT_NE(json.find("\"hours\":0.25,"), std::string::npos);

  cells[0].config.duration = 2 * kHour;
  json = SweepJsonString(spec->base_seed, cells, false);
  EXPECT_NE(json.find("\"hours\":2,"), std::string::npos);
}

}  // namespace
}  // namespace flowercdn
