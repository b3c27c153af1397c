#include "obs/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/latency_histogram.h"
#include "sim/types.h"

namespace flowercdn {
namespace {

TEST(StatsRegistryTest, LookupIsIdempotent) {
  SimTime now = 0;
  StatsRegistry registry([&now] { return now; });
  StatsCounter* c = registry.counter("queries");
  EXPECT_EQ(registry.counter("queries"), c);
  EXPECT_EQ(c->name(), "queries");
  EXPECT_EQ(c->total(), 0u);

  StatsGauge* g = registry.gauge("ring_size");
  EXPECT_EQ(registry.gauge("ring_size"), g);
  // Counters and gauges live in separate namespaces.
  EXPECT_NE(registry.counter("ring_size"), nullptr);
}

TEST(StatsRegistryTest, CounterBucketsFollowTheClock) {
  SimTime now = 0;
  StatsRegistry registry([&now] { return now; }, /*bucket=*/100);
  StatsCounter* c = registry.counter("events");

  c->Add();            // bucket 0
  now = 99;
  c->Add(2);           // still bucket 0
  now = 100;
  c->Add();            // bucket 1
  now = 450;
  c->Add(5);           // bucket 4 (buckets 2..3 stay zero)

  EXPECT_EQ(c->total(), 9u);
  ASSERT_EQ(c->series().size(), 5u);
  EXPECT_EQ(c->series()[0], 3u);
  EXPECT_EQ(c->series()[1], 1u);
  EXPECT_EQ(c->series()[2], 0u);
  EXPECT_EQ(c->series()[3], 0u);
  EXPECT_EQ(c->series()[4], 5u);
  EXPECT_EQ(registry.CurrentBucket(), 4u);
}

TEST(StatsRegistryTest, GaugeKeepsLastValuePerBucket) {
  SimTime now = 0;
  StatsRegistry registry([&now] { return now; }, /*bucket=*/10);
  StatsGauge* g = registry.gauge("level");

  g->Set(1.0);
  g->Set(2.0);   // same bucket: overwrites
  now = 25;
  g->Set(7.5);   // bucket 2

  EXPECT_DOUBLE_EQ(g->value(), 7.5);
  ASSERT_EQ(g->series().size(), 3u);
  EXPECT_DOUBLE_EQ(g->series()[0], 2.0);
  EXPECT_DOUBLE_EQ(g->series()[2], 7.5);
}

TEST(StatsRegistryTest, SnapshotsAreSortedByName) {
  SimTime now = 0;
  StatsRegistry registry([&now] { return now; });
  registry.Add("zeta", 3);
  registry.Add("alpha");
  registry.Add("mid", 2);
  registry.Set("z_gauge", 1.0);
  registry.Set("a_gauge", 2.0);

  auto counters = registry.SnapshotCounters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].name, "alpha");
  EXPECT_EQ(counters[1].name, "mid");
  EXPECT_EQ(counters[2].name, "zeta");
  EXPECT_EQ(counters[2].total, 3u);

  auto gauges = registry.SnapshotGauges();
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges[0].name, "a_gauge");
  EXPECT_EQ(gauges[1].name, "z_gauge");
}

TEST(StatsRegistryTest, ConvenienceFormsAccumulate) {
  SimTime now = 0;
  StatsRegistry registry([&now] { return now; });
  registry.Add("n");
  registry.Add("n", 4);
  EXPECT_EQ(registry.counter("n")->total(), 5u);
}

// --- LatencyHistogram: quantiles against exact answers on known inputs ---

// The exact quantile under the histogram's rank rule (floor(q * (n-1))).
uint64_t ExactQuantile(std::vector<uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<size_t>(q * static_cast<double>(samples.size() -
                                                             1))];
}

// Reported quantiles never under-report and stay within `tolerance`
// (relative) of the exact value.
void ExpectQuantilesWithin(const std::vector<uint64_t>& samples,
                           const std::vector<double>& qs, double tolerance) {
  LatencyHistogram h;
  for (uint64_t s : samples) h.Record(s);
  for (double q : qs) {
    const uint64_t exact = ExactQuantile(samples, q);
    const uint64_t got = h.QuantileMicros(q);
    EXPECT_GE(got, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(got - exact),
              tolerance * static_cast<double>(exact))
        << "q=" << q << " exact=" << exact << " got=" << got;
  }
}

TEST(LatencyHistogramTest, PointMassesWithOutlierReportTheirValue) {
  // 100 identical samples plus one slow outlier, so the max cap cannot
  // hide a mis-bucketed median (the old bucketing read 700 us as 2048).
  for (uint64_t micros : {700u, 1500u, 10000u}) {
    std::vector<uint64_t> samples(100, micros);
    samples.push_back(250000);
    ExpectQuantilesWithin(samples, {0.5, 0.9}, 0.03);
  }
}

TEST(LatencyHistogramTest, UniformSpreadQuantiles) {
  std::vector<uint64_t> samples;
  for (uint64_t us = 100; us < 20100; ++us) samples.push_back(us);
  ExpectQuantilesWithin(samples, {0.5, 0.9, 0.99}, 0.03);
}

TEST(LatencyHistogramTest, TwoModeMixtureQuantiles) {
  // 90% fast petal hits around 700 us, 10% origin fetches around 10 ms.
  std::vector<uint64_t> samples;
  for (int i = 0; i < 900; ++i) samples.push_back(650 + i % 100);
  for (int i = 0; i < 100; ++i) samples.push_back(9500 + 10 * i);
  ExpectQuantilesWithin(samples, {0.5, 0.89, 0.95, 0.99}, 0.03);
}

TEST(LatencyHistogramTest, ErrorBoundHoldsAcrossDecades) {
  // Geometric spread from 32 us to ~1 s: every percentile is within one
  // sub-bucket width, i.e. 1/32 of the value.
  std::vector<uint64_t> samples;
  for (int i = 0; i < 4000; ++i) {
    samples.push_back(
        static_cast<uint64_t>(32.0 * std::pow(1.0026, static_cast<double>(i))));
  }
  std::vector<double> qs;
  for (int p = 1; p < 100; ++p) qs.push_back(p / 100.0);
  ExpectQuantilesWithin(samples, qs, 1.0 / LatencyHistogram::kSubBuckets);
}

TEST(LatencyHistogramTest, SmallAndHugeSamples) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(5);
  h.Record(31);
  EXPECT_EQ(h.QuantileMicros(0.0), 1u);   // bucket [0, 1)
  EXPECT_EQ(h.QuantileMicros(0.5), 6u);   // bucket [5, 6)
  EXPECT_EQ(h.QuantileMicros(1.0), 31u);  // capped at the max
  // Past the top decade, samples saturate into the last bucket instead of
  // indexing out of range.
  h.Record(uint64_t{1} << 40);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.QuantileMicros(1.0), uint64_t{1} << 32);
}

}  // namespace
}  // namespace flowercdn
