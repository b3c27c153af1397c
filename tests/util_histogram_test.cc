#include "util/histogram.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace flowercdn {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h(10, 5);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.CdfAt(100), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, BasicStatistics) {
  Histogram h(10, 10);
  for (double v : {5.0, 15.0, 25.0, 35.0}) h.Add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
  EXPECT_DOUBLE_EQ(h.Min(), 5.0);
  EXPECT_DOUBLE_EQ(h.Max(), 35.0);
}

TEST(HistogramTest, CdfAtBucketEdgesIsExact) {
  Histogram h(10, 10);
  // 4 samples in buckets 0,1,2,3.
  for (double v : {5.0, 15.0, 25.0, 35.0}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.CdfAt(10), 0.25);
  EXPECT_DOUBLE_EQ(h.CdfAt(20), 0.50);
  EXPECT_DOUBLE_EQ(h.CdfAt(30), 0.75);
  EXPECT_DOUBLE_EQ(h.CdfAt(40), 1.0);
}

TEST(HistogramTest, OverflowBucketCatchesLargeValues) {
  Histogram h(10, 5);  // covers [0, 50)
  h.Add(1000);
  h.Add(5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(5), 1u);  // overflow slot
  EXPECT_DOUBLE_EQ(h.CdfAt(50), 0.5);
  EXPECT_DOUBLE_EQ(h.CdfAt(2000), 1.0);
}

TEST(HistogramTest, NegativeValuesClampToFirstBucket) {
  Histogram h(10, 5);
  h.Add(-3);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_DOUBLE_EQ(h.Min(), -3.0);
}

TEST(HistogramTest, QuantilesBracketTheData) {
  Histogram h(1, 1000);
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) h.Add(rng.UniformDouble(0, 500));
  // Uniform [0,500): quantiles should be ~q*500.
  EXPECT_NEAR(h.Quantile(0.5), 250, 15);
  EXPECT_NEAR(h.Quantile(0.9), 450, 15);
  EXPECT_NEAR(h.Quantile(0.1), 50, 15);
}

TEST(HistogramTest, CdfIsMonotone) {
  Histogram h(5, 50);
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) h.Add(rng.Exponential(40));
  auto cdf = h.Cdf();
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].cumulative_fraction, cdf[i - 1].cumulative_fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_fraction, 1.0);
}

TEST(HistogramTest, ClearResets) {
  Histogram h(10, 5);
  h.Add(12);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
}

TEST(HistogramMergeTest, PoolsCountsAndMoments) {
  Histogram a(10, 3);  // covers [0, 30) + overflow
  for (double v : {5.0, 15.0}) a.Add(v);
  Histogram b(10, 3);
  for (double v : {25.0, 95.0}) b.Add(v);  // 95 overflows

  ASSERT_TRUE(a.Merge(b));
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 140.0);
  EXPECT_DOUBLE_EQ(a.Mean(), 35.0);
  EXPECT_DOUBLE_EQ(a.Min(), 5.0);
  EXPECT_DOUBLE_EQ(a.Max(), 95.0);
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(1), 1u);
  EXPECT_EQ(a.bucket_count(2), 1u);
  EXPECT_EQ(a.bucket_count(3), 1u);  // overflow slot
}

TEST(HistogramMergeTest, EmptySidesAreIdentity) {
  Histogram a(10, 3);
  a.Add(5.0);
  Histogram empty(10, 3);
  ASSERT_TRUE(a.Merge(empty));
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.Min(), 5.0);

  Histogram c(10, 3);
  ASSERT_TRUE(c.Merge(a));
  EXPECT_EQ(c.count(), 1u);
  EXPECT_DOUBLE_EQ(c.Min(), 5.0);
  EXPECT_DOUBLE_EQ(c.Max(), 5.0);
}

TEST(HistogramMergeTest, GeometryMismatchRejectedUntouched) {
  Histogram a(10, 3);
  a.Add(5.0);
  Histogram wrong_width(20, 3);
  wrong_width.Add(5.0);
  Histogram wrong_buckets(10, 4);
  wrong_buckets.Add(5.0);
  EXPECT_FALSE(a.Merge(wrong_width));
  EXPECT_FALSE(a.Merge(wrong_buckets));
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.sum(), 5.0);
}

}  // namespace
}  // namespace flowercdn
