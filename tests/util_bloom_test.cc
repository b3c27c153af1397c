#include "util/bloom_filter.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace flowercdn {
namespace {

TEST(BloomFilterTest, EmptyFilterContainsNothing) {
  BloomFilter empty;
  EXPECT_FALSE(empty.MayContain(0));
  EXPECT_FALSE(empty.MayContain(42));
  EXPECT_EQ(empty.bit_count(), 0u);
  empty.Insert(7);  // no-op by contract
  EXPECT_FALSE(empty.MayContain(7));
}

// The defining property: no false negatives, ever.
class BloomPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BloomPropertyTest, NoFalseNegatives) {
  const size_t n = GetParam();
  BloomFilter filter(n, 0.02);
  Rng rng(101 + n);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(rng.Next());
  for (uint64_t k : keys) filter.Insert(k);
  for (uint64_t k : keys) {
    ASSERT_TRUE(filter.MayContain(k)) << "false negative for " << k;
  }
}

TEST_P(BloomPropertyTest, FalsePositiveRateNearTarget) {
  const size_t n = GetParam();
  if (n < 64) return;  // rate only meaningful at scale
  BloomFilter filter(n, 0.02);
  Rng rng(7 + n);
  for (size_t i = 0; i < n; ++i) filter.Insert(rng.Next());
  int fp = 0;
  const int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i) fp += filter.MayContain(rng.Next());
  double rate = fp / static_cast<double>(kProbes);
  EXPECT_LT(rate, 0.05) << "false-positive rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Sizes, BloomPropertyTest,
                         ::testing::Values(1, 10, 64, 500, 5000));

TEST(BloomFilterTest, UnionIsSupersetOfBoth) {
  BloomFilter a(100, 0.01), b(100, 0.01);
  for (uint64_t k = 0; k < 50; ++k) a.Insert(k);
  for (uint64_t k = 50; k < 100; ++k) b.Insert(k);
  ASSERT_TRUE(a.UnionWith(b).ok());
  for (uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(a.MayContain(k));
}

TEST(BloomFilterTest, UnionRejectsMismatchedGeometry) {
  BloomFilter a(100, 0.01), b(5000, 0.01);
  EXPECT_EQ(a.UnionWith(b).code(), StatusCode::kInvalidArgument);
}

TEST(BloomFilterTest, UnionWithEmptyIsNoOp) {
  BloomFilter a(100, 0.01);
  a.Insert(3);
  BloomFilter empty;
  ASSERT_TRUE(a.UnionWith(empty).ok());
  EXPECT_TRUE(a.MayContain(3));
}

TEST(BloomFilterTest, ClearEmptiesTheFilter) {
  BloomFilter a(100, 0.01);
  for (uint64_t k = 0; k < 100; ++k) a.Insert(k);
  EXPECT_GT(a.FillRatio(), 0.0);
  a.Clear();
  EXPECT_EQ(a.FillRatio(), 0.0);
  EXPECT_EQ(a.inserted_count(), 0u);
  EXPECT_FALSE(a.MayContain(3));
}

TEST(BloomFilterTest, FillRatioGrowsWithInsertions) {
  BloomFilter a(1000, 0.02);
  double prev = a.FillRatio();
  Rng rng(55);
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 200; ++i) a.Insert(rng.Next());
    double now = a.FillRatio();
    EXPECT_GT(now, prev);
    prev = now;
  }
  EXPECT_LT(prev, 1.0);
}

}  // namespace
}  // namespace flowercdn
