#include "sim/topology.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace flowercdn {
namespace {

Topology::Params DefaultParams() { return Topology::Params{}; }

TEST(TopologyTest, LandmarksAreDistinct) {
  Topology topo(DefaultParams());
  for (int i = 0; i < topo.num_localities(); ++i) {
    for (int j = i + 1; j < topo.num_localities(); ++j) {
      Coord a = topo.landmark(i), b = topo.landmark(j);
      EXPECT_TRUE(a.x != b.x || a.y != b.y);
    }
  }
}

TEST(TopologyTest, ZeroDistanceForIdenticalPoints) {
  Topology topo(DefaultParams());
  Coord c{0.3, 0.4};
  EXPECT_EQ(topo.LatencyMs(c, c), 0.0);
}

TEST(TopologyTest, LatencySymmetric) {
  Topology topo(DefaultParams());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Coord a{rng.UniformDouble(-1, 1), rng.UniformDouble(-1, 1)};
    Coord b{rng.UniformDouble(-1, 1), rng.UniformDouble(-1, 1)};
    EXPECT_DOUBLE_EQ(topo.LatencyMs(a, b), topo.LatencyMs(b, a));
  }
}

TEST(TopologyTest, LatencyWithinConfiguredBounds) {
  Topology topo(DefaultParams());
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    Coord a{rng.UniformDouble(-1.5, 1.5), rng.UniformDouble(-1.5, 1.5)};
    Coord b{rng.UniformDouble(-1.5, 1.5), rng.UniformDouble(-1.5, 1.5)};
    if (a.x == b.x && a.y == b.y) continue;
    double l = topo.LatencyMs(a, b);
    EXPECT_GE(l, Topology::kMinLatencyMs);
    EXPECT_LE(l, Topology::kMaxLatencyMs);
  }
}

TEST(TopologyTest, LatencyIsDeterministic) {
  Topology topo(DefaultParams());
  Coord a{0.1, 0.2}, b{-0.7, 0.5};
  double first = topo.LatencyMs(a, b);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(topo.LatencyMs(a, b), first);
}

// Placement must land a peer in the locality it was placed into (modulo the
// Gaussian tail, so check a high success fraction, not all).
class TopologyLocalityTest : public ::testing::TestWithParam<int> {};

TEST_P(TopologyLocalityTest, PlacementRecoversLocality) {
  Topology topo(DefaultParams());
  const LocalityId loc = GetParam();
  Rng rng(11 + loc);
  int recovered = 0;
  const int kDraws = 500;
  for (int i = 0; i < kDraws; ++i) {
    Coord c = topo.PlaceInLocality(loc, rng);
    recovered += topo.LocalityOf(c) == loc;
  }
  // Clusters deliberately overlap a little (weakly separated localities,
  // as the paper's latency profile implies), so recovery is strong but
  // not perfect.
  EXPECT_GT(recovered, kDraws * 3 / 4);
}

INSTANTIATE_TEST_SUITE_P(AllLocalities, TopologyLocalityTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(TopologyTest, IntraLocalityFasterThanInterLocality) {
  Topology topo(DefaultParams());
  Rng rng(13);
  double intra_sum = 0, inter_sum = 0;
  const int kPairs = 500;
  for (int i = 0; i < kPairs; ++i) {
    Coord a = topo.PlaceInLocality(0, rng);
    Coord b = topo.PlaceInLocality(0, rng);
    Coord c = topo.PlaceInLocality(3, rng);
    intra_sum += topo.LatencyMs(a, b);
    inter_sum += topo.LatencyMs(a, c);
  }
  EXPECT_LT(intra_sum / kPairs, inter_sum / kPairs / 2.0)
      << "locality structure too weak";
}

TEST(TopologyTest, RandomPairMeanLatencyNearPaperCalibration) {
  // The topology is calibrated so that a random cross-network pair
  // averages roughly the paper's Squirrel transfer distance (~165 ms).
  Topology topo(DefaultParams());
  Rng rng(17);
  double sum = 0;
  const int kPairs = 3000;
  for (int i = 0; i < kPairs; ++i) {
    Coord a = topo.PlaceInLocality(static_cast<int>(rng.NextBounded(6)), rng);
    Coord b = topo.PlaceInLocality(static_cast<int>(rng.NextBounded(6)), rng);
    sum += topo.LatencyMs(a, b);
  }
  double mean = sum / kPairs;
  EXPECT_GT(mean, 120.0);
  EXPECT_LT(mean, 220.0);
}

TEST(TopologyTest, SingleLocalityDegenerate) {
  Topology::Params params;
  params.num_localities = 1;
  Topology topo(params);
  Rng rng(19);
  Coord c = topo.PlaceInLocality(0, rng);
  EXPECT_EQ(topo.LocalityOf(c), 0);
}

}  // namespace
}  // namespace flowercdn
