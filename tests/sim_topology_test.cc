#include "sim/topology.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "util/hash.h"
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

// Known values, printed with %a from the model as first written (each
// endpoint's jitter key rebuilt on every call): the keyed form must not
// move a single bit.
TEST(TopologyTest, LatencyMatchesKnownValues) {
  Topology topo(DefaultParams());
  struct Case {
    Coord a, b;
    double want;
  };
  const Case cases[] = {
      // Intra-locality: both near landmark 0 at (1, 0).
      {{0.9, 0.1}, {1.1, -0.2}, 0x1.abd8e89cb811dp+5},
      // Inter-locality: landmark 0 to near landmark 2.
      {{1.0, 0.0}, {-0.5, 0.866}, 0x1.8ac96ad519dbp+7},
      {{0.25, -0.5}, {-0.75, 0.25}, 0x1.61ebb38a4360bp+7},
      // Clamped at kMinLatencyMs: 1 ms plane gap, jitter below 1.
      {{0.5, 0.5}, {0.501, 0.5}, 10.0},
      // Clamped at kMaxLatencyMs: 6 plane units apart.
      {{-3.0, 0.0}, {3.0, 0.0}, 500.0},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(topo.LatencyMs(c.a, c.b), c.want) << c.a.x << "," << c.a.y;
    EXPECT_EQ(topo.LatencyMs(c.b, c.a), c.want) << c.a.x << "," << c.a.y;
  }
}

// The keyed overload is the same function: for 10k placed pairs it returns
// LatencyMs(a, b) bit for bit, and the bits of all 10k latencies fold to
// the digest the first-written model printed for this draw.
TEST(TopologyTest, KeyedLatencyIsBitIdentical) {
  Topology topo(DefaultParams());
  Rng rng(2026);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 10000; ++i) {
    Coord a = topo.PlaceInLocality(static_cast<int>(rng.NextBounded(6)), rng);
    Coord b = topo.PlaceInLocality(static_cast<int>(rng.NextBounded(6)), rng);
    double plain = topo.LatencyMs(a, b);
    double keyed =
        topo.LatencyMs(a, Topology::PointKey(a), b, Topology::PointKey(b));
    uint64_t plain_bits, keyed_bits;
    std::memcpy(&plain_bits, &plain, sizeof plain);
    std::memcpy(&keyed_bits, &keyed, sizeof keyed);
    ASSERT_EQ(keyed_bits, plain_bits) << "pair " << i;
    digest = HashCombine(digest, plain_bits);
  }
  EXPECT_EQ(digest, 0x96d40f01ab18b6c7ULL);
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
