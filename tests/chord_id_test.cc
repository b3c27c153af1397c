#include "chord/id.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chord/finger_table.h"
#include "util/random.h"

namespace flowercdn {
namespace {

TEST(ChordIdTest, OpenClosedBasic) {
  EXPECT_TRUE(InIntervalOpenClosed(5, 1, 10));
  EXPECT_TRUE(InIntervalOpenClosed(10, 1, 10));   // closed at b
  EXPECT_FALSE(InIntervalOpenClosed(1, 1, 10));   // open at a
  EXPECT_FALSE(InIntervalOpenClosed(11, 1, 10));
  EXPECT_FALSE(InIntervalOpenClosed(0, 1, 10));
}

TEST(ChordIdTest, OpenClosedWrapsAroundZero) {
  const ChordId a = ~ChordId{0} - 5;  // near the top
  const ChordId b = 5;
  EXPECT_TRUE(InIntervalOpenClosed(~ChordId{0}, a, b));
  EXPECT_TRUE(InIntervalOpenClosed(0, a, b));
  EXPECT_TRUE(InIntervalOpenClosed(5, a, b));
  EXPECT_FALSE(InIntervalOpenClosed(a, a, b));
  EXPECT_FALSE(InIntervalOpenClosed(6, a, b));
  EXPECT_FALSE(InIntervalOpenClosed(100, a, b));
}

TEST(ChordIdTest, FullCircleConvention) {
  // (a, a] covers the whole ring: a single node owns every key.
  EXPECT_TRUE(InIntervalOpenClosed(0, 7, 7));
  EXPECT_TRUE(InIntervalOpenClosed(7, 7, 7));
  EXPECT_TRUE(InIntervalOpenClosed(~ChordId{0}, 7, 7));
  // (a, a) is everything except a.
  EXPECT_TRUE(InIntervalOpenOpen(8, 7, 7));
  EXPECT_FALSE(InIntervalOpenOpen(7, 7, 7));
}

TEST(ChordIdTest, OpenOpenBasic) {
  EXPECT_TRUE(InIntervalOpenOpen(5, 1, 10));
  EXPECT_FALSE(InIntervalOpenOpen(10, 1, 10));
  EXPECT_FALSE(InIntervalOpenOpen(1, 1, 10));
  EXPECT_TRUE(InIntervalOpenOpen(0, 10, 1));  // wrapped
}

// Exhaustive property check on a tiny ring: the interval predicates agree
// with walking clockwise.
TEST(ChordIdTest, ExhaustiveAgreementWithClockwiseWalk) {
  const int kMod = 16;
  for (int a = 0; a < kMod; ++a) {
    for (int b = 0; b < kMod; ++b) {
      for (int x = 0; x < kMod; ++x) {
        // Walk clockwise from a (exclusive) to b (inclusive).
        bool expected = false;
        if (a == b) {
          expected = true;
        } else {
          for (int step = (a + 1) % kMod;; step = (step + 1) % kMod) {
            if (step == x) {
              expected = true;
              break;
            }
            if (step == b) break;
          }
          // x == b must count.
          if (x == b) expected = true;
        }
        // Map onto 64-bit ids spread over the circle.
        auto spread = [](int v) {
          return static_cast<ChordId>(
              (static_cast<__uint128_t>(v) << 64) / 16);
        };
        EXPECT_EQ(InIntervalOpenClosed(spread(x), spread(a), spread(b)),
                  expected)
            << "a=" << a << " b=" << b << " x=" << x;
      }
    }
  }
}

TEST(ChordIdTest, RingDistanceWraps) {
  EXPECT_EQ(RingDistance(10, 15), 5u);
  EXPECT_EQ(RingDistance(15, 10), ~ChordId{0} - 4);  // the long way round
  EXPECT_EQ(RingDistance(7, 7), 0u);
}

TEST(ChordIdTest, HashIsStable) {
  EXPECT_EQ(ChordHash("http://ws1.example/obj3"),
            ChordHash("http://ws1.example/obj3"));
  EXPECT_NE(ChordHash("a"), ChordHash("b"));
}

// --- Finger table -------------------------------------------------------------

TEST(FingerTableTest, TargetsAreIncreasingPowers) {
  FingerTable fingers(/*self=*/1000, /*count=*/20);
  for (int j = 1; j < fingers.size(); ++j) {
    EXPECT_EQ(RingDistance(1000, fingers.TargetOf(j)),
              2 * RingDistance(1000, fingers.TargetOf(j - 1)));
  }
  EXPECT_EQ(RingDistance(1000, fingers.TargetOf(19)), ChordId{1} << 63);
}

TEST(FingerTableTest, SetAndRemovePeer) {
  FingerTable fingers(0, 8);
  fingers.Set(0, RingPeer{10, fingers.TargetOf(0) + 1});
  fingers.Set(3, RingPeer{10, fingers.TargetOf(3) + 1});
  fingers.Set(5, RingPeer{11, fingers.TargetOf(5) + 1});
  EXPECT_EQ(fingers.populated(), 3);
  EXPECT_EQ(fingers.RemovePeer(10), 2);
  EXPECT_EQ(fingers.populated(), 1);
  EXPECT_FALSE(fingers.entry(0).has_value());
  EXPECT_TRUE(fingers.entry(5).has_value());
  // kInvalidPeer marks an empty slot; it is never an entry to remove.
  EXPECT_EQ(fingers.RemovePeer(kInvalidPeer), 0);
  EXPECT_EQ(fingers.populated(), 1);
}

TEST(FingerTableDeathTest, SetOfTheEmptyMarkerDies) {
  FingerTable fingers(0, 8);
  EXPECT_DEATH(fingers.Set(0, RingPeer{kInvalidPeer, 1}),
               "Check failed: peer.peer != kInvalidPeer");
}

TEST(FingerTableTest, ClosestPrecedingScansHighToLow) {
  const ChordId self = 0;
  FingerTable fingers(self, 20);
  // Entries at increasing distances.
  RingPeer near{1, ChordId{1} << 45};
  RingPeer mid{2, ChordId{1} << 55};
  RingPeer far{3, ChordId{1} << 62};
  fingers.Set(1, near);
  fingers.Set(11, mid);
  fingers.Set(18, far);
  // Key beyond all: the farthest preceding finger wins.
  auto hop = fingers.ClosestPreceding(ChordId{1} << 63);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->peer, 3u);
  // Key between mid and far: mid wins.
  hop = fingers.ClosestPreceding((ChordId{1} << 55) + 5);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->peer, 2u);
  // Key below all entries: nothing helps.
  hop = fingers.ClosestPreceding(ChordId{1} << 40);
  EXPECT_FALSE(hop.has_value());
}

TEST(FingerTableTest, ClosestPrecedingIgnoresSelfEntries) {
  const ChordId self = 500;
  FingerTable fingers(self, 8);
  fingers.Set(7, RingPeer{42, self});  // self-position entry
  EXPECT_FALSE(fingers.ClosestPreceding(self + 1000).has_value());
}

/// The per-candidate placement OfferSorted replaces: every candidate is
/// compared with every slot, O(size x candidates).
void OfferEachToEverySlot(FingerTable& fingers,
                          const std::vector<RingPeer>& candidates,
                          PeerId owner) {
  for (const RingPeer& candidate : candidates) {
    if (candidate.peer == owner || candidate.peer == kInvalidPeer) continue;
    for (int j = 0; j < fingers.size(); ++j) {
      ChordId target = fingers.TargetOf(j);
      const auto& current = fingers.entry(j);
      if (!current.has_value() ||
          RingDistance(target, candidate.id) <
              RingDistance(target, current->id)) {
        fingers.Set(j, candidate);
      }
    }
  }
}

/// A random finger table of `owner` and candidates sorted by clockwise
/// distance from it. Ids cluster round the targets (exactly on, just
/// before, just past), lie anywhere on the ring, and repeat under other
/// peers.
struct RandomOffer {
  FingerTable table;
  std::vector<RingPeer> candidates;
};

RandomOffer MakeRandomOffer(Rng& rng, PeerId owner) {
  const int kCounts[] = {1, 8, 20, 64};
  const ChordId self = rng.Next();
  const int count = kCounts[rng.Index(4)];
  RandomOffer offer{FingerTable(self, count), {}};
  std::vector<ChordId> ids;
  auto draw_id = [&]() -> ChordId {
    switch (rng.Index(4)) {
      case 0:
        return rng.Next();
      case 1: {
        ChordId offset = static_cast<ChordId>(rng.UniformInt(-2, 2));
        return offer.table.TargetOf(static_cast<int>(rng.Index(count))) +
               offset;
      }
      case 2:
        return self + rng.NextBounded(1000);
      default:
        return ids.empty() ? rng.Next() : ids[rng.Index(ids.size())];
    }
  };
  PeerId next_peer = owner + 1;
  for (int j = 0; j < count; ++j) {
    if (rng.NextBool(0.4)) continue;  // empty slot
    ChordId id = draw_id();
    ids.push_back(id);
    offer.table.Set(j, RingPeer{next_peer++, id});
  }
  const size_t n = rng.Index(13);
  for (size_t i = 0; i < n; ++i) {
    ChordId id = draw_id();
    ids.push_back(id);
    offer.candidates.push_back(RingPeer{next_peer++, id});
  }
  if (rng.NextBool(0.3)) offer.candidates.push_back(RingPeer{owner, self});
  if (rng.NextBool(0.1)) {
    offer.candidates.push_back(RingPeer{kInvalidPeer, 7});
  }
  std::stable_sort(offer.candidates.begin(), offer.candidates.end(),
                   [self](const RingPeer& a, const RingPeer& b) {
                     return RingDistance(self, a.id) <
                            RingDistance(self, b.id);
                   });
  return offer;
}

/// Asserts that `a` and `b` hold the same entry in every slot.
void ExpectSameSlots(const FingerTable& a, const FingerTable& b, int round) {
  ASSERT_EQ(a.size(), b.size());
  for (int j = 0; j < a.size(); ++j) {
    ASSERT_EQ(a.entry(j).has_value(), b.entry(j).has_value())
        << "round " << round << " slot " << j;
    if (!b.entry(j).has_value()) continue;
    EXPECT_EQ(a.entry(j)->peer, b.entry(j)->peer)
        << "round " << round << " slot " << j;
    EXPECT_EQ(a.entry(j)->id, b.entry(j)->id)
        << "round " << round << " slot " << j;
  }
}

TEST(FingerTableTest, OfferSortedMatchesPerCandidatePlacement) {
  Rng rng(2024);
  const PeerId owner = 1;
  for (int round = 0; round < 4000; ++round) {
    RandomOffer offer = MakeRandomOffer(rng, owner);
    FingerTable fast = offer.table;
    OfferEachToEverySlot(offer.table, offer.candidates, owner);
    fast.OfferSorted(offer.candidates, owner);
    ExpectSameSlots(fast, offer.table, round);
  }
}

// ChordNode skips re-offering an unchanged successor list to an unchanged
// table; that is exact only if a second offer of the same list is a no-op.
TEST(FingerTableTest, OfferingTheSameListTwiceChangesNothing) {
  Rng rng(77);
  const PeerId owner = 1;
  for (int round = 0; round < 4000; ++round) {
    RandomOffer offer = MakeRandomOffer(rng, owner);
    const bool wrap = rng.NextBool(0.5);
    offer.table.OfferSorted(offer.candidates, owner, wrap);
    const FingerTable once = offer.table;
    offer.table.OfferSorted(offer.candidates, owner, wrap);
    ExpectSameSlots(offer.table, once, round);
    EXPECT_EQ(offer.table.version(), once.version()) << "round " << round;
  }
}

TEST(FingerTableTest, VersionCountsEveryEntryWrite) {
  FingerTable fingers(/*self=*/0, /*count=*/4);
  uint64_t v = fingers.version();
  fingers.Set(0, RingPeer{2, fingers.TargetOf(0)});
  EXPECT_GT(fingers.version(), v);
  v = fingers.version();
  fingers.FillHoles(fingers.TargetOf(1), RingPeer{3, fingers.TargetOf(3)});
  EXPECT_GT(fingers.version(), v);
  v = fingers.version();
  EXPECT_EQ(fingers.RemovePeer(9), 0);
  EXPECT_EQ(fingers.version(), v) << "nothing removed, nothing written";
  EXPECT_EQ(fingers.RemovePeer(3), 3);
  EXPECT_GT(fingers.version(), v);
  v = fingers.version();
  fingers.Clear(0);
  EXPECT_GT(fingers.version(), v);
  v = fingers.version();
  const RingPeer candidate{4, fingers.TargetOf(2)};
  fingers.OfferSorted({&candidate, 1}, /*owner=*/1);
  EXPECT_GT(fingers.version(), v);
  v = fingers.version();
  fingers.ClearAll();
  EXPECT_GT(fingers.version(), v);
}

}  // namespace
}  // namespace flowercdn
