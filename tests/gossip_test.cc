#include <gtest/gtest.h>

#include <unordered_set>

#include "gossip/view.h"

namespace flowercdn {
namespace {

// --- PeerView ----------------------------------------------------------------

TEST(PeerViewTest, UpsertInsertsAndRefreshes) {
  PeerView view;
  view.Upsert({10, 3});
  EXPECT_TRUE(view.Contains(10));
  EXPECT_EQ(view.size(), 1u);
  view.Upsert({10, 1});  // fresher
  EXPECT_EQ(view.contacts()[0].age, 1u);
  view.Upsert({10, 9});  // staler: keep the younger age
  EXPECT_EQ(view.contacts()[0].age, 1u);
}

TEST(PeerViewTest, InvalidPeerIgnored) {
  PeerView view;
  view.Upsert({kInvalidPeer, 0});
  EXPECT_TRUE(view.empty());
}

TEST(PeerViewTest, RemoveAndAge) {
  PeerView view;
  view.Upsert({1, 0});
  view.Upsert({2, 5});
  view.AgeAll();
  EXPECT_EQ(view.contacts()[0].age, 1u);
  EXPECT_EQ(view.contacts()[1].age, 6u);
  EXPECT_TRUE(view.Remove(1));
  EXPECT_FALSE(view.Remove(1));
  EXPECT_EQ(view.size(), 1u);
}

TEST(PeerViewTest, OldestFindsMaxAge) {
  PeerView view;
  EXPECT_FALSE(view.Oldest().has_value());
  view.Upsert({1, 2});
  view.Upsert({2, 7});
  view.Upsert({3, 4});
  EXPECT_EQ(view.Oldest()->peer, 2u);
}

TEST(PeerViewTest, RandomSubsetExcludesAndBounds) {
  PeerView view;
  for (PeerId p = 1; p <= 10; ++p) view.Upsert({p, 0});
  Rng rng(3);
  auto subset = view.RandomSubset(4, rng, /*exclude=*/5);
  EXPECT_EQ(subset.size(), 4u);
  std::unordered_set<PeerId> seen;
  for (const Contact& c : subset) {
    EXPECT_NE(c.peer, 5u);
    EXPECT_TRUE(seen.insert(c.peer).second) << "duplicate in subset";
  }
  EXPECT_EQ(view.RandomSubset(100, rng).size(), 10u);
}

TEST(PeerViewTest, MergeSkipsSelf) {
  PeerView view;
  view.Merge({{1, 0}, {2, 0}, {7, 0}}, /*self=*/7);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_FALSE(view.Contains(7));
}

}  // namespace
}  // namespace flowercdn
