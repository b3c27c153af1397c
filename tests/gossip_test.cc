#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <unordered_set>
#include <utility>
#include <vector>

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
  EXPECT_EQ(view.entries()[0].age, 1u);
  view.Upsert({10, 9});  // staler: keep the younger age
  EXPECT_EQ(view.entries()[0].age, 1u);
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
  EXPECT_EQ(view.entries()[0].age, 1u);
  EXPECT_EQ(view.entries()[1].age, 6u);
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

TEST(PeerViewTest, ToContactsKeepsOrderAndAges) {
  // Insertion order, refreshes in place and removals that close the gap:
  // the contacts come back in the order a vector of Contacts kept them.
  PeerView view;
  const PeerId peers[] = {7, 3, 4'000'000'000, 12, 1, 9, 5};
  for (size_t i = 0; i < std::size(peers); ++i) {
    view.Upsert({peers[i], static_cast<uint32_t>(10 * i + 1)});
  }
  view.Upsert({12, 2});   // refresh: age 31 -> 2, same place
  view.Upsert({3, 50});   // staler: keeps 11
  EXPECT_TRUE(view.Remove(1));
  view.AgeAll();
  view.Upsert({UINT32_MAX, 0});  // the largest id that fits

  const std::vector<Contact> contacts = view.ToContacts();
  const std::vector<std::pair<PeerId, uint32_t>> expected = {
      {7, 2},  {3, 12}, {4'000'000'000, 22}, {12, 3},
      {9, 52}, {5, 62}, {UINT32_MAX, 0}};
  ASSERT_EQ(contacts.size(), expected.size());
  ASSERT_EQ(view.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(contacts[i].peer, expected[i].first) << "contact " << i;
    EXPECT_EQ(contacts[i].age, expected[i].second) << "contact " << i;
    EXPECT_EQ(view.entries()[i].peer, expected[i].first) << "entry " << i;
    EXPECT_EQ(view.entries()[i].age, expected[i].second) << "entry " << i;
  }
  EXPECT_EQ(view.Oldest()->peer, 5u);
  EXPECT_TRUE(PeerView().ToContacts().empty());
}

TEST(PeerViewTest, StoresEachContactInEightBytes) {
  EXPECT_EQ(sizeof(PeerView::Entry), 8u);
  EXPECT_EQ(sizeof(Contact), 16u);  // the message and wire form
}

TEST(PeerViewDeathTest, UpsertOfAnIdPast32BitsDies) {
  PeerView view;
  EXPECT_DEATH(view.Upsert({PeerId{1} << 32, 0}), "does not fit a view entry");
}

TEST(PeerViewTest, MergeSkipsSelf) {
  PeerView view;
  view.Merge({{1, 0}, {2, 0}, {7, 0}}, /*self=*/7);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_FALSE(view.Contains(7));
}

}  // namespace
}  // namespace flowercdn
