#include "util/small_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace flowercdn {
namespace {

struct Pair {
  uint64_t a = 0;
  uint64_t b = 0;
  friend bool operator==(const Pair& x, const Pair& y) {
    return x.a == y.a && x.b == y.b;
  }
};

using Vec = SmallVector<Pair, 4>;

std::vector<Pair> Elements(const Vec& v) { return {v.begin(), v.end()}; }

std::vector<Pair> Sequence(uint64_t n) {
  std::vector<Pair> out;
  for (uint64_t i = 0; i < n; ++i) out.push_back({i, i * 3});
  return out;
}

TEST(SmallVectorTest, StaysInlineUpToItsCapacity) {
  Vec v;
  EXPECT_TRUE(v.empty());
  for (const Pair& p : Sequence(4)) v.push_back(p);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(Elements(v), Sequence(4));
  v.push_back({4, 12});
  EXPECT_FALSE(v.is_inline()) << "the fifth element spills";
  EXPECT_EQ(Elements(v), Sequence(5));
}

TEST(SmallVectorTest, AssignAndResize) {
  const std::vector<Pair> long_list = Sequence(9);
  Vec v;
  v.assign(long_list.begin(), long_list.end());
  EXPECT_EQ(Elements(v), long_list);
  v.resize(2);
  EXPECT_EQ(Elements(v), Sequence(2));
  v.resize(3);
  EXPECT_EQ(v[2], Pair{}) << "growth value-initializes";
  v = {{7, 8}};
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], (Pair{7, 8}));
}

TEST(SmallVectorTest, PushBackOfItsOwnElementAcrossTheSpill) {
  Vec v = {{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  v.push_back(v[0]);  // the source moves to the heap with the rest
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[4], (Pair{1, 1}));
}

TEST(SmallVectorTest, CopyInlineAndSpilled) {
  for (uint64_t n : {0u, 3u, 4u, 5u, 11u}) {
    const std::vector<Pair> elements = Sequence(n);
    Vec v;
    v.assign(elements.begin(), elements.end());
    Vec copy = v;
    EXPECT_EQ(Elements(copy), elements);
    Vec spilled = {{9, 9}, {9, 9}, {9, 9}, {9, 9}, {9, 9}, {9, 9}};
    spilled = v;
    EXPECT_EQ(Elements(spilled), elements);
    Vec empty;
    empty = v;
    EXPECT_EQ(Elements(empty), elements);
    EXPECT_EQ(Elements(v), elements);
  }
}

}  // namespace
}  // namespace flowercdn
