#include "util/function.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

namespace flowercdn {
namespace {

TEST(MoveOnlyFnTest, EmptyIsFalse) {
  MoveOnlyFn<void()> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(MoveOnlyFnTest, InvokesSmallLambda) {
  int x = 0;
  MoveOnlyFn<void()> fn = [&x] { x = 42; };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(x, 42);
}

TEST(MoveOnlyFnTest, HoldsMoveOnlyCapture) {
  auto p = std::make_unique<int>(7);
  MoveOnlyFn<int()> fn = [p = std::move(p)] { return *p; };
  EXPECT_EQ(fn(), 7);
}

TEST(MoveOnlyFnTest, MoveTransfersOwnership) {
  int calls = 0;
  MoveOnlyFn<void()> a = [&calls] { ++calls; };
  MoveOnlyFn<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

TEST(MoveOnlyFnTest, MoveAssignReplacesTarget) {
  int a_calls = 0, b_calls = 0;
  MoveOnlyFn<void()> a = [&a_calls] { ++a_calls; };
  MoveOnlyFn<void()> b = [&b_calls] { ++b_calls; };
  b = std::move(a);
  b();
  EXPECT_EQ(a_calls, 1);
  EXPECT_EQ(b_calls, 0);
}

TEST(MoveOnlyFnTest, LargeCaptureGoesToHeapAndWorks) {
  struct Big {
    char data[256];
  };
  Big big{};
  big.data[0] = 'x';
  MoveOnlyFn<char()> fn = [big] { return big.data[0]; };
  EXPECT_EQ(fn(), 'x');
  MoveOnlyFn<char()> moved = std::move(fn);
  EXPECT_EQ(moved(), 'x');
}

/// Counts the moves and the destructions of live (not moved-from) copies.
struct LifetimeProbe {
  int* moves;
  int* destroyed;
  bool live = true;
  LifetimeProbe(int* m, int* d) : moves(m), destroyed(d) {}
  LifetimeProbe(LifetimeProbe&& other) noexcept
      : moves(other.moves), destroyed(other.destroyed) {
    other.live = false;
    ++*moves;
  }
  ~LifetimeProbe() {
    if (live) ++*destroyed;
  }
};

TEST(MoveOnlyFnTest, EventFnKeepsCapturesOverTwentyFourBytesOnTheHeap) {
  int moves = 0;
  int destroyed = 0;
  int runs = 0;
  {
    auto closure = [probe = LifetimeProbe(&moves, &destroyed),
                    pad = uint64_t{7}, &runs] { runs += static_cast<int>(pad); };
    static_assert(sizeof(closure) > 24, "over EventFn's inline bytes");
    EventFn fn = std::move(closure);
    const int moves_in = moves;
    EventFn moved = std::move(fn);
    EventFn assigned;
    assigned = std::move(moved);
    // A heap closure relocates by pointer: moving the EventFn moves no
    // capture.
    EXPECT_EQ(moves, moves_in);
    EXPECT_FALSE(fn);
    EXPECT_FALSE(moved);
    assigned();
    EXPECT_EQ(runs, 7);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(MoveOnlyFnTest, EventFnKeepsCapturesOfTwentyFourBytesInline) {
  int moves = 0;
  int destroyed = 0;
  {
    auto closure = [probe = LifetimeProbe(&moves, &destroyed)] {};
    static_assert(sizeof(closure) <= 24, "within EventFn's inline bytes");
    EventFn fn = std::move(closure);
    const int moves_in = moves;
    EventFn moved = std::move(fn);
    // An inline closure is moved with its EventFn.
    EXPECT_EQ(moves, moves_in + 1);
    moved();
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(MoveOnlyFnTest, DestructorReleasesCapture) {
  auto tracker = std::make_shared<int>(1);
  std::weak_ptr<int> weak = tracker;
  {
    MoveOnlyFn<void()> fn = [tracker = std::move(tracker)] { (void)tracker; };
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

TEST(MoveOnlyFnTest, ArgumentsAndReturnValues) {
  MoveOnlyFn<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
  MoveOnlyFn<std::string(std::string)> echo =
      [](std::string s) { return s + "!"; };
  EXPECT_EQ(echo("hi"), "hi!");
}

TEST(MoveOnlyFnTest, SelfMoveAssignIsSafe) {
  int calls = 0;
  MoveOnlyFn<void()> fn = [&calls] { ++calls; };
  MoveOnlyFn<void()>& ref = fn;
  fn = std::move(ref);
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace flowercdn
