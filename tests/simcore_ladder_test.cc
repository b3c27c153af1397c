// Unit and differential coverage for the simcore kernel pieces: the ladder
// queue's determinism contract ((when, seq) pop order checked against a
// reference binary heap, FIFO ties, epoch/byte-boundary rollover,
// cancellation semantics, pre-horizon pushes after a peek), the slab arena,
// the intern/memo tables, and the message pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "simcore/intern.h"
#include "simcore/ladder_queue.h"
#include "simcore/message_pool.h"
#include "simcore/slab.h"
#include "util/random.h"

namespace flowercdn {
namespace {

// --- LadderQueue basics ------------------------------------------------------

TEST(LadderQueueTest, EmptyInitially) {
  LadderQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(LadderQueueTest, PopsInTimestampOrder) {
  LadderQueue q;
  std::vector<int> fired;
  q.Push(30, [&] { fired.push_back(3); }, EventGuard{});
  q.Push(10, [&] { fired.push_back(1); }, EventGuard{});
  q.Push(20, [&] { fired.push_back(2); }, EventGuard{});
  FiredEvent ev;
  while (q.Pop(&ev)) ev.fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(LadderQueueTest, EqualTimestampsAreFifo) {
  LadderQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 1000; ++i) {
    q.Push(5, [&fired, i] { fired.push_back(i); }, EventGuard{});
  }
  FiredEvent ev;
  while (q.Pop(&ev)) {
    EXPECT_EQ(ev.when, 5);
    ev.fn();
  }
  ASSERT_EQ(fired.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[i], i);
}

TEST(LadderQueueTest, ZeroDelayPushWhileServingKeepsFifo) {
  // An event firing at t pushes another event at t; it must run after every
  // event already queued for t (heap semantics: larger insertion seq).
  LadderQueue q;
  std::vector<int> fired;
  q.Push(7, [&] {
    fired.push_back(0);
    q.Push(7, [&] { fired.push_back(2); }, EventGuard{});
  }, EventGuard{});
  q.Push(7, [&] { fired.push_back(1); }, EventGuard{});
  FiredEvent ev;
  while (q.Pop(&ev)) ev.fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(LadderQueueTest, CancelSuppressesEvent) {
  LadderQueue q;
  bool fired = false;
  EventId id = q.Push(10, [&] { fired = true; }, EventGuard{});
  q.Push(20, [] {}, EventGuard{});
  q.Cancel(id);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.cancelled_total(), 1u);
  FiredEvent ev;
  ASSERT_TRUE(q.Pop(&ev));
  EXPECT_EQ(ev.when, 20);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.Empty());
}

TEST(LadderQueueTest, StaleAndDoubleCancelAreNoOps) {
  LadderQueue q;
  EventId id = q.Push(10, [] {}, EventGuard{});
  q.Cancel(id);
  q.Cancel(id);  // double cancel
  EXPECT_EQ(q.cancelled_total(), 1u);
  EXPECT_TRUE(q.Empty());

  // The slot is reused by the next push; the old id's generation no longer
  // matches, so cancelling it must not touch the new event.
  EventId fresh = q.Push(30, [] {}, EventGuard{});
  EXPECT_NE(fresh, id);
  q.Cancel(id);
  EXPECT_EQ(q.Size(), 1u);
  FiredEvent ev;
  ASSERT_TRUE(q.Pop(&ev));
  EXPECT_EQ(ev.when, 30);
  q.Cancel(fresh);  // cancel after fire: no-op
  EXPECT_EQ(q.cancelled_total(), 1u);
}

TEST(LadderQueueTest, CancelAfterFireIsNoOp) {
  LadderQueue q;
  EventId id = q.Push(1, [] {}, EventGuard{});
  FiredEvent ev;
  ASSERT_TRUE(q.Pop(&ev));
  q.Cancel(id);  // must not corrupt bookkeeping
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.cancelled_total(), 0u);
  q.Push(2, [] {}, EventGuard{});
  EXPECT_EQ(q.Size(), 1u);
}

TEST(LadderQueueTest, CancelUnknownIdIsNoOp) {
  LadderQueue q;
  q.Cancel(9999);
  q.Cancel(kInvalidEvent);
  q.Cancel((EventId{1} << 32) | 9999);  // slot never allocated
  EXPECT_TRUE(q.Empty());
  // A well-formed id naming a live slot with the wrong generation must not
  // touch the event living there.
  EventId live = q.Push(5, [] {}, EventGuard{});
  q.Cancel(live + (EventId{1} << 32));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.cancelled_total(), 0u);
}

TEST(LadderQueueTest, NextTimeSkipsCancelled) {
  LadderQueue q;
  EventId early = q.Push(5, [] {}, EventGuard{});
  q.Push(10, [] {}, EventGuard{});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), 10);
}

TEST(LadderQueueTest, CancelGatheredButUnfiredEvent) {
  // Cancelling an event after the queue has peeked (gathered its batch)
  // must still suppress it.
  LadderQueue q;
  bool fired = false;
  EventId a = q.Push(10, [&] { fired = true; }, EventGuard{});
  q.Push(10, [] {}, EventGuard{});
  EXPECT_EQ(q.NextTime(), 10);  // forces the batch to be gathered
  q.Cancel(a);
  FiredEvent ev;
  ASSERT_TRUE(q.Pop(&ev));
  ev.fn();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.Empty());
}

TEST(LadderQueueTest, RollsOverByteBoundaries) {
  // Timestamps straddling 2^8, 2^16, 2^32 exercise cascades at every
  // ladder level (the event's level is the highest differing byte).
  LadderQueue q;
  const std::vector<SimTime> times = {
      3,       255,        256,           257,
      65535,   65536,      65537,         (SimTime{1} << 32) - 1,
      SimTime{1} << 32,    (SimTime{1} << 32) + 1,
      (SimTime{1} << 40) + 12345};
  // Insert in a scrambled order.
  std::vector<SimTime> scrambled = times;
  Rng rng(7);
  for (size_t i = scrambled.size(); i > 1; --i) {
    const size_t j =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(scrambled[i - 1], scrambled[j]);
  }
  for (SimTime t : scrambled) q.Push(t, [] {}, EventGuard{});
  std::vector<SimTime> popped;
  FiredEvent ev;
  while (q.Pop(&ev)) popped.push_back(ev.when);
  EXPECT_EQ(popped, times);
}

TEST(LadderQueueTest, PushEarlierThanPeekedHorizonStaysOrdered) {
  // Peeking may cascade the internal horizon far ahead; a later push below
  // that horizon (legal: the simulator clock is still behind it) must still
  // pop first. Regression test for the early-heap escape hatch.
  LadderQueue q;
  q.Push(100000, [] {}, EventGuard{});
  EXPECT_EQ(q.NextTime(), 100000);  // horizon now at/near 100000
  q.Push(50, [] {}, EventGuard{});
  q.Push(40000, [] {}, EventGuard{});
  EXPECT_EQ(q.NextTime(), 50);
  std::vector<SimTime> popped;
  FiredEvent ev;
  while (q.Pop(&ev)) popped.push_back(ev.when);
  EXPECT_EQ(popped, (std::vector<SimTime>{50, 40000, 100000}));
}

TEST(LadderQueueTest, PopUntilStopsAtTheDeadline) {
  // PopUntil pops only events due at or before `until`, from the wheel and
  // from the early heap alike, and leaves later ones queued.
  LadderQueue q;
  q.Push(100000, [] {}, EventGuard{});
  q.Push(20, [] {}, EventGuard{});
  q.Push(30, [] {}, EventGuard{});
  FiredEvent ev;
  ASSERT_TRUE(q.PopUntil(25, &ev));
  EXPECT_EQ(ev.when, 20);
  EXPECT_FALSE(q.PopUntil(25, &ev));  // 30 is not due yet
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(q.NextTime(), 30);
  ASSERT_TRUE(q.PopUntil(30, &ev));
  EXPECT_EQ(ev.when, 30);
  EXPECT_EQ(q.NextTime(), 100000);  // horizon now at/near 100000
  q.Push(50, [] {}, EventGuard{});   // lands in the early heap
  EXPECT_FALSE(q.PopUntil(49, &ev));
  ASSERT_TRUE(q.PopUntil(50, &ev));
  EXPECT_EQ(ev.when, 50);
  EXPECT_FALSE(q.PopUntil(99999, &ev));
  ASSERT_TRUE(q.PopUntil(100000, &ev));
  EXPECT_EQ(ev.when, 100000);
  EXPECT_FALSE(q.PopUntil(200000, &ev));
  EXPECT_TRUE(q.Empty());
}

TEST(LadderQueueTest, CancelledEarlyEventsReclaim) {
  LadderQueue q;
  q.Push(100000, [] {}, EventGuard{});
  EXPECT_EQ(q.NextTime(), 100000);
  EventId early = q.Push(50, [] {}, EventGuard{});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), 100000);
  FiredEvent ev;
  ASSERT_TRUE(q.Pop(&ev));
  EXPECT_EQ(ev.when, 100000);
  EXPECT_TRUE(q.Empty());
}

TEST(LadderQueueTest, StaleCancelledBucketsDoNotRegressOrder) {
  // Cancelled events left behind in buckets the horizon has passed must
  // not drag the horizon backwards when the wheel finally reaches them.
  LadderQueue q;
  std::vector<EventId> doomed;
  for (SimTime t = 10; t < 2000; t += 17) {
    doomed.push_back(q.Push(t, [] {}, EventGuard{}));
  }
  q.Push(5000, [] {}, EventGuard{});
  EXPECT_EQ(q.NextTime(), 10);
  for (EventId id : doomed) q.Cancel(id);
  // The cancelled run is skipped; later pushes interleave correctly.
  EXPECT_EQ(q.NextTime(), 5000);
  q.Push(6000, [] {}, EventGuard{});
  q.Push(5500, [] {}, EventGuard{});
  std::vector<SimTime> popped;
  FiredEvent ev;
  while (q.Pop(&ev)) popped.push_back(ev.when);
  EXPECT_EQ(popped, (std::vector<SimTime>{5000, 5500, 6000}));
}

// --- Differential: ladder vs a reference heap -------------------------------

// The reference scheduler: a binary heap on (when, insertion seq) with
// tombstoned cancels. Slow and obviously correct; the ladder queue must pop
// in exactly its order.
class ReferenceQueue {
 public:
  uint64_t Push(SimTime when, std::function<void()> fn) {
    const uint64_t seq = next_seq_++;
    heap_.emplace(when, seq);
    live_.emplace(seq, std::move(fn));
    return seq;
  }
  void Cancel(uint64_t seq) {
    if (live_.erase(seq) > 0) ++cancelled_total_;
  }
  bool Empty() {
    DropCancelledTop();
    return heap_.empty();
  }
  std::function<void()> Pop(SimTime* when) {
    DropCancelledTop();
    const auto [top_when, seq] = heap_.top();
    heap_.pop();
    *when = top_when;
    auto it = live_.find(seq);
    std::function<void()> fn = std::move(it->second);
    live_.erase(it);
    return fn;
  }
  uint64_t cancelled_total() const { return cancelled_total_; }

 private:
  void DropCancelledTop() {
    while (!heap_.empty() && live_.count(heap_.top().second) == 0) {
      heap_.pop();
    }
  }

  using Entry = std::pair<SimTime, uint64_t>;  // (when, seq)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_map<uint64_t, std::function<void()>> live_;
  uint64_t next_seq_ = 1;
  uint64_t cancelled_total_ = 0;
};

// Random churn of pushes, cancels, and pops against both queues; the
// (when, value) pop sequences must match exactly. Monotone-ish times mimic
// a simulator (pushes land at or after the last popped time).
TEST(LadderQueueTest, MatchesHeapUnderRandomChurn) {
  Rng rng(42);
  ReferenceQueue heap;
  LadderQueue ladder;
  std::vector<std::pair<EventId, EventId>> cancellable;  // (heap, ladder)
  std::vector<std::pair<SimTime, int>> heap_log, ladder_log;
  SimTime clock = 0;
  int next_value = 0;

  for (int step = 0; step < 20000; ++step) {
    const int roll = static_cast<int>(rng.UniformInt(0, 99));
    if (roll < 55) {
      // Push. Occasional huge delays cross cascade boundaries.
      const SimTime delay = rng.UniformInt(0, 19) == 0
                                ? rng.UniformInt(0, 1 << 20)
                                : rng.UniformInt(0, 500);
      const SimTime when = clock + delay;
      ++next_value;
      EventId h = heap.Push(when, [] {});
      EventId l = ladder.Push(when, [] {}, EventGuard{});
      if (rng.UniformInt(0, 3) == 0) cancellable.emplace_back(h, l);
    } else if (roll < 70 && !cancellable.empty()) {
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(cancellable.size()) - 1));
      heap.Cancel(cancellable[i].first);
      ladder.Cancel(cancellable[i].second);
      cancellable.erase(cancellable.begin() + i);
    } else {
      if (!heap.Empty()) {
        SimTime hw;
        heap.Pop(&hw)();
        heap_log.emplace_back(hw, 0);
        clock = hw;
      }
      FiredEvent ev;
      if (ladder.Pop(&ev)) {
        ladder_log.emplace_back(ev.when, 0);
      }
    }
  }
  // Drain both.
  while (!heap.Empty()) {
    SimTime hw;
    heap.Pop(&hw)();
    heap_log.emplace_back(hw, 0);
  }
  FiredEvent ev;
  while (ladder.Pop(&ev)) ladder_log.emplace_back(ev.when, 0);

  EXPECT_EQ(heap_log, ladder_log);
  EXPECT_EQ(heap.cancelled_total(), ladder.cancelled_total());
}

// Same churn, but verifying FIFO identity of payloads (not just times):
// every event records a unique value, and the full fire sequences must be
// equal — this nails the seq tie-break, not merely timestamp order.
TEST(LadderQueueTest, MatchesHeapFireSequenceExactly) {
  Rng rng(1234);
  ReferenceQueue heap;
  LadderQueue ladder;
  std::vector<int> heap_fired, ladder_fired;
  SimTime clock = 0;
  for (int step = 0; step < 5000; ++step) {
    if (rng.UniformInt(0, 2) != 0) {
      const SimTime when = clock + rng.UniformInt(0, 3);  // many ties
      const int value = step;
      heap.Push(when, [&heap_fired, value] { heap_fired.push_back(value); });
      ladder.Push(when,
                  [&ladder_fired, value] { ladder_fired.push_back(value); },
                  EventGuard{});
    } else if (!heap.Empty()) {
      SimTime hw;
      heap.Pop(&hw)();
      clock = hw;
      FiredEvent ev;
      ASSERT_TRUE(ladder.Pop(&ev));
      ASSERT_EQ(ev.when, hw);
      ev.fn();
    }
  }
  while (!heap.Empty()) {
    SimTime hw;
    heap.Pop(&hw)();
  }
  FiredEvent ev;
  while (ladder.Pop(&ev)) ev.fn();
  // Only compare the prefix popped on both sides in lockstep plus the
  // drains; by construction the sequences must agree where both fired.
  const size_t n = std::min(heap_fired.size(), ladder_fired.size());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(heap_fired[i], ladder_fired[i]);
}

// --- SlabArena ---------------------------------------------------------------

TEST(SlabArenaTest, ReusesFreedSlots) {
  SlabArena<int> arena;
  const uint32_t a = arena.Acquire();
  const uint32_t b = arena.Acquire();
  EXPECT_NE(a, b);
  arena[a] = 7;
  arena[b] = 9;
  arena.Release(a);
  const uint32_t c = arena.Acquire();
  EXPECT_EQ(c, a);  // LIFO freelist
  EXPECT_EQ(arena.live_count(), 2u);
  arena.Release(b);
  arena.Release(c);
  EXPECT_EQ(arena.live_count(), 0u);
  EXPECT_EQ(arena.free_count(), arena.size());
}

TEST(SlabArenaTest, SlotsAreStableAcrossGrowth) {
  SlabArena<uint64_t> arena;
  std::vector<uint32_t> slots;
  for (uint64_t i = 0; i < 10000; ++i) {
    const uint32_t s = arena.Acquire();
    arena[s] = i;
    slots.push_back(s);
  }
  for (uint64_t i = 0; i < 10000; ++i) EXPECT_EQ(arena[slots[i]], i);
}

// --- InternTable / U64Memo ---------------------------------------------------

TEST(InternTableTest, StableHandlesAndRoundTrip) {
  InternTable table;
  const uint32_t a = table.Intern("peer-1");
  const uint32_t b = table.Intern("peer-2");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("peer-1"), a);  // idempotent
  EXPECT_EQ(table.NameOf(a), "peer-1");
  EXPECT_EQ(table.NameOf(b), "peer-2");
  EXPECT_EQ(table.Find("peer-2"), b);
  EXPECT_EQ(table.Find("missing"), InternTable::kInvalidHandle);
  EXPECT_EQ(table.size(), 2u);
}

TEST(InternTableTest, ManyEntriesSurviveRehash) {
  InternTable table;
  std::vector<uint32_t> handles;
  for (int i = 0; i < 5000; ++i) {
    handles.push_back(table.Intern("name-" + std::to_string(i)));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(table.NameOf(handles[i]), "name-" + std::to_string(i));
    EXPECT_EQ(table.Intern("name-" + std::to_string(i)), handles[i]);
  }
}

TEST(U64MemoTest, ComputesOnceAndGrows) {
  U64Memo memo;
  int computes = 0;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 3000; ++k) {
      const uint64_t v = memo.GetOrCompute(k, [&] {
        ++computes;
        return k * 3 + 1;
      });
      EXPECT_EQ(v, k * 3 + 1);
    }
  }
  EXPECT_EQ(computes, 3000);
  EXPECT_EQ(memo.size(), 3000u);
}

TEST(U64MemoTest, SentinelKeyIsMemoized) {
  U64Memo memo;
  const uint64_t key = ~uint64_t{0};  // the reserved empty-slot key
  int computes = 0;
  EXPECT_EQ(memo.GetOrCompute(key, [&] { ++computes; return 99u; }), 99u);
  EXPECT_EQ(memo.GetOrCompute(key, [&] { ++computes; return 11u; }), 99u);
  EXPECT_EQ(computes, 1);
}

// --- Message pool ------------------------------------------------------------

TEST(MessagePoolTest, AllocFreeRoundTrip) {
  void* p = PooledAlloc(64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 64);
  PooledFree(p, 64);
  void* q = PooledAlloc(48);  // same 64-byte class: reuses the cached block
  ASSERT_NE(q, nullptr);
  PooledFree(q, 48);
}

TEST(MessagePoolTest, OversizeFallsThrough) {
  void* p = PooledAlloc(4096);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 4096);
  PooledFree(p, 4096);
}

TEST(MessagePoolTest, MessagesUsePooledOperators) {
  // Message subclasses route through PooledAlloc/PooledFree; exercise the
  // virtual-destructor sized-delete path.
  for (int i = 0; i < 100; ++i) {
    auto msg = std::make_unique<TransportNackMsg>();
    msg.reset();
  }
  SUCCEED();
}

}  // namespace
}  // namespace flowercdn
