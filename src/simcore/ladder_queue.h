#ifndef FLOWERCDN_SIMCORE_LADDER_QUEUE_H_
#define FLOWERCDN_SIMCORE_LADDER_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "simcore/scheduler.h"
#include "simcore/slab.h"

namespace flowercdn {

/// Hierarchical timing-wheel scheduler (a "ladder queue"): 8 levels of 256
/// slots where level l buckets time by its l-th byte, so the ladder spans
/// every 64-bit timestamp with no overflow list. Insert and pop are O(1)
/// amortized (each event cascades down at most 7 times over its lifetime),
/// versus O(log n) sifts in a binary heap — and a sift swap moves whole
/// 64-byte EventFn closures, which dominated kernel profiles.
///
/// Determinism contract:
///  * events pop in (when, insertion-sequence) order;
///  * a level-0 bucket only ever holds events of a single timestamp (events
///    land at the level of the highest byte in which their time differs
///    from the serving horizon, so same-level-0-bucket implies all bytes
///    equal), which lets a bucket be served FIFO by sorting on sequence;
///  * zero-delay events pushed while a timestamp batch is being served
///    append to that batch — their sequence numbers are the largest yet
///    issued, so the batch stays sequence-sorted.
///
/// Cancellation is O(1) by handle: an EventId packs (generation << 32) |
/// slab slot; a stale or double cancel fails the generation check and is a
/// no-op. Cancelled nodes stay where they are and are reclaimed when the
/// wheel reaches them, so cancelling a gathered-but-unfired event still
/// suppresses it.
///
/// One escape hatch: peeking (NextTime/Empty) may cascade the horizon past
/// the caller's clock, and the caller may then push an event EARLIER than
/// the new horizon (e.g. RunUntil stops at a deadline between batches and
/// external code schedules right after it). Such pre-horizon events cannot
/// go into the wheel — bucket indices behind the horizon break the
/// index-order-is-time-order invariant — so they sit in a small (when, seq)
/// min-heap that is always served before the wheel. Everything in the wheel
/// is >= horizon > any early event, so global pop order is preserved; the
/// path is cold (only external pushes after a peek can take it).
///
/// Event nodes live in a SlabArena: schedule/fire churn in steady state is
/// a freelist pop/push with no malloc traffic.
class LadderQueue {
 public:
  LadderQueue();

  /// Enqueues `fn` to fire at absolute time `when`. Returns a cancellable
  /// id (never kInvalidEvent).
  EventId Push(SimTime when, EventFn fn, EventGuard guard);

  /// Marks an event as cancelled; it is skipped when reached. Cancelling an
  /// already-fired or unknown id is a no-op.
  void Cancel(EventId id);

  /// True if no live (non-cancelled) event remains. Empty()/NextTime() may
  /// cascade the wheel; they are logically-const peeks.
  bool Empty();

  /// Timestamp of the earliest live event; must not be called when Empty().
  SimTime NextTime();

  /// Pops the earliest live event into `*out` if it is due at or before
  /// `until`. Returns false when the queue is empty or its earliest event
  /// is later — one peek per event, where Empty() + NextTime() + Pop()
  /// would prepare the serving batch three times.
  bool PopUntil(SimTime until, FiredEvent* out);

  /// Pops the earliest live event into `*out`. Returns false when empty.
  bool Pop(FiredEvent* out) {
    return PopUntil(std::numeric_limits<SimTime>::max(), out);
  }

  /// Number of live (non-cancelled) events.
  size_t Size() const { return live_; }

  /// Events effectively cancelled so far (live -> cancelled transitions;
  /// stale/duplicate cancels are not counted). Deterministic for a given
  /// run, so it is safe to export in deterministic output.
  uint64_t cancelled_total() const { return cancelled_total_; }

  /// Most event nodes ever in use at once: the slab's high-water mark,
  /// which counts cancelled nodes not yet reclaimed too. The slab reuses a
  /// freed node before it takes a new one, so this is the slab's size.
  size_t slots_peak() const { return arena_.size(); }

 private:
  static constexpr int kLevels = 8;
  static constexpr int kSlotBits = 8;
  static constexpr uint32_t kSlotsPerLevel = 1u << kSlotBits;
  static constexpr uint32_t kBitmapWords = kSlotsPerLevel / 64;
  static constexpr uint32_t kNil = 0xffffffffu;

  // One cache line per pending event (a 100k-peer trial holds about 160k
  // at its peak, `slots_peak`): 32 bytes of header and the 32-byte
  // EventFn. The guard's peer is stored in 32 bits (Network::SchedulePeer
  // checks that it fits), and an empty `fn` marks a cancelled node: Push
  // never stores an empty one, and only Cancel and firing empty it. Public
  // so tests can pin its size.
 public:
  struct alignas(64) Node {
    SimTime when = 0;
    uint64_t seq = 0;  // global insertion sequence; FIFO tie-break
    uint32_t guard_peer = static_cast<uint32_t>(kInvalidPeer);
    Incarnation guard_incarnation = 0;
    uint32_t next = kNil;  // bucket chain link
    uint32_t gen = 0;      // bumped on release; 0 means never acquired
    EventFn fn;

    bool cancelled() const { return !fn; }
  };
  static_assert(sizeof(Node) == 64, "a ladder node is one cache line");

 private:
  /// Ladder level for an event time, relative to the serving horizon: the
  /// index of the highest byte in which the two differ (0 when equal).
  int LevelFor(SimTime when) const {
    uint64_t diff =
        static_cast<uint64_t>(when) ^ static_cast<uint64_t>(horizon_);
    if (diff == 0) return 0;
    return (63 - __builtin_clzll(diff)) >> 3;
  }

  void PlaceNode(uint32_t slot);
  void ReleaseNode(uint32_t slot);
  /// Ensures the serving cursor rests on a live event; false when drained.
  bool PrepareBatch();
  /// Earliest occupied (level, slot), or false if the wheel is empty.
  bool FindMinBucket(int* level, uint32_t* index) const;
  /// Pops cancelled entries off the top of the early heap.
  void PruneEarly();
  /// Min-heap order for early_: earliest (when, seq) at the front.
  bool EarlyAfter(uint32_t a, uint32_t b) const {
    const Node& na = arena_[a];
    const Node& nb = arena_[b];
    if (na.when != nb.when) return na.when > nb.when;
    return na.seq > nb.seq;
  }

  SlabArena<Node> arena_;
  uint32_t heads_[kLevels][kSlotsPerLevel];
  uint64_t bitmap_[kLevels][kBitmapWords];
  std::vector<uint32_t> serving_;  // current timestamp batch, seq-sorted
  size_t serving_pos_ = 0;
  std::vector<uint32_t> early_;  // pre-horizon pushes; (when, seq) min-heap
  SimTime horizon_ = 0;  // time (or bucket base) of the batch being served
  uint64_t next_seq_ = 1;
  size_t live_ = 0;  // non-cancelled events anywhere in the structure
  uint64_t cancelled_total_ = 0;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SIMCORE_LADDER_QUEUE_H_
