#include "simcore/ladder_queue.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace flowercdn {

LadderQueue::LadderQueue() {
  for (auto& level : heads_) {
    for (auto& head : level) head = kNil;
  }
  std::memset(bitmap_, 0, sizeof(bitmap_));
}

EventId LadderQueue::Push(SimTime when, EventFn fn, EventGuard guard) {
  uint32_t slot = arena_.Acquire();
  Node& n = arena_[slot];
  if (n.gen == 0) n.gen = 1;  // fresh slot; gen 0 is reserved (id != 0)
  n.when = when;
  n.seq = next_seq_++;
  n.cancelled = false;
  n.fn = std::move(fn);
  n.guard_peer = guard.peer;
  n.guard_incarnation = guard.incarnation;
  ++live_;
  if (when < horizon_) {
    // Pre-horizon push (peeking cascaded the horizon past the caller's
    // clock): the wheel can't represent it, so it joins the early heap,
    // which is always served before the wheel.
    early_.push_back(slot);
    std::push_heap(early_.begin(), early_.end(),
                   [this](uint32_t a, uint32_t b) { return EarlyAfter(a, b); });
  } else if (serving_pos_ < serving_.size() && when == horizon_) {
    // Zero-delay push while serving this timestamp: the new sequence number
    // is the largest yet issued, so appending keeps the batch seq-sorted.
    serving_.push_back(slot);
  } else {
    PlaceNode(slot);
  }
  return (static_cast<uint64_t>(n.gen) << 32) | slot;
}

void LadderQueue::PlaceNode(uint32_t slot) {
  Node& n = arena_[slot];
  const int level = LevelFor(n.when);
  const uint32_t index = static_cast<uint32_t>(
      (static_cast<uint64_t>(n.when) >> (level * kSlotBits)) &
      (kSlotsPerLevel - 1));
  n.next = heads_[level][index];
  heads_[level][index] = slot;
  bitmap_[level][index >> 6] |= uint64_t{1} << (index & 63);
}

void LadderQueue::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (gen == 0 || slot >= arena_.size()) return;
  Node& n = arena_[slot];
  if (n.gen != gen || n.cancelled) return;
  n.cancelled = true;
  n.fn = EventFn();  // free the closure (and anything it owns) right away
  --live_;
  ++cancelled_total_;
}

void LadderQueue::ReleaseNode(uint32_t slot) {
  Node& n = arena_[slot];
  n.fn = EventFn();
  if (++n.gen == 0) n.gen = 1;  // wrap skips the reserved generation
  arena_.Release(slot);
}

bool LadderQueue::FindMinBucket(int* level, uint32_t* index) const {
  // Within a level every occupied bucket shares all bytes above the level
  // with the serving horizon (anything else would either be in the past or
  // have been placed higher), so bucket index order is time order, and any
  // level-l event precedes any level-(l+1) event.
  for (int l = 0; l < kLevels; ++l) {
    for (uint32_t w = 0; w < kBitmapWords; ++w) {
      const uint64_t bits = bitmap_[l][w];
      if (bits != 0) {
        *level = l;
        *index = w * 64 + static_cast<uint32_t>(__builtin_ctzll(bits));
        return true;
      }
    }
  }
  return false;
}

bool LadderQueue::PrepareBatch() {
  while (true) {
    // Skip (and reclaim) cancelled events at the serving cursor.
    while (serving_pos_ < serving_.size()) {
      const uint32_t slot = serving_[serving_pos_];
      if (!arena_[slot].cancelled) return true;
      ReleaseNode(slot);
      ++serving_pos_;
    }
    serving_.clear();
    serving_pos_ = 0;

    int level;
    uint32_t index;
    if (!FindMinBucket(&level, &index)) return false;
    const uint32_t head = heads_[level][index];
    heads_[level][index] = kNil;
    bitmap_[level][index >> 6] &= ~(uint64_t{1} << (index & 63));

    // Reclaim cancelled nodes BEFORE touching the horizon. A bucket the
    // horizon has already passed can linger with only cancelled events in
    // it, and deriving the horizon from one of those would move it
    // backwards — silently breaking the level-placement invariant for
    // everything pushed afterwards. Live events, by contrast, can never be
    // behind the horizon, so a horizon derived from them only advances.
    uint32_t live_head = kNil;
    for (uint32_t s = head; s != kNil;) {
      const uint32_t next = arena_[s].next;
      if (arena_[s].cancelled) {
        ReleaseNode(s);
      } else {
        arena_[s].next = live_head;
        live_head = s;
      }
      s = next;
    }
    if (live_head == kNil) continue;  // stale bucket; horizon unchanged

    if (level == 0) {
      // A level-0 bucket holds exactly one (live) timestamp; serve it FIFO.
      for (uint32_t s = live_head; s != kNil;) {
        const uint32_t next = arena_[s].next;
        serving_.push_back(s);
        s = next;
      }
      std::sort(serving_.begin(), serving_.end(),
                [this](uint32_t a, uint32_t b) {
                  return arena_[a].seq < arena_[b].seq;
                });
      horizon_ = arena_[serving_.front()].when;
    } else {
      // Cascade: advance the horizon to this bucket's base, then re-place
      // its events — each lands at a strictly lower level.
      const int shift = level * kSlotBits;
      horizon_ = static_cast<SimTime>(
          (static_cast<uint64_t>(arena_[live_head].when) >> shift) << shift);
      for (uint32_t s = live_head; s != kNil;) {
        const uint32_t next = arena_[s].next;
        PlaceNode(s);
        s = next;
      }
    }
  }
}

void LadderQueue::PruneEarly() {
  while (!early_.empty() && arena_[early_.front()].cancelled) {
    std::pop_heap(early_.begin(), early_.end(),
                  [this](uint32_t a, uint32_t b) { return EarlyAfter(a, b); });
    ReleaseNode(early_.back());
    early_.pop_back();
  }
}

bool LadderQueue::Empty() {
  if (live_ == 0) return true;  // cancelled leftovers reclaim lazily
  PruneEarly();
  if (!early_.empty()) return false;
  return !PrepareBatch();
}

SimTime LadderQueue::NextTime() {
  PruneEarly();
  if (!early_.empty()) return arena_[early_.front()].when;
  const bool ready = PrepareBatch();
  assert(ready);
  (void)ready;
  return arena_[serving_[serving_pos_]].when;
}

bool LadderQueue::PopUntil(SimTime until, FiredEvent* out) {
  if (live_ == 0) return false;  // cancelled leftovers reclaim lazily
  PruneEarly();
  uint32_t slot;
  if (!early_.empty()) {
    // Early events precede everything in the wheel (all wheel times are
    // >= horizon, all early times are < horizon).
    if (arena_[early_.front()].when > until) return false;
    std::pop_heap(early_.begin(), early_.end(),
                  [this](uint32_t a, uint32_t b) { return EarlyAfter(a, b); });
    slot = early_.back();
    early_.pop_back();
  } else {
    if (!PrepareBatch()) return false;
    slot = serving_[serving_pos_];
    if (arena_[slot].when > until) return false;
    ++serving_pos_;
  }
  Node& n = arena_[slot];
  out->when = n.when;
  out->fn = std::move(n.fn);
  out->guard = EventGuard{n.guard_peer, n.guard_incarnation};
  --live_;
  ReleaseNode(slot);
  return true;
}

}  // namespace flowercdn
