#include "chord/finger_table.h"

#include "util/logging.h"

namespace flowercdn {

FingerTable::FingerTable(ChordId self, int count) : self_(self) {
  FLOWERCDN_CHECK(count >= 1 && count <= 64);
  entries_.resize(count);
}

void FingerTable::Set(int j, RingPeer peer) {
  FLOWERCDN_CHECK(peer.peer != kInvalidPeer);
  entries_[j] = peer;
  ++version_;
}

void FingerTable::ClearAll() {
  for (RingPeer& e : entries_) e = RingPeer{};
  ++version_;
}

void FingerTable::OfferSorted(std::span<const RingPeer> by_distance,
                              PeerId owner, bool wrap) {
  auto skip = [owner](const RingPeer& c) {
    return c.peer == owner || c.peer == kInvalidPeer;
  };
  size_t nearest = 0;
  while (nearest < by_distance.size() && skip(by_distance[nearest])) {
    ++nearest;
  }
  if (nearest == by_distance.size()) return;
  // Targets lie ever further clockwise of self as j grows, so the first
  // candidate at or past target j is at or past every earlier target too:
  // one cursor serves all slots. Past the last candidate the closest one
  // clockwise of a target wraps round to the nearest candidate.
  size_t cursor = nearest;
  for (int j = 0; j < size(); ++j) {
    const ChordId reach = Reach(j);
    while (cursor < by_distance.size() &&
           (skip(by_distance[cursor]) ||
            RingDistance(self_, by_distance[cursor].id) < reach)) {
      ++cursor;
    }
    if (cursor == by_distance.size() && !wrap) return;
    const RingPeer& best = by_distance[cursor < by_distance.size()
                                           ? cursor
                                           : nearest];
    RingPeer& current = entries_[j];
    const ChordId target = self_ + reach;
    if (current.peer == kInvalidPeer ||
        RingDistance(target, best.id) < RingDistance(target, current.id)) {
      current = best;
      ++version_;
    }
  }
}

void FingerTable::FillHoles(ChordId from, const RingPeer& owner) {
  FLOWERCDN_CHECK(owner.peer != kInvalidPeer);
  const ChordId span = RingDistance(from, owner.id);
  for (int j = 0; j < size(); ++j) {
    if (entries_[j].peer == kInvalidPeer &&
        RingDistance(from, TargetOf(j)) <= span) {
      entries_[j] = owner;
      ++version_;
    }
  }
}

int FingerTable::RemovePeer(PeerId peer) {
  if (peer == kInvalidPeer) return 0;
  int removed = 0;
  for (RingPeer& e : entries_) {
    if (e.peer == peer) {
      e = RingPeer{};
      ++removed;
    }
  }
  version_ += removed;
  return removed;
}

std::optional<RingPeer> FingerTable::ClosestPreceding(ChordId key) const {
  for (int j = size() - 1; j >= 0; --j) {
    const RingPeer& e = entries_[j];
    if (e.peer != kInvalidPeer && InIntervalOpenOpen(e.id, self_, key)) {
      return e;
    }
  }
  return std::nullopt;
}

int FingerTable::populated() const {
  int n = 0;
  for (const RingPeer& e : entries_) n += e.peer != kInvalidPeer ? 1 : 0;
  return n;
}

}  // namespace flowercdn
