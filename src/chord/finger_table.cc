#include "chord/finger_table.h"

#include "util/logging.h"

namespace flowercdn {

FingerTable::FingerTable(ChordId self, int count) : self_(self) {
  FLOWERCDN_CHECK(count >= 1 && count <= 64);
  const int low_bit = 64 - count;
  targets_.reserve(count);
  for (int j = 0; j < count; ++j) {
    targets_.push_back(self_ + (ChordId{1} << (low_bit + j)));  // modular add
  }
  entries_.resize(count);
}

void FingerTable::ClearAll() {
  for (auto& e : entries_) e.reset();
}

void FingerTable::OfferSorted(std::span<const RingPeer> by_distance,
                              PeerId owner) {
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
    const ChordId reach = targets_[j] - self_;  // modular
    while (cursor < by_distance.size() &&
           (skip(by_distance[cursor]) ||
            RingDistance(self_, by_distance[cursor].id) < reach)) {
      ++cursor;
    }
    const RingPeer& best = by_distance[cursor < by_distance.size()
                                           ? cursor
                                           : nearest];
    auto& current = entries_[j];
    if (!current.has_value() ||
        RingDistance(targets_[j], best.id) <
            RingDistance(targets_[j], current->id)) {
      current = best;
    }
  }
}

int FingerTable::RemovePeer(PeerId peer) {
  int removed = 0;
  for (auto& e : entries_) {
    if (e.has_value() && e->peer == peer) {
      e.reset();
      ++removed;
    }
  }
  return removed;
}

std::optional<RingPeer> FingerTable::ClosestPreceding(ChordId key) const {
  for (int j = size() - 1; j >= 0; --j) {
    const auto& e = entries_[j];
    if (e.has_value() && InIntervalOpenOpen(e->id, self_, key)) {
      return e;
    }
  }
  return std::nullopt;
}

int FingerTable::populated() const {
  int n = 0;
  for (const auto& e : entries_) n += e.has_value() ? 1 : 0;
  return n;
}

}  // namespace flowercdn
