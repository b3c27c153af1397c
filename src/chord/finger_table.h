#ifndef FLOWERCDN_CHORD_FINGER_TABLE_H_
#define FLOWERCDN_CHORD_FINGER_TABLE_H_

#include <optional>
#include <span>
#include <vector>

#include "chord/id.h"

namespace flowercdn {

/// Chord finger table holding long-range routing shortcuts. Finger j aims
/// at successor(self + 2^(64 - count + j)): we only keep the top `count`
/// fingers because for realistic ring populations (<= a few million nodes)
/// all lower fingers collapse onto the immediate successor.
class FingerTable {
 public:
  /// `count` in [1, 64].
  FingerTable(ChordId self, int count);

  int size() const { return static_cast<int>(entries_.size()); }

  /// Ring point finger j aims at. Precomputed at construction — this sits
  /// on the stabilization and lookup hot paths, called ~100M times per
  /// long trial.
  ChordId TargetOf(int j) const { return targets_[j]; }

  const std::optional<RingPeer>& entry(int j) const { return entries_[j]; }

  void Set(int j, RingPeer peer) { entries_[j] = peer; }
  void Clear(int j) { entries_[j].reset(); }
  void ClearAll();

  /// Offers each entry of `by_distance`, in order, to every slot: a slot
  /// takes a candidate when it is empty or the candidate lies strictly
  /// closer clockwise to its target than the entry it holds, so among
  /// equally close candidates the held entry, then the first offered, wins.
  /// `by_distance` must be sorted by clockwise distance from self; entries
  /// of peer `owner` (the table's own node) or kInvalidPeer are skipped.
  /// One pass over slots and candidates together, O(size + candidates).
  void OfferSorted(std::span<const RingPeer> by_distance, PeerId owner);

  /// Drops every entry pointing at `peer` (called when the peer is
  /// detected dead). Returns how many entries were cleared.
  int RemovePeer(PeerId peer);

  /// The finger with the highest id strictly inside (self, key): the
  /// classic closest_preceding_finger step. Empty when no finger helps
  /// (caller then falls back to its successor).
  std::optional<RingPeer> ClosestPreceding(ChordId key) const;

  /// Number of populated entries.
  int populated() const;

 private:
  ChordId self_;
  std::vector<ChordId> targets_;  // targets_[j] = self + 2^(64 - count + j)
  std::vector<std::optional<RingPeer>> entries_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_CHORD_FINGER_TABLE_H_
