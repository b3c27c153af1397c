#ifndef FLOWERCDN_CHORD_FINGER_TABLE_H_
#define FLOWERCDN_CHORD_FINGER_TABLE_H_

#include <cstdint>
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

  /// Bumped by every write to an entry, so a caller can tell that the
  /// table has not changed since it last looked.
  uint64_t version() const { return version_; }

  void Set(int j, RingPeer peer) {
    entries_[j] = peer;
    ++version_;
  }
  void Clear(int j) {
    entries_[j].reset();
    ++version_;
  }
  void ClearAll();

  /// Offers each entry of `by_distance`, in order, to every slot: a slot
  /// takes a candidate when it is empty or the candidate lies strictly
  /// closer clockwise to its target than the entry it holds, so among
  /// equally close candidates the held entry, then the first offered, wins.
  /// `by_distance` must be sorted by clockwise distance from self; entries
  /// of peer `owner` (the table's own node) or kInvalidPeer are skipped.
  /// A slot whose target lies past the last candidate is offered the
  /// nearest one (the closest clockwise, round the ring) when `wrap` is
  /// set, and left as it is otherwise. One pass over slots and candidates
  /// together, O(size + candidates). Offering the same list twice in a row
  /// changes nothing the second time.
  void OfferSorted(std::span<const RingPeer> by_distance, PeerId owner,
                   bool wrap = true);

  /// Sets every empty slot whose target lies in [from, owner.id] to
  /// `owner`: when successor(from) is `owner`, it is the successor of
  /// every point up to it.
  void FillHoles(ChordId from, const RingPeer& owner);

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
  uint64_t version_ = 0;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_CHORD_FINGER_TABLE_H_
