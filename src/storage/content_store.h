#ifndef FLOWERCDN_STORAGE_CONTENT_STORE_H_
#define FLOWERCDN_STORAGE_CONTENT_STORE_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "storage/object_id.h"
#include "util/bloom_filter.h"

namespace flowercdn {

/// A peer's local web cache. Per the paper's evaluation assumptions, a
/// content peer "has enough storage potential to avoid replacing its
/// content through the experiment's duration" — so the store only grows
/// (no eviction policy; cache expiration/replacement are explicitly out of
/// the paper's scope, §6.1 footnote 1).
///
/// The store also tracks how much it changed since the last push to the
/// directory peer: Flower-CDN content peers push updates "whenever the
/// percentage of changes reaches a threshold" (push threshold, Table 1).
///
/// Most identities cache nothing (a 100k-peer hour averages 0.17 objects
/// per identity), so the set is allocated on the first Insert and an empty
/// store is one null pointer and two counters.
class ContentStore {
 public:
  ContentStore() = default;

  bool Contains(const ObjectId& object) const {
    return objects_ != nullptr && objects_->count(object.Packed()) > 0;
  }

  /// Stores an object; returns false if it was already present.
  bool Insert(const ObjectId& object);

  size_t size() const { return objects_ != nullptr ? objects_->size() : 0; }
  bool empty() const { return size() == 0; }

  /// Objects inserted since the last MarkPushed().
  size_t changes_since_push() const { return changes_since_push_; }

  /// Fraction of change relative to the store size at the last push.
  /// An empty never-pushed store with any new object reports 1.0.
  double ChangeFraction() const;

  /// Resets change tracking after a successful push.
  void MarkPushed();

  /// Builds a Bloom summary of the stored object ids — the "content
  /// summary" exchanged through petal gossip. `fp_rate` trades size for
  /// precision.
  BloomFilter BuildSummary(double fp_rate = 0.02) const;

  /// All stored objects (used by push messages and directory rebuilds).
  std::vector<ObjectId> ObjectList() const;

  /// Objects of `website` only.
  std::vector<ObjectId> ObjectsOfWebsite(WebsiteId website) const;

 private:
  std::unique_ptr<std::unordered_set<uint64_t>> objects_;  // null until used
  uint32_t size_at_last_push_ = 0;
  uint32_t changes_since_push_ = 0;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_STORAGE_CONTENT_STORE_H_
