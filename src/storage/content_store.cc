#include "storage/content_store.h"

#include <algorithm>

namespace flowercdn {

bool ContentStore::Insert(const ObjectId& object) {
  if (objects_ == nullptr) {
    objects_ = std::make_unique<std::unordered_set<uint64_t>>();
  }
  auto [it, inserted] = objects_->insert(object.Packed());
  (void)it;
  if (inserted) ++changes_since_push_;
  return inserted;
}

double ContentStore::ChangeFraction() const {
  if (changes_since_push_ == 0) return 0.0;
  if (size_at_last_push_ == 0) return 1.0;
  return static_cast<double>(changes_since_push_) /
         static_cast<double>(size_at_last_push_);
}

void ContentStore::MarkPushed() {
  size_at_last_push_ = static_cast<uint32_t>(size());
  changes_since_push_ = 0;
}

BloomFilter ContentStore::BuildSummary(double fp_rate) const {
  BloomFilter summary(std::max<size_t>(size() * 2, 64), fp_rate);
  if (objects_ == nullptr) return summary;
  for (uint64_t packed : *objects_) summary.Insert(packed);
  return summary;
}

std::vector<ObjectId> ContentStore::ObjectList() const {
  std::vector<ObjectId> out;
  if (objects_ == nullptr) return out;
  out.reserve(objects_->size());
  for (uint64_t packed : *objects_) {
    out.push_back(ObjectId::FromPacked(packed));
  }
  return out;
}

std::vector<ObjectId> ContentStore::ObjectsOfWebsite(WebsiteId website) const {
  std::vector<ObjectId> out;
  if (objects_ == nullptr) return out;
  for (uint64_t packed : *objects_) {
    ObjectId o = ObjectId::FromPacked(packed);
    if (o.website == website) out.push_back(o);
  }
  return out;
}

}  // namespace flowercdn
