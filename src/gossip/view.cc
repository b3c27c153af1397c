#include "gossip/view.h"

#include <algorithm>

namespace flowercdn {

bool PeerView::Contains(PeerId peer) const {
  for (const Contact& c : contacts_) {
    if (c.peer == peer) return true;
  }
  return false;
}

void PeerView::Upsert(Contact contact) {
  if (contact.peer == kInvalidPeer) return;
  for (Contact& c : contacts_) {
    if (c.peer == contact.peer) {
      c.age = std::min(c.age, contact.age);
      return;
    }
  }
  contacts_.push_back(contact);
}

bool PeerView::Remove(PeerId peer) {
  auto it = std::remove_if(contacts_.begin(), contacts_.end(),
                           [peer](const Contact& c) { return c.peer == peer; });
  bool removed = it != contacts_.end();
  contacts_.erase(it, contacts_.end());
  return removed;
}

void PeerView::AgeAll() {
  for (Contact& c : contacts_) ++c.age;
}

std::optional<Contact> PeerView::Oldest() const {
  if (contacts_.empty()) return std::nullopt;
  return *std::max_element(
      contacts_.begin(), contacts_.end(),
      [](const Contact& a, const Contact& b) { return a.age < b.age; });
}

std::optional<Contact> PeerView::Random(Rng& rng) const {
  if (contacts_.empty()) return std::nullopt;
  return contacts_[rng.Index(contacts_.size())];
}

std::vector<Contact> PeerView::RandomSubset(size_t n, Rng& rng,
                                            PeerId exclude) const {
  std::vector<Contact> pool;
  pool.reserve(contacts_.size());
  for (const Contact& c : contacts_) {
    if (c.peer != exclude) pool.push_back(c);
  }
  rng.Shuffle(pool);
  if (pool.size() > n) pool.resize(n);
  return pool;
}

void PeerView::Merge(const std::vector<Contact>& batch, PeerId self) {
  for (const Contact& c : batch) {
    if (c.peer == self) continue;
    Upsert(c);
  }
}

}  // namespace flowercdn
