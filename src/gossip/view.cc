#include "gossip/view.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace flowercdn {

namespace {

Contact ToContact(const PeerView::Entry& e) { return Contact{e.peer, e.age}; }

}  // namespace

std::vector<Contact> PeerView::ToContacts() const {
  std::vector<Contact> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(ToContact(e));
  return out;
}

bool PeerView::Contains(PeerId peer) const {
  for (const Entry& e : entries_) {
    if (e.peer == peer) return true;
  }
  return false;
}

void PeerView::Upsert(Contact contact) {
  if (contact.peer == kInvalidPeer) return;
  FLOWERCDN_CHECK(contact.peer <= std::numeric_limits<uint32_t>::max())
      << "peer " << contact.peer << " does not fit a view entry";
  for (Entry& e : entries_) {
    if (e.peer == contact.peer) {
      e.age = std::min(e.age, contact.age);
      return;
    }
  }
  entries_.push_back(Entry{static_cast<uint32_t>(contact.peer), contact.age});
}

bool PeerView::Remove(PeerId peer) {
  auto it = std::remove_if(entries_.begin(), entries_.end(),
                           [peer](const Entry& e) { return e.peer == peer; });
  bool removed = it != entries_.end();
  entries_.erase(it, entries_.end());
  return removed;
}

void PeerView::AgeAll() {
  for (Entry& e : entries_) ++e.age;
}

std::optional<Contact> PeerView::Oldest() const {
  if (entries_.empty()) return std::nullopt;
  return ToContact(*std::max_element(
      entries_.begin(), entries_.end(),
      [](const Entry& a, const Entry& b) { return a.age < b.age; }));
}

std::optional<Contact> PeerView::Random(Rng& rng) const {
  if (entries_.empty()) return std::nullopt;
  return ToContact(entries_[rng.Index(entries_.size())]);
}

std::vector<Contact> PeerView::RandomSubset(size_t n, Rng& rng,
                                            PeerId exclude) const {
  std::vector<Contact> pool;
  pool.reserve(entries_.size());
  for (const Entry& e : entries_) {
    if (e.peer != exclude) pool.push_back(ToContact(e));
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
