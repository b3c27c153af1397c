#ifndef FLOWERCDN_GOSSIP_VIEW_H_
#define FLOWERCDN_GOSSIP_VIEW_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/types.h"
#include "util/random.h"

namespace flowercdn {

/// One membership pointer inside a partial view: a peer address plus an age
/// counter (gossip rounds since the information was fresh). Aging is the
/// heart of Cyclon-style self-healing — stale pointers grow old and get
/// shuffled out or validated. This is the message and wire form; a
/// PeerView stores its contacts in half the space.
struct Contact {
  PeerId peer = kInvalidPeer;
  uint32_t age = 0;
};

/// Wire layout of a Contact: peer u64, age u32.
inline constexpr auto kContactWalk = [](auto& v, auto& c) {
  v.U64(c.peer);
  v.U32(c.age);
};

/// A partial view of a cluster: an unbounded list of aged contacts.
/// Flower-CDN content peers keep a view of their petal(ws, loc); the paper
/// leaves views unbounded (they "never surpass 30" in the petal sizes
/// simulated). Every session's view lives for the whole trial, so each
/// contact is stored in 8 B: the peer id in 32 bits (as every scheduled
/// peer's already is, see Network::SchedulePeer) and its age.
class PeerView {
 public:
  /// A contact as the view stores it.
  struct Entry {
    uint32_t peer;
    uint32_t age;
  };

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// The stored contacts, in insertion order.
  std::span<const Entry> entries() const { return entries_; }
  /// A copy of the view as Contacts, in insertion order (message fills).
  std::vector<Contact> ToContacts() const;

  bool Contains(PeerId peer) const;

  /// Inserts or refreshes a contact; keeps the smaller age on refresh.
  /// Ignores kInvalidPeer; dies on a peer id above 2^32 - 1.
  void Upsert(Contact contact);

  /// Removes a peer; returns true if it was present.
  bool Remove(PeerId peer);

  /// Increments every age by one (start of a gossip round).
  void AgeAll();

  /// The contact with the largest age, the first of equals (gossip partner
  /// selection); nullopt when empty.
  std::optional<Contact> Oldest() const;

  /// A uniformly random contact.
  std::optional<Contact> Random(Rng& rng) const;

  /// Up to `n` distinct random contacts, optionally excluding one peer.
  std::vector<Contact> RandomSubset(size_t n, Rng& rng,
                                    PeerId exclude = kInvalidPeer) const;

  /// Merges a batch of received contacts: each is Upsert()ed, skipping
  /// `self` pointers.
  void Merge(const std::vector<Contact>& batch, PeerId self);

  void Clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_GOSSIP_VIEW_H_
