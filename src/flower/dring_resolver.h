#ifndef FLOWERCDN_FLOWER_DRING_RESOLVER_H_
#define FLOWERCDN_FLOWER_DRING_RESOLVER_H_

#include <functional>
#include <vector>

#include "chord/messages.h"
#include "sim/network.h"
#include "sim/rpc.h"
#include "util/status.h"

namespace flowercdn {

/// D-ring access for peers that are *not* D-ring members (clients and
/// content peers): ships a find-successor query to a known directory peer
/// (the bootstrap) and awaits the routed answer. This is how "a client
/// submits its query to D-ring" (paper §3.2) without being part of the DHT.
class DRingResolver {
 public:
  /// `hops` is the Chord routing hop count of the lookup (-1 when the
  /// lookup failed before an answer was routed back).
  using Callback =
      std::function<void(const Status& status, RingPeer owner, int hops)>;

  DRingResolver(Network* network, PeerId self);
  DRingResolver(const DRingResolver&) = delete;
  DRingResolver& operator=(const DRingResolver&) = delete;

  void Bind(Incarnation incarnation);

  /// Resolves successor(key) by delegating to `via` (a live D-ring member).
  /// Fails fast with Unavailable when `via` does not ack, TimedOut when the
  /// routed answer never arrives.
  void Resolve(PeerId via, ChordId key, SimDuration timeout, Callback cb);

  /// Claims routed lookup answers and acks addressed to this resolver.
  bool HandleMessage(MessagePtr& msg);

  size_t pending() const { return pending_.size(); }

 private:
  void Complete(uint64_t lookup_id, const Status& status, RingPeer owner,
                int hops);

  // A flat vector scanned linearly: a session has at most a few lookups
  // in flight, and a hash map's bucket array would outlive its entries in
  // every session that ever resolved.
  struct Pending {
    uint64_t lookup_id;
    Callback cb;
    EventId timeout_event;
  };

  /// Index of lookup `lookup_id` in pending_, or SIZE_MAX.
  size_t FindPending(uint64_t lookup_id) const;

  Network* network_;
  PeerId self_;
  RpcEndpoint rpc_;
  Incarnation incarnation_ = 0;
  std::vector<Pending> pending_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_FLOWER_DRING_RESOLVER_H_
