#include "flower/dring_resolver.h"

#include <utility>

#include "util/logging.h"

namespace flowercdn {

DRingResolver::DRingResolver(Network* network, PeerId self)
    : network_(network), self_(self), rpc_(network, self) {}

void DRingResolver::Bind(Incarnation incarnation) {
  incarnation_ = incarnation;
  rpc_.Bind(incarnation);
}

void DRingResolver::Resolve(PeerId via, ChordId key, SimDuration timeout,
                            Callback cb) {
  uint64_t lookup_id = network_->NextRpcId();
  EventId timeout_event = network_->SchedulePeer(
      self_, incarnation_, timeout, [this, lookup_id]() {
        Complete(lookup_id, Status::TimedOut("D-ring lookup"), RingPeer{},
                 /*hops=*/-1);
      });
  pending_.push_back(Pending{lookup_id, std::move(cb), timeout_event});

  auto req = std::make_unique<ChordFindSuccessorMsg>();
  req->key = key;
  req->origin = self_;
  req->lookup_id = lookup_id;
  req->hops = 0;
  // Short ack round-trip: if the bootstrap itself is dead we fail fast
  // instead of waiting out the full lookup timeout.
  rpc_.Call(via, std::move(req), 1500 * kMillisecond,
            [this, lookup_id](const Status& status, MessagePtr) {
              if (status.ok()) return;  // acked; the answer will be routed
              Complete(lookup_id,
                       Status::Unavailable("D-ring bootstrap unreachable"),
                       RingPeer{}, /*hops=*/-1);
            });
}

bool DRingResolver::HandleMessage(MessagePtr& msg) {
  if (msg->is_response) return rpc_.HandleResponse(msg);
  if (msg->type != kChordLookupResult) return false;
  const auto& result = MessageCast<ChordLookupResultMsg>(*msg);
  if (FindPending(result.lookup_id) == static_cast<size_t>(-1)) {
    return false;  // not one of ours (e.g. the host's ChordNode owns it)
  }
  Complete(result.lookup_id, Status::OK(), result.owner, result.hops);
  return true;
}

void DRingResolver::Complete(uint64_t lookup_id, const Status& status,
                             RingPeer owner, int hops) {
  size_t i = FindPending(lookup_id);
  if (i == static_cast<size_t>(-1)) return;
  network_->sim()->Cancel(pending_[i].timeout_event);
  Callback cb = std::move(pending_[i].cb);
  if (i != pending_.size() - 1) pending_[i] = std::move(pending_.back());
  pending_.pop_back();
  cb(status, owner, hops);
}

size_t DRingResolver::FindPending(uint64_t lookup_id) const {
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].lookup_id == lookup_id) return i;
  }
  return static_cast<size_t>(-1);
}

}  // namespace flowercdn
