#include "sim/rpc.h"

#include <utility>

#include "util/logging.h"

namespace flowercdn {

RpcEndpoint::RpcEndpoint(Network* network, PeerId self)
    : network_(network), self_(self) {
  FLOWERCDN_CHECK(network != nullptr);
}

size_t RpcEndpoint::CancelAll() {
  size_t n = pending_.size();
  if (n == 0) return 0;
  for (auto& pending : pending_) {
    network_->sim()->Cancel(pending.timeout_event);
  }
  pending_.clear();
  network_->NoteRpcCancelled(n);
  return n;
}

size_t RpcEndpoint::FindPending(uint64_t id) const {
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].id == id) return i;
  }
  return static_cast<size_t>(-1);
}

uint64_t RpcEndpoint::Call(PeerId dst, MessagePtr request, SimDuration timeout,
                           ResponseHandler handler) {
  FLOWERCDN_CHECK(request != nullptr);
  FLOWERCDN_CHECK(timeout > 0);
  uint64_t id = network_->NextRpcId();
  request->rpc_id = id;
  request->is_response = false;

  EventId timeout_event = network_->SchedulePeer(
      self_, incarnation_, timeout, [this, id, dst]() {
        size_t i = FindPending(id);
        if (i == static_cast<size_t>(-1)) return;  // answered in time
        ResponseHandler handler = std::move(pending_[i].handler);
        if (i != pending_.size() - 1) pending_[i] = std::move(pending_.back());
        pending_.pop_back();
        handler(Status::TimedOut("rpc to peer " + std::to_string(dst)),
                nullptr);
      });

  pending_.push_back(Pending{id, std::move(handler), timeout_event});
  network_->Send(self_, dst, std::move(request));
  return id;
}

bool RpcEndpoint::HandleResponse(MessagePtr& msg) {
  FLOWERCDN_CHECK(msg != nullptr);
  if (!msg->is_response || msg->rpc_id == 0) return false;
  size_t i = FindPending(msg->rpc_id);
  if (i == static_cast<size_t>(-1)) {
    // Not ours (another endpoint of the host) or late: the caller decides;
    // unclaimed responses are dropped by the host.
    return false;
  }
  network_->sim()->Cancel(pending_[i].timeout_event);
  ResponseHandler handler = std::move(pending_[i].handler);
  if (i != pending_.size() - 1) pending_[i] = std::move(pending_.back());
  pending_.pop_back();
  if (msg->type == kTransportNack) {
    handler(Status::Unavailable("peer unreachable (transport nack)"),
            nullptr);
  } else if (msg->type == kRpcRefused) {
    handler(Status::Unavailable("request refused by peer"), nullptr);
  } else {
    handler(Status::OK(), std::move(msg));
  }
  return true;
}

void RpcEndpoint::Respond(const Message& request, MessagePtr response) {
  FLOWERCDN_CHECK(response != nullptr);
  FLOWERCDN_CHECK(request.rpc_id != 0) << "responding to a one-way message";
  response->rpc_id = request.rpc_id;
  response->is_response = true;
  network_->Send(self_, request.src, std::move(response));
}

void RpcEndpoint::Refuse(const Message& request) {
  Respond(request, std::make_unique<RpcRefusedMsg>());
}

}  // namespace flowercdn
