#ifndef FLOWERCDN_SIM_RPC_H_
#define FLOWERCDN_SIM_RPC_H_

#include <functional>
#include <vector>

#include "sim/message.h"
#include "sim/network.h"
#include "util/status.h"

namespace flowercdn {

/// Request/response correlation with timeouts on top of Network::Send.
///
/// Failure detection in the simulation works exactly as in a deployed P2P
/// system: a peer never learns synchronously that a target is dead — its
/// request is silently dropped and the caller's timeout fires. Protocols
/// react to `Status::TimedOut` by repairing their state (removing the
/// contact, rerouting, replacing a directory peer, ...).
///
/// One endpoint per live session object. The owner must:
///  * call `Bind()` right after Network::Attach (timeouts are
///    incarnation-guarded through it), and
///  * offer every received `is_response` message to `HandleResponse()`.
class RpcEndpoint {
 public:
  /// `msg` is non-null iff `status.ok()`.
  using ResponseHandler = std::function<void(const Status& status,
                                             MessagePtr msg)>;

  RpcEndpoint(Network* network, PeerId self);
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;
  ~RpcEndpoint() { CancelAll(); }

  /// Tears down every pending call without invoking its handler: cancels
  /// the timeout events and reports the count to
  /// Network::TrafficBreakdown::rpc_cancelled. Must run when the owner's
  /// session detaches (the destructor calls it) so stale TimedOut closures
  /// can never outlive the session that created them. Idempotent. Returns
  /// the number of calls cancelled.
  size_t CancelAll();

  /// Associates the endpoint with the owner's current incarnation.
  void Bind(Incarnation incarnation) { incarnation_ = incarnation; }

  /// Sends `request` to `dst` and invokes `handler` exactly once: with the
  /// response, or with TimedOut after `timeout`. Returns the rpc id.
  uint64_t Call(PeerId dst, MessagePtr request, SimDuration timeout,
                ResponseHandler handler);

  /// Consumes a response message if it matches a pending call here. Returns
  /// false for non-responses and for responses this endpoint is not waiting
  /// on (late arrivals after a timeout, or calls made by a different
  /// endpoint of the same host) — the host then tries its other endpoints
  /// and finally drops the message. On true, `msg` has been consumed
  /// (moved from); on false it is left untouched.
  bool HandleResponse(MessagePtr& msg);

  /// Sends `response` answering `request` (copies the correlation id and
  /// addresses it back to the requester).
  void Respond(const Message& request, MessagePtr response);

  /// Answers `request` with a refusal (kRpcRefused): the caller's handler
  /// sees Status::Unavailable at once instead of waiting out its timeout.
  void Refuse(const Message& request);

  size_t pending_calls() const { return pending_.size(); }
  PeerId self() const { return self_; }

 private:
  // A peer rarely has more than a handful of calls in flight, so the
  // pending table is a flat vector scanned linearly — cheaper than a hash
  // map at these sizes, and erase is swap-with-back (completion order
  // carries no protocol meaning).
  struct Pending {
    uint64_t id;
    ResponseHandler handler;
    EventId timeout_event;
  };

  /// Index of rpc `id` in pending_, or SIZE_MAX.
  size_t FindPending(uint64_t id) const;

  Network* network_;
  PeerId self_;
  Incarnation incarnation_ = 0;
  std::vector<Pending> pending_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SIM_RPC_H_
