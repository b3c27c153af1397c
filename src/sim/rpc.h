#ifndef FLOWERCDN_SIM_RPC_H_
#define FLOWERCDN_SIM_RPC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/message.h"
#include "sim/types.h"
#include "simcore/scheduler.h"
#include "util/function.h"
#include "util/status.h"

namespace flowercdn {

class Network;
class RpcEndpoint;

/// The calls in flight on one Network, for every RpcEndpoint on it. A
/// simulation holds hundreds of thousands of endpoints but only hundreds
/// of calls in flight at once, so the state of a call lives here, sized to
/// the live calls, and an endpoint keeps only the head of a list through
/// its own calls.
///
/// Calls sit in a slab of slots; a freed slot is reused by the next call,
/// so the slab grows only to the peak number of calls in flight. Responses
/// find their slot through an open-addressing index keyed by rpc id
/// (linear probing, backward-shift delete, at most half full). The same
/// table holds awaited ids (RpcEndpoint::Await): waits for a one-way answer
/// that names an id, such as a routed lookup's result.
class RpcCallTable {
 public:
  /// `msg` is non-null iff `status.ok()`.
  using Handler = MoveOnlyFn<void(const Status& status, MessagePtr msg)>;

  static constexpr uint32_t kNone = UINT32_MAX;

  struct Call {
    uint64_t id = 0;  // 0 while the slot is free
    RpcEndpoint* owner = nullptr;
    // Links of the owner's list; `next` links the free list while free.
    uint32_t prev = kNone;
    uint32_t next = kNone;
    EventId timeout_event = kInvalidEvent;
    /// An awaited id rather than a call.
    bool awaited = false;
    Handler handler;
  };

  /// Records call (or awaited id) `id` of `owner` at the front of the list
  /// that starts at `*head`.
  void Add(uint64_t id, RpcEndpoint* owner, uint32_t* head,
           EventId timeout_event, Handler handler, bool awaited = false);

  /// Slot of call `id`, or kNone.
  uint32_t Find(uint64_t id) const;

  const Call& at(uint32_t slot) const { return slots_[slot]; }

  /// Unlinks `slot` from the list that starts at `*head`, frees it and
  /// returns its handler.
  Handler Remove(uint32_t slot, uint32_t* head);

  /// Calls in flight.
  size_t live() const { return live_; }
  /// Slots allocated: the most calls ever in flight at once.
  size_t slots() const { return slots_.size(); }

 private:
  struct IndexEntry {
    uint64_t id = 0;  // 0: empty bucket
    uint32_t slot = kNone;
  };

  size_t Home(uint64_t id) const;
  /// Doubles the index and re-inserts every live call.
  void GrowIndex();
  void IndexInsert(uint64_t id, uint32_t slot);
  void IndexErase(uint64_t id);

  std::vector<Call> slots_;
  uint32_t free_ = kNone;
  size_t live_ = 0;
  std::vector<IndexEntry> index_;  // size is zero or a power of two
  int index_shift_ = 64;           // 64 - log2(index_.size())
};

/// Request/response correlation with timeouts on top of Network::Send.
///
/// Failure detection in the simulation works exactly as in a deployed P2P
/// system: a peer never learns synchronously that a target is dead — its
/// request is silently dropped and the caller's timeout fires. Protocols
/// react to `Status::TimedOut` by repairing their state (removing the
/// contact, rerouting, replacing a directory peer, ...).
///
/// The calls themselves live in the Network's RpcCallTable; an endpoint
/// holds only the head of the list through its own, so an idle session
/// keeps no RPC state.
///
/// One endpoint per live session object. The owner must:
///  * call `Bind()` right after Network::Attach (timeouts are
///    incarnation-guarded through it), and
///  * offer every received `is_response` message to `HandleResponse()`.
class RpcEndpoint {
 public:
  using ResponseHandler = RpcCallTable::Handler;

  RpcEndpoint(Network* network, PeerId self);
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;
  ~RpcEndpoint() { CancelAll(); }

  /// Tears down every pending call and awaited id without invoking its
  /// handler: cancels the calls' timeout events and reports their count to
  /// Network::TrafficBreakdown::rpc_cancelled. Must run when the owner's
  /// session detaches (the destructor calls it) so stale TimedOut closures
  /// can never outlive the session that created them. Idempotent. Returns
  /// the number of calls cancelled. An awaited id is not counted, and its
  /// timeout, guarded by the incarnation, fires and finds no entry.
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

  /// Waits for a one-way message that answers `id`, a Network::NextRpcId
  /// value the caller put into a request (a routed lookup's id). `handler`
  /// runs exactly once: through EndWait or FailAwaited, or with TimedOut
  /// after `timeout`. The id may be awaited again once its handler has run.
  void Await(uint64_t id, SimDuration timeout, ResponseHandler handler);

  /// Ends the wait for `id` now: its handler runs with `status` and, when
  /// `status` is OK, the answer `*msg`. Returns false, leaving `*msg`
  /// untouched, when this endpoint does not await `id` (a late, duplicate
  /// or foreign answer).
  bool EndWait(uint64_t id, const Status& status, MessagePtr* msg = nullptr);

  /// Ends every wait of this endpoint with `status`, oldest first, and
  /// leaves its calls alone. Waits the handlers start are not ended.
  void FailAwaited(const Status& status);

  size_t pending_calls() const { return count_; }
  size_t awaited() const { return awaited_; }
  PeerId self() const { return self_; }
  /// The incarnation last bound, 0 before the first Bind().
  Incarnation incarnation() const { return incarnation_; }
  Network* network() const { return network_; }

 private:
  /// Slot of call (or, if `awaited`, awaited id) `id` of this endpoint, or
  /// RpcCallTable::kNone.
  uint32_t FindOwn(uint64_t id, bool awaited) const;
  /// Removes `slot` from this endpoint's list and the table; returns its
  /// handler.
  ResponseHandler Take(uint32_t slot);

  Network* network_;
  PeerId self_;
  Incarnation incarnation_ = 0;
  uint32_t head_ = RpcCallTable::kNone;  // this endpoint's calls and waits
  uint32_t count_ = 0;                   // calls
  uint32_t awaited_ = 0;                 // awaited ids
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SIM_RPC_H_
