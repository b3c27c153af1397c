#ifndef FLOWERCDN_CHORD_LOOKUP_H_
#define FLOWERCDN_CHORD_LOOKUP_H_

#include "chord/id.h"
#include "sim/message.h"
#include "sim/rpc.h"
#include "sim/types.h"
#include "util/function.h"
#include "util/status.h"

namespace flowercdn {

class ChordNode;

/// `owner` is meaningful iff `status.ok()`; `hops` counts the forwarding
/// steps of the answering attempt, -1 when no answer came back.
using LookupCallback =
    MoveOnlyFn<void(const Status& status, RingPeer owner, int hops)>;

/// Where a routed lookup starts and how long its origin waits.
struct LookupRoute {
  /// Ring member the query is delegated to by an origin outside the ring
  /// (paper §3.2), or kInvalidPeer to route it from `router`.
  PeerId via = kInvalidPeer;
  ChordNode* router = nullptr;  // the origin's own ring node
  SimDuration attempt_timeout = 0;  // end to end, per attempt
  /// Deadline of `via`'s ack: a delegate that does not ack ends the attempt
  /// at once.
  SimDuration ack_timeout = 0;
  /// An attempt that times out or whose delegate does not ack is retried
  /// under the same lookup id until this many have run.
  int max_attempts = 1;
};

/// The origin side of a routed Chord lookup, one path for ring members and
/// outside peers alike: draws the lookup id, arms each attempt's deadline,
/// delegates or routes the query, retries, and calls `done` once. The host
/// hands the answer, a ChordLookupResultMsg, to ClaimLookupResult on `rpc`.
/// Nothing is kept per peer: the lookup in flight is an id awaited on `rpc`
/// (RpcEndpoint::Await) whose handler owns it. It fails with TimedOut,
/// with Unavailable when the last delegate does not ack, with
/// FailedPrecondition when `router` has left the ring, or with the status
/// given to RpcEndpoint::FailAwaited.
void StartLookup(RpcEndpoint* rpc, ChordId key, const LookupRoute& route,
                 LookupCallback done);

/// Completes the lookup of `rpc` that `msg`, a ChordLookupResultMsg,
/// answers. False, with `msg` untouched, for other messages and for answers
/// `rpc` does not await (late, duplicate or foreign).
bool ClaimLookupResult(RpcEndpoint* rpc, MessagePtr& msg);

}  // namespace flowercdn

#endif  // FLOWERCDN_CHORD_LOOKUP_H_
