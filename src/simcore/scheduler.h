#ifndef FLOWERCDN_SIMCORE_SCHEDULER_H_
#define FLOWERCDN_SIMCORE_SCHEDULER_H_

#include <cstdint>

#include "sim/types.h"
#include "util/function.h"

namespace flowercdn {

/// Handle for a scheduled event; usable to cancel it before it fires. The
/// encoding is private to the scheduler (the ladder queue packs a slab slot
/// + generation) — callers must treat ids as opaque.
using EventId = uint64_t;

constexpr EventId kInvalidEvent = 0;

/// Liveness guard attached to an event at schedule time: the (peer,
/// incarnation) the event belongs to. The kernel stores it out-of-line from
/// the callback, so incarnation-guarded timers (every protocol timer in the
/// simulation) need no wrapper closure — and thus no heap allocation for
/// the nested callable. The check itself is not stored per event: the
/// simulator holds one GuardCheck (installed by its Network) and calls it
/// at fire time; a false result suppresses the callback (the event still
/// counts as executed, exactly like the old wrapper-lambda early-return).
struct EventGuard {
  PeerId peer = kInvalidPeer;  // kInvalidPeer: unguarded
  Incarnation incarnation = 0;

  bool active() const { return peer != kInvalidPeer; }
};

/// Fire-time liveness check for guarded events: true iff `peer` is still in
/// session `incarnation`.
using GuardCheck = bool (*)(void* ctx, PeerId peer, Incarnation incarnation);

/// One popped event: firing time, callback, and (possibly inactive) guard.
struct FiredEvent {
  SimTime when = 0;
  EventFn fn;
  EventGuard guard;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SIMCORE_SCHEDULER_H_
