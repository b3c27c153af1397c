#ifndef FLOWERCDN_SIM_SIMULATOR_H_
#define FLOWERCDN_SIM_SIMULATOR_H_

#include <cstdint>
#include <utility>

#include "simcore/ladder_queue.h"
#include "sim/types.h"
#include "util/logging.h"

namespace flowercdn {

/// Single-threaded discrete-event simulator: a virtual clock plus an event
/// scheduler. All protocol activity (message deliveries, timers, churn)
/// runs as events; between events no simulated time passes, which is
/// exactly the PeerSim event-driven model the paper's evaluation uses.
/// Events pop from the simcore LadderQueue in (time, insertion) order.
class Simulator {
 public:
  /// Construction installs this simulator's clock as the thread's log time
  /// source, so log lines carry simulated time while the run is active.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` (>= 0) after now.
  EventId Schedule(SimDuration delay, EventFn fn) {
    FLOWERCDN_CHECK(delay >= 0) << "negative delay " << delay;
    return queue_.Push(now_ + delay, std::move(fn), EventGuard{});
  }

  /// Schedules `fn` at an absolute time (>= now).
  EventId ScheduleAt(SimTime when, EventFn fn) {
    FLOWERCDN_CHECK(when >= now_) << "schedule in the past";
    return queue_.Push(when, std::move(fn), EventGuard{});
  }

  /// Schedules `fn` with a liveness guard evaluated at fire time: when the
  /// installed guard check fails the callback is silently skipped (it still
  /// counts as a processed event). The guard lives in the scheduler node,
  /// so — unlike wrapping `fn` in a checking lambda — guarded timers cost
  /// no extra allocation no matter how large `fn`'s captures are.
  EventId ScheduleGuarded(SimDuration delay, EventGuard guard, EventFn fn) {
    FLOWERCDN_CHECK(delay >= 0) << "negative delay " << delay;
    FLOWERCDN_CHECK(guard_check_ != nullptr) << "no guard check installed";
    return queue_.Push(now_ + delay, std::move(fn), guard);
  }

  /// Installs the check every guarded event runs at fire time (the Network
  /// does, once, for its session guards); `check == nullptr` uninstalls.
  /// One check per simulator: installing over another one is an error.
  void SetGuardCheck(GuardCheck check, void* ctx) {
    FLOWERCDN_CHECK(check == nullptr || guard_check_ == nullptr)
        << "guard check already installed";
    guard_check_ = check;
    guard_ctx_ = ctx;
  }

  /// Cancels a scheduled event (no-op if already fired).
  void Cancel(EventId id) { queue_.Cancel(id); }

  /// Processes events in timestamp order until the queue drains.
  void Run();

  /// Processes events with timestamp <= `until`, then advances the clock to
  /// exactly `until` (even if no event fired at that instant).
  void RunUntil(SimTime until);

  /// Processes at most one event; returns false if the queue was empty.
  bool Step();

  /// Number of events dispatched so far (including guard-suppressed ones).
  uint64_t events_processed() const { return events_processed_; }

  /// Number of scheduled events cancelled before firing.
  uint64_t events_cancelled() const { return queue_.cancelled_total(); }

  /// Timestamp of the earliest pending event, or -1 when the queue is
  /// empty. Lets a real-time pacer (src/net NodeHost) sleep in epoll for
  /// exactly the gap until the next due event instead of busy-stepping.
  SimTime NextEventTime() {
    return queue_.Empty() ? -1 : queue_.NextTime();
  }

  /// Number of events currently pending.
  size_t pending_events() const { return queue_.Size(); }

  /// Most event nodes the scheduler ever held at once (pending events plus
  /// cancelled ones not yet reclaimed): what the event slab costs, at 64 B
  /// a node.
  size_t pending_events_peak() const { return queue_.slots_peak(); }

 private:
  /// Advances the clock to `event` and runs it unless its guard fails.
  void Dispatch(FiredEvent& event);

  SimTime now_ = 0;
  LadderQueue queue_;
  uint64_t events_processed_ = 0;
  GuardCheck guard_check_ = nullptr;
  void* guard_ctx_ = nullptr;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SIM_SIMULATOR_H_
