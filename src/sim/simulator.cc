#include "sim/simulator.h"

namespace flowercdn {

Simulator::Simulator() {
  SetLogTimeSource(
      [](const void* ctx) {
        return static_cast<const Simulator*>(ctx)->now();
      },
      this);
}

Simulator::~Simulator() { ClearLogTimeSource(this); }

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime until) {
  while (true) {
    FiredEvent event;  // per event: its closure dies right after it runs
    if (!queue_.PopUntil(until, &event)) break;
    Dispatch(event);
  }
  if (now_ < until) now_ = until;
}

bool Simulator::Step() {
  FiredEvent event;
  if (!queue_.Pop(&event)) return false;
  Dispatch(event);
  return true;
}

void Simulator::Dispatch(FiredEvent& event) {
  FLOWERCDN_CHECK(event.when >= now_) << "event queue went backwards";
  now_ = event.when;
  ++events_processed_;
  if (event.guard.active() &&
      !guard_check_(guard_ctx_, event.guard.peer, event.guard.incarnation)) {
    return;  // stale guarded timer suppressed
  }
  event.fn();
}

}  // namespace flowercdn
