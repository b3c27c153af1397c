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
  while (!queue_.Empty() && queue_.NextTime() <= until) {
    Step();
  }
  if (now_ < until) now_ = until;
}

bool Simulator::Step() {
  FiredEvent event;
  if (!queue_.Pop(&event)) return false;
  FLOWERCDN_CHECK(event.when >= now_) << "event queue went backwards";
  now_ = event.when;
  ++events_processed_;
  if (event.guard.active() &&
      !event.guard.check(event.guard.ctx, event.guard.peer,
                         event.guard.incarnation)) {
    return true;  // stale guarded timer suppressed
  }
  event.fn();
  return true;
}

}  // namespace flowercdn
