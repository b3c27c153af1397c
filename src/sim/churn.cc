#include "sim/churn.h"

#include <cmath>
#include <utility>

#include "util/logging.h"

namespace flowercdn {

ChurnProcess::ChurnProcess(Simulator* sim, Rng rng, const Params& params)
    : sim_(sim), rng_(rng), params_(params) {
  FLOWERCDN_CHECK(sim != nullptr);
  FLOWERCDN_CHECK(params.mean_uptime > 0);
}

void ChurnProcess::SetHandlers(ArrivalFn on_arrival, FailureFn on_failure) {
  on_arrival_ = std::move(on_arrival);
  on_failure_ = std::move(on_failure);
}

void ChurnProcess::AddOfflineIdentity(PeerId peer) { PushOffline(peer); }

void ChurnProcess::StartSession(PeerId peer) {
  ++online_count_;
  if (!params_.enabled) return;
  double uptime =
      rng_.Exponential(static_cast<double>(params_.mean_uptime)) /
      rate_multiplier_;
  SimDuration lifetime = std::max<SimDuration>(
      static_cast<SimDuration>(std::llround(uptime)), 1);
  sim_->Schedule(lifetime, [this, peer]() {
    --online_count_;
    ++total_failures_;
    PushOffline(peer);
    if (on_failure_) on_failure_(peer);
  });
}

void ChurnProcess::Start() {
  if (!params_.enabled && params_.arrival_rate_per_ms == 0) return;
  FLOWERCDN_CHECK(params_.arrival_rate_per_ms > 0)
      << "churn enabled but arrival rate is zero";
  ScheduleNextArrival();
}

void ChurnProcess::SetRateMultiplier(double m) {
  FLOWERCDN_CHECK(m > 0) << "churn rate multiplier must be positive";
  rate_multiplier_ = m;
}

void ChurnProcess::ScheduleNextArrival() {
  double gap =
      rng_.Exponential(1.0 / params_.arrival_rate_per_ms) / rate_multiplier_;
  SimDuration delay = std::max<SimDuration>(
      static_cast<SimDuration>(std::llround(gap)), 1);
  sim_->Schedule(delay, [this]() { OnArrivalTick(); });
}

void ChurnProcess::OnArrivalTick() {
  // Without failures nothing leaves, so once P peers are online the
  // population has converged and no further arrival is needed.
  if (!params_.enabled &&
      static_cast<double>(online_count_) >=
          params_.arrival_rate_per_ms *
              static_cast<double>(params_.mean_uptime)) {
    return;
  }
  if (!offline_.empty()) {
    PeerId peer = PopRandomOffline();
    ++total_arrivals_;
    StartSession(peer);
    if (on_arrival_) on_arrival_(peer);
  }
  ScheduleNextArrival();
}

PeerId ChurnProcess::PopRandomOffline() {
  size_t idx = rng_.Index(offline_.size());
  PeerId peer = offline_[idx];
  PeerId moved = offline_.back();
  offline_[idx] = moved;
  offline_index_[moved] = idx;
  offline_.pop_back();
  offline_index_.erase(peer);
  return peer;
}

void ChurnProcess::PushOffline(PeerId peer) {
  FLOWERCDN_CHECK(offline_index_.count(peer) == 0)
      << "peer " << peer << " already offline";
  offline_index_[peer] = offline_.size();
  offline_.push_back(peer);
}

}  // namespace flowercdn
