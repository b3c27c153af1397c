#include "chaos/probe.h"

#include "util/logging.h"

namespace flowercdn {

void RecoveryProbe::AddSample(SimTime t, uint64_t queries, uint64_t hits) {
  if (!samples_.empty()) {
    FLOWERCDN_CHECK(t >= samples_.back().t) << "samples must be in time order";
    FLOWERCDN_CHECK(queries >= samples_.back().queries);
    FLOWERCDN_CHECK(hits >= samples_.back().hits);
  }
  samples_.push_back(Sample{t, queries, hits});
  if (!event_marked_) return;

  double ratio = RatioAt(samples_.size() - 1);
  if (ratio < dip_min_) {
    dip_min_ = ratio;
    dip_min_time_ = t;
  }
  double floor = baseline_ - kTolerance;
  if (!dipped_) {
    if (ratio < floor) dipped_ = true;
  } else if (!recovered_ && ratio >= floor) {
    recovered_ = true;
    recovery_time_ = t;
  }
}

void RecoveryProbe::MarkEventStart(SimTime t) {
  if (event_marked_) return;
  event_marked_ = true;
  event_time_ = t;
  baseline_ = WindowedRatio();
  dip_min_ = baseline_;
  dip_min_time_ = t;
}

double RecoveryProbe::WindowedRatio() const {
  if (samples_.empty()) return 0;
  return RatioAt(samples_.size() - 1);
}

double RecoveryProbe::RatioAt(size_t i) const {
  const Sample& end = samples_[i];
  SimTime window_start =
      end.t >= params_.window ? end.t - params_.window : 0;
  // Latest sample at or before the window start (cumulative totals, so the
  // difference covers exactly the window).
  size_t j = i;
  while (j > 0 && samples_[j - 1].t > window_start) --j;
  Sample begin;
  if (j > 0) begin = samples_[j - 1];
  uint64_t queries = end.queries - begin.queries;
  uint64_t hits = end.hits - begin.hits;
  return queries ? static_cast<double>(hits) / queries : 0.0;
}

double RecoveryProbe::recovery_ms() const {
  if (!event_marked_ || !dipped_) return 0;
  if (!recovered_) return -1;
  return static_cast<double>(recovery_time_ - event_time_);
}

}  // namespace flowercdn
