#include "obs/stats.h"

#include <utility>

#include "util/logging.h"

namespace flowercdn {

StatsRegistry::StatsRegistry(ClockFn clock, SimDuration bucket)
    : clock_(std::move(clock)), bucket_(bucket) {
  FLOWERCDN_CHECK(clock_ != nullptr);
  FLOWERCDN_CHECK(bucket_ > 0);
}

size_t StatsRegistry::CurrentBucket() const {
  SimTime now = clock_();
  FLOWERCDN_CHECK(now >= 0);
  return static_cast<size_t>(now / bucket_);
}

StatsCounter* StatsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    std::string key(name);
    auto owned =
        std::unique_ptr<StatsCounter>(new StatsCounter(key, this));
    it = counters_.emplace(std::move(key), std::move(owned)).first;
  }
  return it->second.get();
}

StatsGauge* StatsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    std::string key(name);
    auto owned = std::unique_ptr<StatsGauge>(new StatsGauge(key, this));
    it = gauges_.emplace(std::move(key), std::move(owned)).first;
  }
  return it->second.get();
}

uint64_t StatsRegistry::Total(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->total();
}

void StatsCounter::Add(uint64_t n) {
  total_ += n;
  size_t bucket = registry_->CurrentBucket();
  if (series_.size() <= bucket) series_.resize(bucket + 1, 0);
  series_[bucket] += n;
}

void StatsGauge::Set(double value) {
  value_ = value;
  size_t bucket = registry_->CurrentBucket();
  if (series_.size() <= bucket) series_.resize(bucket + 1, 0.0);
  series_[bucket] = value;
}

std::vector<StatsRegistry::CounterSnapshot> StatsRegistry::SnapshotCounters()
    const {
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.push_back(CounterSnapshot{name, counter->total(), counter->series()});
  }
  return out;
}

std::vector<StatsRegistry::GaugeSnapshot> StatsRegistry::SnapshotGauges()
    const {
  std::vector<GaugeSnapshot> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.push_back(GaugeSnapshot{name, gauge->value(), gauge->series()});
  }
  return out;
}

}  // namespace flowercdn
