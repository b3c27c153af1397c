#ifndef FLOWERCDN_OBS_STATS_H_
#define FLOWERCDN_OBS_STATS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.h"

namespace flowercdn {

class StatsRegistry;

/// Monotonic named counter with a per-time-bucket series: every Add() lands
/// in the bucket of the registry clock's current time, so the series reads
/// as "events per simulated hour" (or whatever bucket the registry uses).
class StatsCounter {
 public:
  void Add(uint64_t n = 1);

  const std::string& name() const { return name_; }
  uint64_t total() const { return total_; }
  /// Bucket b covers simulated time [b*bucket, (b+1)*bucket). Trailing
  /// buckets that saw no events are absent (the vector only grows up to the
  /// last bucket with activity).
  const std::vector<uint64_t>& series() const { return series_; }

 private:
  friend class StatsRegistry;
  StatsCounter(std::string name, const StatsRegistry* registry)
      : name_(std::move(name)), registry_(registry) {}

  std::string name_;
  const StatsRegistry* registry_;
  uint64_t total_ = 0;
  std::vector<uint64_t> series_;
};

/// Named gauge: a level (not a rate). Remembers the last value set overall
/// and per time bucket, so sampled state (alive peers, ring size) exports
/// as an hourly series.
class StatsGauge {
 public:
  void Set(double value);

  const std::string& name() const { return name_; }
  double value() const { return value_; }
  const std::vector<double>& series() const { return series_; }

 private:
  friend class StatsRegistry;
  StatsGauge(std::string name, const StatsRegistry* registry)
      : name_(std::move(name)), registry_(registry) {}

  std::string name_;
  const StatsRegistry* registry_;
  double value_ = 0;
  std::vector<double> series_;
};

/// Registry of named counters and gauges, each with a per-time-bucket
/// series driven by an injected clock (the Simulator's virtual time in
/// experiments, a fake in tests). Registration is idempotent: looking up a
/// name creates the instrument on first use, so call sites never need
/// set-up order. Deterministic by construction — state depends only on the
/// (deterministic) sequence of Add/Set calls, and snapshots iterate in name
/// order.
class StatsRegistry {
 public:
  using ClockFn = std::function<SimTime()>;

  explicit StatsRegistry(ClockFn clock, SimDuration bucket = kHour);
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// The counter/gauge named `name`, created on first use. Pointers stay
  /// valid for the registry's lifetime (hot call sites may cache them).
  StatsCounter* counter(std::string_view name);
  StatsGauge* gauge(std::string_view name);

  /// Convenience one-shot forms.
  void Add(std::string_view name, uint64_t n = 1) { counter(name)->Add(n); }
  void Set(std::string_view name, double value) { gauge(name)->Set(value); }

  /// Total of the counter named `name`; 0 when nothing has counted it yet.
  /// Reading never creates the counter, so it never changes an export.
  uint64_t Total(std::string_view name) const;

  SimDuration bucket() const { return bucket_; }
  SimTime now() const { return clock_(); }
  /// Index of the bucket the current time falls into.
  size_t CurrentBucket() const;

  /// Point-in-time copy of one instrument, for export.
  struct CounterSnapshot {
    std::string name;
    uint64_t total = 0;
    std::vector<uint64_t> series;
  };
  struct GaugeSnapshot {
    std::string name;
    double value = 0;
    std::vector<double> series;
  };

  /// All instruments, sorted by name (byte-stable export order).
  std::vector<CounterSnapshot> SnapshotCounters() const;
  std::vector<GaugeSnapshot> SnapshotGauges() const;

 private:
  ClockFn clock_;
  SimDuration bucket_;
  // Ordered maps: snapshot order == name order with no extra sort.
  std::map<std::string, std::unique_ptr<StatsCounter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<StatsGauge>, std::less<>> gauges_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_OBS_STATS_H_
