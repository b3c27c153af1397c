#ifndef FLOWERCDN_CHAOS_PROBE_H_
#define FLOWERCDN_CHAOS_PROBE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_injector.h"
#include "sim/types.h"
#include "storage/object_id.h"

namespace flowercdn {

/// Tracks the windowed hit ratio through a chaos scenario and derives the
/// paper-facing recovery metrics: the pre-fault baseline, the depth of the
/// dip the faults cause, and how long the system takes to climb back.
///
/// Feed it cumulative (queries, hits) totals at a fixed cadence; it
/// computes the trailing-window ratio from consecutive samples. All state
/// is a pure function of the sample sequence — deterministic by
/// construction.
class RecoveryProbe {
 public:
  /// The system counts as recovered when the windowed ratio climbs back
  /// to baseline - kTolerance.
  static constexpr double kTolerance = 0.05;

  struct Params {
    /// Trailing window of the hit-ratio estimate.
    SimDuration window = 15 * kMinute;
  };

  explicit RecoveryProbe(const Params& params) : params_(params) {}
  RecoveryProbe() : RecoveryProbe(Params{}) {}

  /// Records the cumulative totals at simulated time `t`. Call at a fixed
  /// cadence (the engine samples every minute).
  void AddSample(SimTime t, uint64_t queries, uint64_t hits);

  /// Marks the first fault of the scenario: freezes the current windowed
  /// ratio as the baseline and starts dip/recovery tracking. Later calls
  /// are ignored (one scenario = one recovery story).
  void MarkEventStart(SimTime t);

  /// Trailing-window hit ratio at the latest sample.
  double WindowedRatio() const;

  // --- Results -------------------------------------------------------------
  bool event_marked() const { return event_marked_; }
  double baseline() const { return baseline_; }
  double dip_min() const { return dip_min_; }
  SimTime dip_min_time() const { return dip_min_time_; }
  /// Time from the first fault until the windowed ratio returned to
  /// baseline - kTolerance after dipping below it. 0 when the ratio never
  /// dipped below; -1 when it dipped and had not recovered by the last
  /// sample.
  double recovery_ms() const;

  const Params& params() const { return params_; }

 private:
  struct Sample {
    SimTime t = 0;
    uint64_t queries = 0;
    uint64_t hits = 0;
  };

  /// Windowed ratio ending at samples_[i].
  double RatioAt(size_t i) const;

  Params params_;
  std::vector<Sample> samples_;
  bool event_marked_ = false;
  SimTime event_time_ = 0;
  double baseline_ = 0;
  double dip_min_ = 1.0;
  SimTime dip_min_time_ = 0;
  bool dipped_ = false;
  bool recovered_ = false;
  SimTime recovery_time_ = 0;
};

/// Everything the chaos engine measured in one run, exported as the runner
/// JSON v3 "chaos" section.
struct ChaosReport {
  bool enabled = false;
  std::string scenario;

  uint64_t actions_executed = 0;
  FaultInjector::Counts faults;

  /// One entry per kill_directory action, in timeline order.
  struct DirectoryKill {
    WebsiteId website = 0;
    int locality = 0;
    SimTime kill_time = 0;
    /// False when no live directory existed for the petal at kill time.
    bool had_directory = false;
    /// Time until a live replacement directory was observed; -1 when none
    /// appeared before the run ended. Resolution = the probe period.
    double replacement_latency_ms = -1;
  };
  std::vector<DirectoryKill> directory_kills;

  /// One entry per partition action: query success (hit ratio) while the
  /// cut was active versus in an equally long window right after healing.
  struct PartitionWindow {
    int loc_a = 0;
    int loc_b = 0;
    SimTime start = 0;
    SimTime end = 0;
    uint64_t queries_during = 0;
    uint64_t hits_during = 0;
    uint64_t queries_after = 0;
    uint64_t hits_after = 0;
    double SuccessDuring() const {
      return queries_during
                 ? static_cast<double>(hits_during) / queries_during
                 : 0.0;
    }
    double SuccessAfter() const {
      return queries_after ? static_cast<double>(hits_after) / queries_after
                           : 0.0;
    }
  };
  std::vector<PartitionWindow> partition_windows;

  // Hit-ratio dip story (from the RecoveryProbe).
  double baseline_hit_ratio = 0;
  double dip_min_hit_ratio = 0;
  SimTime dip_min_time = 0;
  double hit_ratio_recovery_ms = -1;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_CHAOS_PROBE_H_
