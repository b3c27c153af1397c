#ifndef FLOWERCDN_CHAOS_ENGINE_H_
#define FLOWERCDN_CHAOS_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/probe.h"
#include "chaos/scenario.h"
#include "obs/stats.h"
#include "sim/churn.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace flowercdn {

/// System-level actions the chaos engine delegates to the experiment
/// driver. Delivered as callbacks so src/chaos never depends on src/expt
/// (the driver wires FlowerSystem / SquirrelSystem in).
struct ChaosHooks {
  /// Kills the live directory peer of petal (website, locality); returns
  /// false when the petal had no live directory. Unused hooks may be null
  /// (the action becomes a no-op, still counted as executed).
  std::function<bool(WebsiteId, int)> kill_directory;
  /// Whether petal (website, locality) currently has a live directory.
  std::function<bool(WebsiteId, int)> directory_alive;
  /// Sets the query-rate multiplier for one website (1.0 = baseline).
  std::function<void(WebsiteId, double)> set_query_rate;
  /// Cumulative (queries, hits) totals so far.
  std::function<void(uint64_t&, uint64_t&)> query_totals;
};

/// Interprets a ScenarioScript against the simulator clock: owns the
/// FaultInjector (installed on the Network between Start() and Finish()),
/// schedules every timeline action, modulates churn, and drives the
/// RecoveryProbe samples that become the report's recovery metrics.
///
/// Lifecycle: construct after the experiment environment, Start() before
/// the run loop, Finish() after the simulator stops (returns the report
/// and uninstalls the network hook). The engine must outlive the
/// simulator's event processing.
class ChaosEngine {
 public:
  struct Params {
    /// Cadence of the directory-replacement poll. The default keeps the
    /// historical one-minute measurement floor; experiments with
    /// replicated directories lower it to resolve second-scale failover.
    SimDuration replacement_poll_period = kMinute;
  };

  /// `churn` and any hook may be null; related actions degrade to counted
  /// no-ops. `stats` is required: the engine and its injector count there.
  /// `script` must Validate().
  ChaosEngine(Simulator* sim, Network* network, ChurnProcess* churn,
              StatsRegistry* stats, Rng rng, ScenarioScript script,
              ChaosHooks hooks, const Params& params);
  /// Default Params (one-minute replacement poll).
  ChaosEngine(Simulator* sim, Network* network, ChurnProcess* churn,
              StatsRegistry* stats, Rng rng, ScenarioScript script,
              ChaosHooks hooks);
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;
  ~ChaosEngine();

  /// Installs the fault layer and schedules the timeline. Call once.
  void Start();

  /// Finalizes the report after the run and uninstalls the fault layer.
  ChaosReport Finish();

  const ScenarioScript& script() const { return script_; }
  const FaultInjector& injector() const { return injector_; }
  FaultInjector& injector() { return injector_; }
  const RecoveryProbe& probe() const { return probe_; }

 private:
  void ExecuteAction(const ScenarioAction& action, size_t index);
  void SampleProbe();
  void PollDirectoryReplacement(size_t kill_index);
  void CaptureTotals(uint64_t& queries, uint64_t& hits) const;

  Simulator* sim_;
  Network* network_;
  ChurnProcess* churn_;
  StatsRegistry* stats_;
  ScenarioScript script_;
  ChaosHooks hooks_;
  Params params_;
  FaultInjector injector_;
  RecoveryProbe probe_;

  bool started_ = false;
  bool installed_ = false;

  std::vector<ChaosReport::DirectoryKill> directory_kills_;
  struct PartitionTracking {
    ChaosReport::PartitionWindow window;
    bool during_captured = false;
    bool after_captured = false;
    uint64_t queries_at_start = 0;
    uint64_t hits_at_start = 0;
    uint64_t queries_at_end = 0;
    uint64_t hits_at_end = 0;
  };
  std::vector<PartitionTracking> partitions_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_CHAOS_ENGINE_H_
