#ifndef FLOWERCDN_EXPT_EXPERIMENT_H_
#define FLOWERCDN_EXPT_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/probe.h"
#include "expt/config.h"
#include "expt/flower_system.h"
#include "expt/squirrel_system.h"
#include "metrics/metrics.h"
#include "obs/sampler.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "util/histogram.h"

namespace flowercdn {

/// Which CDN protocol an experiment runs.
enum class SystemKind { kFlowerCdn, kSquirrel };

const char* SystemKindName(SystemKind kind);

/// Everything a benchmark harness needs to print the paper's tables and
/// figures for one (system, configuration) run.
struct ExperimentResult {
  SystemKind system = SystemKind::kFlowerCdn;
  size_t target_population = 0;

  // Headline metrics (Table 2 row).
  double hit_ratio = 0;
  double mean_lookup_ms = 0;
  double mean_transfer_hits_ms = 0;
  double mean_transfer_all_ms = 0;
  uint64_t total_queries = 0;
  uint64_t hits = 0;
  uint64_t new_client_queries = 0;
  uint64_t new_client_hits = 0;
  double mean_new_client_lookup_ms = 0;
  double mean_established_lookup_ms = 0;

  // Distributions (Figs. 4, 5).
  Histogram lookup_all{50.0, 60};
  Histogram lookup_hits{50.0, 60};
  Histogram transfer_all{20.0, 30};
  Histogram transfer_hits{20.0, 30};

  // Hit ratio over time (Fig. 3).
  std::vector<MetricsCollector::TimePoint> time_series;
  std::vector<double> cumulative_hit_ratio;

  // Environment accounting.
  uint64_t messages_sent = 0;
  uint64_t messages_dropped = 0;
  uint64_t bytes_sent = 0;
  Network::TrafficBreakdown traffic;
  uint64_t churn_arrivals = 0;
  uint64_t churn_failures = 0;
  size_t final_population = 0;
  uint64_t events_processed = 0;
  uint64_t events_cancelled = 0;

  // --- Kernel timing (nondeterministic; never in default JSON) --------------
  /// Wall-clock seconds from environment construction to the last event.
  /// Varies run to run, so json_export only emits it behind --json-timing;
  /// the deterministic outputs (counters, metrics) never depend on it.
  double wall_seconds = 0;
  double EventsPerWallSecond() const {
    return wall_seconds > 0 ? static_cast<double>(events_processed) /
                                  wall_seconds
                            : 0;
  }

  // Flower-specific protocol stats (zeroed for Squirrel runs).
  FlowerSystem::Stats flower_stats;
  std::vector<FlowerSystem::LoadSample> load_samples;

  // Squirrel-specific protocol stats (zeroed for Flower runs).
  SquirrelSystem::Stats squirrel_stats;

  // --- Observability (src/obs) ----------------------------------------------
  /// Width of the per-time buckets below (config.stats_interval).
  SimDuration stats_interval = kHour;
  /// Cumulative traffic snapshots taken every stats_interval; diff
  /// consecutive points for per-interval bytes/messages per family.
  std::vector<TrafficSampler::Point> traffic_series;
  /// Named protocol counters with per-interval series, sorted by name.
  std::vector<StatsRegistry::CounterSnapshot> stat_counters;
  /// Hourly overlay snapshots (empty for Squirrel runs).
  std::vector<OverlaySample> overlay_samples;
  /// Query-lifecycle traces; null unless config.collect_traces.
  std::shared_ptr<TraceCollector> trace;

  /// Chaos recovery metrics; `chaos.enabled` is false unless the config
  /// carried a non-empty scenario.
  ChaosReport chaos;
};

/// Runs one full simulated deployment of `kind` under `config`.
/// `progress`, when set, is invoked after every simulated hour, and once
/// more at the end when the duration is not a whole number of hours. It
/// runs while the deployment is still alive.
ExperimentResult RunExperiment(
    const ExperimentConfig& config, SystemKind kind,
    const std::function<void(SimTime now, SimTime total)>& progress = {});

}  // namespace flowercdn

#endif  // FLOWERCDN_EXPT_EXPERIMENT_H_
