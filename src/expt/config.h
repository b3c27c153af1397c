#ifndef FLOWERCDN_EXPT_CONFIG_H_
#define FLOWERCDN_EXPT_CONFIG_H_

#include <cstdint>

#include "chaos/scenario.h"
#include "flower/params.h"
#include "metrics/metrics.h"
#include "sim/churn.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "squirrel/squirrel_peer.h"
#include "storage/origin.h"
#include "storage/website.h"
#include "storage/workload.h"

namespace flowercdn {

/// Full configuration of one simulated deployment, defaulting to the
/// paper's Table 1: latencies 10-500 ms, k=6 localities, |W|=100 websites
/// of 500 objects (6 active), mean uptime 60 min, 1 query / 6 min / peer,
/// push threshold 0.5, gossip/keepalive period 1 h, population converging
/// to P with a 1.3*P identity universe, 24 simulated hours.
struct ExperimentConfig {
  uint64_t seed = 42;

  /// Target steady-state population P (Table 1: 2000/3000/4000/5000).
  size_t target_population = 2000;
  /// Identity universe = target_population * universe_factor (Table 1:
  /// "total network size P * 1.3").
  double universe_factor = 1.3;
  /// Simulated experiment length (paper: 24 hours).
  SimDuration duration = 24 * kHour;
  /// Mean session uptime m (Table 1: 60 min). Peers always fail abruptly.
  SimDuration mean_uptime = 60 * kMinute;
  /// When false, peers never fail and arrivals stop once the population
  /// reaches P (ChurnProcess::Params::enabled).
  bool churn_enabled = true;
  /// When non-zero, overrides the derived Poisson arrival rate (peers/ms).
  /// Lets tests decouple arrivals from uptime (e.g. "everyone joins, nobody
  /// dies").
  double arrival_rate_override_per_ms = 0.0;
  /// Whether a re-joining identity keeps its browser cache. The paper does
  /// not pin this down; true models a persistent browser cache (and is
  /// identical for both systems).
  bool retain_cache_on_rejoin = true;
  /// Gap between consecutive initial directory-peer launches (bounds the
  /// join storm while the initial D-ring assembles).
  SimDuration initial_join_stagger = 20;

  /// Period of the overlay-state / traffic samplers (and the bucket width
  /// of the stats registry's per-time series). Paper-style reporting uses
  /// one simulated hour.
  SimDuration stats_interval = kHour;
  /// When true, every client query records per-phase spans into a
  /// TraceCollector (exportable as Chrome trace-event JSON).
  bool collect_traces = false;
  /// Span-storage cap of the trace collector (histograms keep counting
  /// past it).
  size_t trace_max_queries = 200000;

  Topology::Params topology;
  WebsiteCatalog::Params catalog;
  QueryWorkload::Params workload;
  OriginServers::Params origin;
  MetricsCollector::Params metrics;

  FlowerParams flower;
  SquirrelPeer::Params squirrel;

  /// Fault-injection timeline; an empty script (the default) disables the
  /// chaos engine entirely and leaves the run bit-identical to before the
  /// engine existed.
  ScenarioScript chaos;

  /// How traffic is sized: modeled SizeBytes() estimates (default, the
  /// historical behavior) or actual src/wire encoded lengths. Only the
  /// reported byte counters change — delivery timing and protocol behavior
  /// are identical in both modes.
  WireMode wire_mode = WireMode::kModeled;

  /// Arrival rate (peers per ms): the override when set, else the rate
  /// P/m that keeps the population at P.
  double ArrivalRatePerMs() const {
    if (arrival_rate_override_per_ms > 0) return arrival_rate_override_per_ms;
    return static_cast<double>(target_population) /
           static_cast<double>(mean_uptime);
  }
  /// Derived identity-universe size.
  size_t UniverseSize() const {
    size_t universe = static_cast<size_t>(
        static_cast<double>(target_population) * universe_factor);
    // Never smaller than the initial D-ring population (k * |W|).
    size_t initial = static_cast<size_t>(catalog.num_websites) *
                     static_cast<size_t>(topology.num_localities);
    return universe > initial ? universe : initial;
  }
};

}  // namespace flowercdn

#endif  // FLOWERCDN_EXPT_CONFIG_H_
