#ifndef FLOWERCDN_EXPT_ENV_H_
#define FLOWERCDN_EXPT_ENV_H_

#include <memory>
#include <vector>

#include "expt/config.h"
#include "metrics/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "sim/churn.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "storage/content_store.h"
#include "storage/origin.h"
#include "storage/website.h"
#include "storage/workload.h"
#include "util/random.h"

namespace flowercdn {

/// Everything both CDN systems share in one experiment: the event kernel,
/// the latency topology, the network, content/workload models, the churn
/// process, the metrics sink and the identity universe.
///
/// Identities are fixed for the whole experiment (paper §6.1): each has a
/// website of interest, a locality, a coordinate near its landmark, and a
/// persistent browser cache. The first k*|W| identities enumerate every
/// (website, locality) pair — identity ws*k + loc + 1 seeds D-ring position
/// (ws, loc) in Flower-CDN runs (and is an ordinary peer in Squirrel runs).
class ExperimentEnv {
 public:
  /// Identity `id` is identities()[id - 1].
  struct Identity {
    WebsiteId website = 0;
    LocalityId locality = 0;
    ContentStore store;  // persists across sessions (browser cache)
  };

  explicit ExperimentEnv(const ExperimentConfig& config);
  ExperimentEnv(const ExperimentEnv&) = delete;
  ExperimentEnv& operator=(const ExperimentEnv&) = delete;

  const ExperimentConfig& config() const { return config_; }
  Simulator& sim() { return sim_; }
  Topology& topology() { return topology_; }
  Network& network() { return network_; }
  const WebsiteCatalog& catalog() const { return catalog_; }
  const QueryWorkload& workload() const { return workload_; }
  /// Mutable access for chaos actions (flash-crowd rate multipliers).
  QueryWorkload& mutable_workload() { return workload_; }
  const OriginServers& origins() const { return origins_; }
  MetricsCollector& metrics() { return metrics_; }
  ChurnProcess& churn() { return churn_; }
  StatsRegistry& stats() { return stats_; }
  /// Non-null iff config.collect_traces. Shared so results can outlive the
  /// environment without copying the span store.
  const std::shared_ptr<TraceCollector>& trace() const { return trace_; }
  TraceCollector* trace_ptr() const { return trace_.get(); }

  size_t universe_size() const { return identities_.size(); }
  Identity& identity(PeerId id);
  const Identity& identity(PeerId id) const;
  std::vector<Identity>& identities() { return identities_; }

  /// Deterministic per-identity RNG stream.
  Rng MakePeerRng(PeerId id) const;

  /// Forked stream for a named subsystem.
  Rng MakeRng(std::string_view tag) const { return root_rng_.Fork(tag); }

 private:
  ExperimentConfig config_;
  Rng root_rng_;
  Simulator sim_;
  Topology topology_;
  Network network_;
  WebsiteCatalog catalog_;
  QueryWorkload workload_;
  OriginServers origins_;
  MetricsCollector metrics_;
  ChurnProcess churn_;
  StatsRegistry stats_;
  std::shared_ptr<TraceCollector> trace_;  // null when tracing is off
  std::vector<Identity> identities_;  // index = PeerId - 1
};

}  // namespace flowercdn

#endif  // FLOWERCDN_EXPT_ENV_H_
