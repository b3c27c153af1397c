#include "expt/env.h"

#include "util/logging.h"
#include "wire/codec.h"

namespace flowercdn {

namespace {

ChurnProcess::Params MakeChurnParams(const ExperimentConfig& config) {
  ChurnProcess::Params params;
  params.mean_uptime = config.mean_uptime;
  params.arrival_rate_per_ms = config.ArrivalRatePerMs();
  params.enabled = config.churn_enabled;
  return params;
}

}  // namespace

ExperimentEnv::ExperimentEnv(const ExperimentConfig& config)
    : config_(config),
      root_rng_(config.seed),
      topology_(config.topology),
      network_(&sim_, &topology_),
      catalog_(config.catalog),
      workload_(&catalog_, config.workload),
      origins_(&topology_, config.catalog.num_websites, config.origin,
               root_rng_.Fork("origins")),
      metrics_(config.metrics),
      churn_(&sim_, root_rng_.Fork("churn"), MakeChurnParams(config)),
      stats_([this] { return sim_.now(); }, config.stats_interval) {
  if (config_.collect_traces) {
    trace_ = std::make_shared<TraceCollector>(config_.trace_max_queries);
  }
  if (config_.wire_mode == WireMode::kEncoded) {
    network_.SetMessageSizer(&WireEncodedSize);
  }
  const size_t universe = config_.UniverseSize();
  const int k = config_.topology.num_localities;
  const int num_websites = config_.catalog.num_websites;
  Rng placement = root_rng_.Fork("placement");
  Rng assignment = root_rng_.Fork("assignment");

  identities_.reserve(universe);
  for (size_t i = 0; i < universe; ++i) {
    Identity identity;
    identity.id = static_cast<PeerId>(i + 1);
    if (i < static_cast<size_t>(num_websites) * k) {
      // One identity per (website, locality): the initial D-ring seeds.
      identity.website = static_cast<WebsiteId>(i / k);
      identity.locality = static_cast<LocalityId>(i % k);
    } else {
      identity.website =
          static_cast<WebsiteId>(assignment.NextBounded(num_websites));
      identity.locality =
          static_cast<LocalityId>(assignment.NextBounded(k));
    }
    Coord coord = topology_.PlaceInLocality(identity.locality, placement);
    network_.RegisterIdentity(identity.id, coord);
    identities_.push_back(std::move(identity));
  }
}

ExperimentEnv::Identity& ExperimentEnv::identity(PeerId id) {
  FLOWERCDN_CHECK(id != kInvalidPeer && id <= identities_.size());
  return identities_[id - 1];
}

const ExperimentEnv::Identity& ExperimentEnv::identity(PeerId id) const {
  FLOWERCDN_CHECK(id != kInvalidPeer && id <= identities_.size());
  return identities_[id - 1];
}

PeerId ExperimentEnv::InitialDirectoryIdentity(WebsiteId ws,
                                               LocalityId loc) const {
  const int k = config_.topology.num_localities;
  FLOWERCDN_CHECK(static_cast<int>(ws) < config_.catalog.num_websites);
  FLOWERCDN_CHECK(loc >= 0 && loc < k);
  return static_cast<PeerId>(static_cast<size_t>(ws) * k + loc + 1);
}

Rng ExperimentEnv::MakePeerRng(PeerId id) const {
  return root_rng_.Fork("peer-" + std::to_string(id));
}

}  // namespace flowercdn
