#include "storage/origin.h"

#include "util/logging.h"

namespace flowercdn {

namespace {

/// Server processing overhead added to the network RTT on each fetch,
/// modeling the overloaded origin the paper's introduction motivates.
constexpr double kServerOverheadMs = 300.0;

}  // namespace

OriginServers::OriginServers(const Topology* topology, int num_websites,
                             Rng rng)
    : topology_(topology) {
  FLOWERCDN_CHECK(topology != nullptr);
  FLOWERCDN_CHECK(num_websites >= 1);
  coords_.reserve(num_websites);
  double r = Topology::kLandmarkRadius * 1.2;
  for (int ws = 0; ws < num_websites; ++ws) {
    coords_.push_back(
        Coord{rng.UniformDouble(-r, r), rng.UniformDouble(-r, r)});
  }
}

double OriginServers::DistanceMs(const Coord& client, WebsiteId ws) const {
  FLOWERCDN_CHECK(ws < coords_.size());
  return topology_->LatencyMs(client, coords_[ws]);
}

double OriginServers::FetchLatencyMs(const Coord& client,
                                     WebsiteId ws) const {
  return 2.0 * DistanceMs(client, ws) + kServerOverheadMs;
}

}  // namespace flowercdn
