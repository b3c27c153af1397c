#ifndef FLOWERCDN_STORAGE_ORIGIN_H_
#define FLOWERCDN_STORAGE_ORIGIN_H_

#include <vector>

#include "sim/topology.h"
#include "storage/object_id.h"
#include "util/random.h"

namespace flowercdn {

/// The original web servers: always able to serve their own content, but
/// that is exactly what a P2P CDN exists to avoid — they are
/// under-provisioned and far away. Each website's origin is placed at a
/// random spot of the latency plane; a miss costs a full round trip plus a
/// fixed server-side overhead.
class OriginServers {
 public:
  OriginServers(const Topology* topology, int num_websites, Rng rng);

  /// Network distance (one-way latency) between a client and the origin of
  /// `ws` — the "transfer distance" of a query served by the origin.
  double DistanceMs(const Coord& client, WebsiteId ws) const;

  /// Total time for a client at `client` to fetch an object from the
  /// origin: request + response + server overhead.
  double FetchLatencyMs(const Coord& client, WebsiteId ws) const;

  const Coord& CoordOf(WebsiteId ws) const { return coords_[ws]; }

 private:
  const Topology* topology_;
  std::vector<Coord> coords_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_STORAGE_ORIGIN_H_
