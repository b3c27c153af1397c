#ifndef FLOWERCDN_SIM_TOPOLOGY_H_
#define FLOWERCDN_SIM_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace flowercdn {

/// A point in the synthetic latency plane.
struct Coord {
  double x = 0;
  double y = 0;
};

/// Locality index in [0, num_localities).
using LocalityId = int;

/// Synthetic Internet latency model with landmark-based localities.
///
/// The paper (§6.1) generates "an underlying topology of peers connected
/// with links of variable latencies between 10 and 500 ms" and groups peers
/// into k = 6 physical localities with the landmark technique of Ratnasamy
/// et al. [10]. We reproduce that with a planar embedding:
///
///  * k landmark points are placed evenly on a circle;
///  * a peer of locality `loc` is placed with Gaussian scatter around
///    landmark `loc`, so LocalityOf(coord) (nearest landmark) recovers it;
///  * pairwise latency = kMinLatencyMs + 110 ms per plane unit of
///    distance, multiplied by a deterministic per-pair jitter of up to
///    ±20%, clamped to [kMinLatencyMs, kMaxLatencyMs]. The jitter is a
///    mix of the two endpoints' keys (PointKey: a hash of the quantized
///    coordinate), so it consumes no RNG state. A key depends on one
///    endpoint only, so Network computes it once, when it registers an
///    identity, and each message pays only the pair mix.
///
/// Default constants are calibrated so that a random cross-network pair
/// averages ~165 ms (the Squirrel transfer distance the paper reports)
/// while intra-locality pairs average a few tens of ms.
class Topology {
 public:
  /// Link latency bounds (Table 1: 10-500 ms).
  static constexpr double kMinLatencyMs = 10.0;
  static constexpr double kMaxLatencyMs = 500.0;
  /// Radius of the landmark circle in plane units.
  static constexpr double kLandmarkRadius = 1.0;

  struct Params {
    /// k (Table 1: 6).
    int num_localities = 6;
    /// Std-dev of peer scatter around its landmark. Calibrated (together
    /// with the 110 ms per plane unit in topology.cc) so intra-locality
    /// pairs average ~90 ms and inter-locality pairs ~180 ms — matching the
    /// paper's reported Flower (~92 ms) and Squirrel (~165 ms) transfer
    /// distances at P=3000.
    double cluster_stddev = 0.35;
  };

  explicit Topology(const Params& params);

  int num_localities() const { return params_.num_localities; }

  /// Deterministically samples a coordinate near landmark `loc` using the
  /// caller's RNG stream.
  Coord PlaceInLocality(LocalityId loc, Rng& rng) const;

  /// Nearest-landmark classification (the landmark technique).
  LocalityId LocalityOf(const Coord& c) const;

  /// One endpoint's half of the per-pair jitter: a hash of its coordinate
  /// quantized to 1/4096 plane unit.
  static uint64_t PointKey(const Coord& c);

  /// One-way latency between two coordinates, in milliseconds. Symmetric;
  /// zero only for identical points... never below kMinLatencyMs for
  /// distinct endpoints.
  double LatencyMs(const Coord& a, const Coord& b) const {
    return LatencyMs(a, PointKey(a), b, PointKey(b));
  }
  /// The same latency, given each endpoint's PointKey (which the caller
  /// computed once and must pass unchanged).
  double LatencyMs(const Coord& a, uint64_t key_a, const Coord& b,
                   uint64_t key_b) const;

  /// Landmark coordinate of a locality.
  Coord landmark(LocalityId loc) const { return landmarks_[loc]; }

 private:
  Params params_;
  std::vector<Coord> landmarks_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SIM_TOPOLOGY_H_
