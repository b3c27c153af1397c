#include "sim/topology.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"
#include "util/logging.h"

namespace flowercdn {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Milliseconds of one-way latency per plane unit of distance.
constexpr double kLatencyPerUnitMs = 110.0;

/// Relative amplitude of the deterministic per-pair jitter.
constexpr double kJitter = 0.2;

double Distance(const Coord& a, const Coord& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Deterministic, symmetric jitter factor in [1-j, 1+j] for a pair of
/// endpoint keys (Topology::PointKey). Hash-derived so no RNG state is
/// consumed and latency(a,b) is stable across calls and runs.
double PairJitter(uint64_t ka, uint64_t kb, double j) {
  if (ka > kb) std::swap(ka, kb);  // symmetry
  double unit =
      static_cast<double>(HashCombine(ka, kb) >> 11) * 0x1.0p-53;  // [0,1)
  return 1.0 - j + 2.0 * j * unit;
}

}  // namespace

Topology::Topology(const Params& params) : params_(params) {
  FLOWERCDN_CHECK(params_.num_localities >= 1);
  landmarks_.reserve(params_.num_localities);
  for (int i = 0; i < params_.num_localities; ++i) {
    double angle = 2.0 * kPi * i / params_.num_localities;
    landmarks_.push_back(Coord{kLandmarkRadius * std::cos(angle),
                               kLandmarkRadius * std::sin(angle)});
  }
}

Coord Topology::PlaceInLocality(LocalityId loc, Rng& rng) const {
  FLOWERCDN_CHECK(loc >= 0 && loc < params_.num_localities);
  // Box-Muller Gaussian scatter around the landmark.
  double u1 = std::max(rng.NextDouble(), 1e-12);
  double u2 = rng.NextDouble();
  double r = params_.cluster_stddev * std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * kPi * u2;
  Coord c = landmarks_[loc];
  c.x += r * std::cos(theta);
  c.y += r * std::sin(theta);
  return c;
}

LocalityId Topology::LocalityOf(const Coord& c) const {
  LocalityId best = 0;
  double best_d = Distance(c, landmarks_[0]);
  for (int i = 1; i < params_.num_localities; ++i) {
    double d = Distance(c, landmarks_[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

uint64_t Topology::PointKey(const Coord& c) {
  auto q = [](double v) -> uint64_t {
    return static_cast<uint64_t>(static_cast<int64_t>(v * 4096.0));
  };
  return HashCombine(q(c.x), q(c.y));
}

double Topology::LatencyMs(const Coord& a, uint64_t key_a, const Coord& b,
                           uint64_t key_b) const {
  if (a.x == b.x && a.y == b.y) return 0.0;
  double base = kMinLatencyMs + kLatencyPerUnitMs * Distance(a, b);
  base *= PairJitter(key_a, key_b, kJitter);
  return std::clamp(base, kMinLatencyMs, kMaxLatencyMs);
}

}  // namespace flowercdn
