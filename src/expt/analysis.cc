#include "expt/analysis.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace flowercdn {
namespace analysis {

double SteadyStatePopulation(double arrival_rate_per_ms,
                             SimDuration mean_uptime) {
  FLOWERCDN_CHECK(mean_uptime > 0);
  return arrival_rate_per_ms * static_cast<double>(mean_uptime);
}

double ExpectedPetalSize(const ExperimentConfig& config) {
  double pairs = static_cast<double>(config.catalog.num_websites) *
                 config.topology.num_localities;
  FLOWERCDN_CHECK(pairs > 0);
  return static_cast<double>(config.target_population) / pairs;
}

double ExpectedChordHops(size_t ring_size) {
  if (ring_size <= 1) return 0.0;
  return 0.5 * std::log2(static_cast<double>(ring_size));
}

double ExpectedLookupLatencyMs(size_t ring_size, double mean_link_ms) {
  // Forwarding legs plus the direct answer to the origin.
  return (ExpectedChordHops(ring_size) + 1.0) * mean_link_ms;
}

double ExpectedStaleDirectoryFraction(SimDuration detection_interval,
                                      SimDuration mean_uptime) {
  FLOWERCDN_CHECK(mean_uptime > 0);
  double stale = 0.5 * static_cast<double>(detection_interval) /
                 static_cast<double>(mean_uptime);
  return std::clamp(stale, 0.0, 1.0);
}

double PetalHitRatioCeiling(const ZipfDistribution& zipf, double live_peers,
                            double objects_per_peer) {
  if (live_peers <= 0 || objects_per_peer <= 0) return 0.0;
  double hit = 0.0;
  for (size_t o = 0; o < zipf.n(); ++o) {
    double p = zipf.Pmf(o);
    double held_by_one = std::min(1.0, objects_per_peer * p);
    double held_by_any = 1.0 - std::pow(1.0 - held_by_one, live_peers);
    hit += p * held_by_any;
  }
  return std::min(hit, 1.0);
}

double FlowerPetalMaintenanceRate(SimDuration gossip_period) {
  FLOWERCDN_CHECK(gossip_period > 0);
  // Gossip request+reply, keepalive request+reply per period.
  return 4.0 / (static_cast<double>(gossip_period) / kSecond);
}

double ChordMaintenanceRate(const ChordNode::Params& params,
                            size_t ring_size) {
  FLOWERCDN_CHECK(params.stabilize_period > 0);
  // A converged ring sends no notify: the successor already names its
  // prober as predecessor. Each round is one neighbors probe (req+resp).
  double per_round = 2.0;
  if (params.predecessor_check_stride > 0) {
    per_round += 2.0 / params.predecessor_check_stride;
  }
  if (params.finger_fix_stride > 0 && ring_size > 1) {
    // Round-robin finger fixes, one lookup per stride rounds. Finger j's
    // target lies 2^(64-F+j) clockwise, past about m = (N-1)·2^(j-F)
    // nodes; it leaves the node only when the successor is nearer than
    // the target (probability 1 - e^-m), and then costs hops forwards +
    // hops acks + 1 result, with one hop into the range and, as in
    // ExpectedChordHops, half of log2(m) more.
    const int fingers = params.finger_count;
    double lookup_msgs = 0.0;
    for (int j = 0; j < fingers; ++j) {
      double m = static_cast<double>(ring_size - 1) *
                 std::ldexp(1.0, j - fingers);
      double hops = 1.0 + std::max(0.0, 0.5 * std::log2(m));
      lookup_msgs += (1.0 - std::exp(-m)) * (2.0 * hops + 1.0);
    }
    per_round += lookup_msgs / fingers / params.finger_fix_stride;
  }
  return per_round / (static_cast<double>(params.stabilize_period) / kSecond);
}

}  // namespace analysis
}  // namespace flowercdn
