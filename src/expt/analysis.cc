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
  // A converged ring sends no notify (the successor already names its
  // prober as predecessor) and no predecessor ping (the predecessor's own
  // probe proves it alive every round). Each round is one neighbors probe
  // (req+resp).
  double per_round = 2.0;
  const size_t others = ring_size > 0 ? ring_size - 1 : 0;
  const size_t listed = static_cast<size_t>(params.successor_list_size);
  if (others > listed) {
    // Round-robin finger fixes, one per stride rounds. Finger j's target
    // lies 2^(64-F+j) clockwise, past X ~ Binomial(N-1, 2^(j-F)) nodes.
    // A target within the successor list (X < S) is taken from the list,
    // and one past every other node (X = N-1) is our own; the rest cost a
    // lookup of hops forwards + hops acks + 1 result, with one hop into
    // the range and, as in ExpectedChordHops, half of log2(m) more.
    const int fingers = ChordNode::kFingerCount;
    const double n = static_cast<double>(others);
    double lookup_msgs = 0.0;
    for (int j = 0; j < fingers; ++j) {
      const double p = std::ldexp(1.0, j - fingers);
      double within_list = 0.0;  // P(X < S)
      for (size_t x = 0; x < listed; ++x) {
        const double k = static_cast<double>(x);
        within_list += std::exp(std::lgamma(n + 1) - std::lgamma(k + 1) -
                                std::lgamma(n - k + 1) + k * std::log(p) +
                                (n - k) * std::log1p(-p));
      }
      const double past_list =
          std::max(0.0, 1.0 - within_list - std::pow(p, n));
      const double m = n * p;
      const double hops = 1.0 + std::max(0.0, 0.5 * std::log2(m));
      lookup_msgs += past_list * (2.0 * hops + 1.0);
    }
    per_round += lookup_msgs / fingers / ChordNode::kFingerFixStride;
  }
  return per_round /
         (static_cast<double>(ChordNode::kStabilizePeriod) / kSecond);
}

}  // namespace analysis
}  // namespace flowercdn
