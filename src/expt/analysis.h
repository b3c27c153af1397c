#ifndef FLOWERCDN_EXPT_ANALYSIS_H_
#define FLOWERCDN_EXPT_ANALYSIS_H_

#include <cstddef>

#include "expt/config.h"
#include "util/random.h"

namespace flowercdn {

/// Closed-form companions to the simulation — the paper's §7 mentions
/// "deepening the analytical and empirical analysis of our protocols";
/// these estimators capture the first-order behaviour and are checked
/// against simulation results in tests/analysis_test.cc.
namespace analysis {

/// Steady-state population of the churn model: arrivals at rate λ with
/// exponential mean-m uptimes converge to λ*m (Little's law).
double SteadyStatePopulation(double arrival_rate_per_ms,
                             SimDuration mean_uptime);

/// Expected number of *live* content peers in one petal(ws, loc): the
/// population share of one (website, locality) pair.
double ExpectedPetalSize(const ExperimentConfig& config);

/// Expected Chord routing hops in an n-node ring: (log2 n) / 2.
double ExpectedChordHops(size_t ring_size);

/// Expected one-way routed latency of a DHT lookup: hops * mean one-way
/// link latency, plus one answer leg.
double ExpectedLookupLatencyMs(size_t ring_size, double mean_link_ms);

/// Expected fraction of a peer's session spent with a *stale* directory
/// pointer: the directory fails at rate 1/m and is re-detected after (on
/// average) half the detection interval d -> stale fraction ≈ (d/2) / m,
/// capped at 1. First-order model of §5.1's keepalive maintenance.
double ExpectedStaleDirectoryFraction(SimDuration detection_interval,
                                      SimDuration mean_uptime);

/// Hit-ratio ceiling of a petal whose n live members each cache s objects
/// drawn from the website's Zipf popularity law: a query (itself
/// Zipf-distributed over objects the querier does not hold) hits if at
/// least one member holds the object:
///
///   hit = sum_o pmf(o) * (1 - (1 - q_o)^n),  q_o ≈ min(1, s * pmf(o))
///
/// This ignores directory staleness and churn transients, so it bounds
/// the simulated hit ratio from above.
double PetalHitRatioCeiling(const ZipfDistribution& zipf, double live_peers,
                            double objects_per_peer);

/// Expected per-peer maintenance message rate (messages per second) of
/// Flower-CDN's petal layer: one gossip exchange (2 msgs) + one keepalive
/// round trip (2 msgs) per gossip period, amortized, ignoring pushes.
double FlowerPetalMaintenanceRate(SimDuration gossip_period);

/// Expected per-peer maintenance message rate of a converged Chord ring
/// member: one successor probe (2 msgs) per stabilize period, plus
/// amortized predecessor pings and finger-fix lookups (those whose target
/// lies past the successor). A converged ring sends no notify.
double ChordMaintenanceRate(const ChordNode::Params& params,
                            size_t ring_size);

}  // namespace analysis
}  // namespace flowercdn

#endif  // FLOWERCDN_EXPT_ANALYSIS_H_
