#ifndef FLOWERCDN_SIM_CHURN_H_
#define FLOWERCDN_SIM_CHURN_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"
#include "sim/types.h"
#include "util/random.h"

namespace flowercdn {

/// Churn driver reproducing the paper's dynamic environment (§6.1, based on
/// Stutzbach & Rejaie [16]): the population converges to a target size P by
/// balancing a Poisson arrival process of rate P/m against exponential
/// session uptimes of mean m (60 min by default). Peers always *fail*
/// (abrupt, no goodbye) and may re-join later with a fresh uptime; the
/// identity universe has 1.3*P members, so ~P are online and ~0.3*P are
/// offline at any time.
///
/// The process only decides *when* and *who*; the experiment driver reacts
/// through the arrival/failure callbacks (attaching and detaching protocol
/// sessions).
class ChurnProcess {
 public:
  struct Params {
    /// Mean session uptime m.
    SimDuration mean_uptime = 60 * kMinute;
    /// Poisson arrival rate, peers per millisecond (set to P/m).
    double arrival_rate_per_ms = 0.0;
    /// When false, sessions never fail, and arrivals stop once
    /// online_count() reaches the target P = arrival_rate_per_ms *
    /// mean_uptime: the population grows to P and stays there. With a zero
    /// arrival rate, Start() is a no-op (a static network for unit tests).
    bool enabled = true;
  };

  /// Invoked when an identity (re-)joins; the callee must attach a session
  /// and may then query the sim clock for the session start.
  using ArrivalFn = std::function<void(PeerId peer)>;
  /// Invoked when a live session fails abruptly.
  using FailureFn = std::function<void(PeerId peer)>;

  ChurnProcess(Simulator* sim, Rng rng, const Params& params);
  ChurnProcess(const ChurnProcess&) = delete;
  ChurnProcess& operator=(const ChurnProcess&) = delete;

  void SetHandlers(ArrivalFn on_arrival, FailureFn on_failure);

  /// Adds an identity to the offline pool (it may be picked by a future
  /// arrival). Call once per identity.
  void AddOfflineIdentity(PeerId peer);

  /// Marks `peer` online and schedules its failure after an exponential
  /// uptime. Used both internally on arrivals and by the driver for the
  /// initial population ("directory peers with limited uptimes").
  /// Does not invoke the arrival callback.
  void StartSession(PeerId peer);

  /// Begins the arrival process (a no-op when the arrival rate is zero and
  /// churn is disabled).
  void Start();

  /// Scales churn intensity for chaos scenarios: future arrival gaps and
  /// newly drawn session uptimes are divided by `m` (m>1 means faster
  /// joins AND shorter lives). Already-scheduled failures are unaffected —
  /// a spike ramps in over roughly one mean uptime. The scaling is applied
  /// *after* drawing from the RNG, so m == 1.0 leaves the draw sequence
  /// bit-identical to a run without chaos.
  void SetRateMultiplier(double m);
  double rate_multiplier() const { return rate_multiplier_; }

  size_t online_count() const { return online_count_; }
  size_t offline_count() const { return offline_.size(); }
  uint64_t total_arrivals() const { return total_arrivals_; }
  uint64_t total_failures() const { return total_failures_; }

 private:
  void ScheduleNextArrival();
  void OnArrivalTick();
  /// Removes a uniformly random identity from the offline pool.
  PeerId PopRandomOffline();
  void PushOffline(PeerId peer);

  Simulator* sim_;
  Rng rng_;
  Params params_;
  ArrivalFn on_arrival_;
  FailureFn on_failure_;

  std::vector<PeerId> offline_;
  std::unordered_map<PeerId, size_t> offline_index_;
  size_t online_count_ = 0;
  uint64_t total_arrivals_ = 0;
  uint64_t total_failures_ = 0;
  double rate_multiplier_ = 1.0;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SIM_CHURN_H_
