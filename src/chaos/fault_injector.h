#ifndef FLOWERCDN_CHAOS_FAULT_INJECTOR_H_
#define FLOWERCDN_CHAOS_FAULT_INJECTOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/stats.h"
#include "sim/network.h"
#include "util/random.h"

namespace flowercdn {

/// The network-level half of the chaos engine: a NetworkFaultHook that
/// applies probabilistic loss, delay jitter, duplication and locality
/// partitions to every message entering the network.
///
/// Determinism: all randomness comes from per-fault-class streams forked
/// from the injector's own Rng, consumed in network-send order — which is
/// itself deterministic because each trial runs single-threaded on the
/// simulator. Because each class draws from its own stream (and only when
/// its knob is nonzero), enabling one fault class never perturbs the
/// decisions of another: the loss pattern with jitter on is bit-identical
/// to the loss pattern with jitter off.
///
/// Self-sends (src == dst) never traverse the network and are exempt from
/// every fault class.
class FaultInjector : public NetworkFaultHook {
 public:
  /// Every fault is counted in `stats` (chaos.*), which is required.
  FaultInjector(Network* network, Rng rng, StatsRegistry* stats);

  // --- Knobs (driven by the ChaosEngine timeline) --------------------------
  /// Always-on probabilistic faults.
  void SetBaseFaults(double loss_rate, double delay_jitter_ms,
                     double duplicate_rate);

  /// Loss rate ramping linearly from 0 at `t0` to `rate` at `t1`, holding
  /// `rate` afterwards. Added to the base loss rate (capped at 1).
  void SetLossRamp(double rate, SimTime t0, SimTime t1);

  /// Cuts / heals the bidirectional link set between two localities.
  void AddPartition(LocalityId a, LocalityId b);
  void RemovePartition(LocalityId a, LocalityId b);
  size_t active_partitions() const { return partitions_.size(); }

  /// Effective probabilistic loss rate at simulated time `now`.
  double EffectiveLossRate(SimTime now) const;

  // --- NetworkFaultHook ----------------------------------------------------
  FaultDecision OnSend(PeerId src, PeerId dst, const Message& msg) override;

  // --- Accounting ----------------------------------------------------------
  struct Counts {
    uint64_t loss_drops = 0;       ///< probabilistic losses
    uint64_t partition_drops = 0;  ///< messages crossing an active cut
    uint64_t delayed = 0;          ///< messages given extra jitter
    uint64_t dup_copies = 0;       ///< duplicate copies injected
  };
  /// The chaos.* totals in the stats registry.
  Counts counts() const;

 private:
  struct Partition {
    LocalityId a;
    LocalityId b;
  };

  /// Adds one to `counter`, looking it up by `name` on first use.
  void Count(StatsCounter*& counter, std::string_view name);

  Network* network_;
  Rng loss_rng_;
  Rng jitter_rng_;
  Rng dup_rng_;
  StatsRegistry* stats_;
  // Looked up on a class's first fault ("delayed" can fire on every
  // message), so a class that never fires exports no counter.
  StatsCounter* loss_drops_ = nullptr;
  StatsCounter* partition_drops_ = nullptr;
  StatsCounter* delayed_ = nullptr;
  StatsCounter* dup_copies_ = nullptr;

  double base_loss_rate_ = 0;
  double delay_jitter_ms_ = 0;
  double duplicate_rate_ = 0;

  double ramp_rate_ = 0;
  SimTime ramp_t0_ = 0;
  SimTime ramp_t1_ = 0;

  std::vector<Partition> partitions_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_CHAOS_FAULT_INJECTOR_H_
