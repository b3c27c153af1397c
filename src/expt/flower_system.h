#ifndef FLOWERCDN_EXPT_FLOWER_SYSTEM_H_
#define FLOWERCDN_EXPT_FLOWER_SYSTEM_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "expt/env.h"
#include "flower/dring.h"
#include "flower/flower_peer.h"
#include "obs/sampler.h"

namespace flowercdn {

/// Drives a full Flower-CDN / PetalUp-CDN deployment inside an
/// ExperimentEnv: seeds the initial D-ring (one directory peer per
/// (website, locality), k*|W| in total), wires churn arrivals/failures to
/// session creation/destruction, maintains the bootstrap registry of live
/// directory peers, and aggregates protocol statistics.
class FlowerSystem {
 public:
  FlowerSystem(ExperimentEnv* env, const FlowerParams& params);

  /// Creates the initial population and starts churn. Call once, before
  /// running the simulator.
  void Setup();

  /// Periodic snapshot of directory load (for the PetalUp analyses).
  struct LoadSample {
    SimTime time = 0;
    size_t directory_count = 0;
    size_t max_load = 0;
    double mean_load = 0;
    int max_instance = 0;
  };

  const std::vector<LoadSample>& load_samples() const {
    return load_samples_;
  }

  /// Hourly overlay snapshots (config.stats_interval): role census,
  /// directory-load and petal-size distributions.
  const std::vector<OverlaySample>& overlay_samples() const;
  /// One overlay snapshot of the current state; public for tests.
  OverlaySample ProbeOverlay() const;

  /// Protocol totals, read from the env's stats registry (so departed
  /// sessions' events are included), plus a census of the live sessions.
  struct Stats {
    uint64_t queries_issued = 0;
    uint64_t dring_resolve_failures = 0;
    uint64_t dir_reply_vacant = 0;
    uint64_t dir_query_timeouts = 0;
    uint64_t dir_failures_detected = 0;
    uint64_t promotions_triggered = 0;
    uint64_t summary_hits = 0;
    uint64_t collaboration_hits = 0;
    size_t live_sessions = 0;
    size_t live_directories = 0;
    size_t max_observed_directory_load = 0;
    int max_observed_instance = 0;
  };
  Stats ComputeStats() const;

  /// Live session lookup (tests / examples). Null when the peer is offline.
  FlowerPeer* session(PeerId peer);
  size_t live_sessions() const { return live_sessions_; }
  const DRingKeyspace& keyspace() const { return keyspace_; }

  /// Peers currently acting as directory peers (the bootstrap registry).
  const std::vector<PeerId>& live_directories() const {
    return dir_registry_;
  }

  /// The live directory of petal (ws, loc, instance), if any.
  FlowerPeer* FindDirectory(WebsiteId ws, LocalityId loc, int instance = 0);

  /// Kills a specific peer immediately (failure injection for tests and
  /// the maintenance-recovery bench). No-op if offline.
  void InjectFailure(PeerId peer);

  /// Chaos-engine hooks: whether petal (ws, loc) has a live primary
  /// directory, and killing it. KillDirectory returns false when the petal
  /// has no live directory to kill.
  bool HasDirectory(WebsiteId ws, LocalityId loc);
  bool KillDirectory(WebsiteId ws, LocalityId loc);

  /// Makes a directory peer leave gracefully with handoff (§5.2.2).
  void InjectGracefulLeave(PeerId peer);

 private:
  /// Creates and registers `peer`'s session (not yet started).
  FlowerPeer* CreateSession(PeerId peer);
  void OnArrival(PeerId peer);
  void OnFailure(PeerId peer);
  void DestroySession(PeerId peer);
  PeerId PickDirectoryBootstrap(PeerId self);
  void OnRoleChange(PeerId peer, FlowerRole role);
  void RegistryAdd(PeerId peer);
  void RegistryRemove(PeerId peer);
  void ScheduleLoadSampling();

  ExperimentEnv* env_;
  FlowerParams params_;
  DRingKeyspace keyspace_;
  FlowerContext ctx_;
  Rng rng_;

  // Live sessions indexed by PeerId (identities are 1..universe); null
  // when offline. Every loop over them only counts, takes maxima or feeds
  // sorted summaries, so visiting them in id order changes no output.
  std::vector<std::unique_ptr<FlowerPeer>> sessions_;
  size_t live_sessions_ = 0;
  // Bootstrap registry of live directory peers (O(1) random pick).
  std::vector<PeerId> dir_registry_;
  std::unordered_map<PeerId, size_t> dir_registry_index_;

  // Directory-load maxima of departed sessions and past load samples.
  size_t max_observed_directory_load_ = 0;
  int max_observed_instance_ = 0;

  std::vector<LoadSample> load_samples_;
  SimDuration load_sample_period_ = 30 * kMinute;
  std::unique_ptr<OverlaySampler> overlay_sampler_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_EXPT_FLOWER_SYSTEM_H_
