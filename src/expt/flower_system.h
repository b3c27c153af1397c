#ifndef FLOWERCDN_EXPT_FLOWER_SYSTEM_H_
#define FLOWERCDN_EXPT_FLOWER_SYSTEM_H_

#include <memory>
#include <vector>

#include "expt/env.h"
#include "expt/session_host.h"
#include "flower/dring.h"
#include "flower/flower_peer.h"
#include "obs/sampler.h"

namespace flowercdn {

/// The context every Flower session in `env` shares, wired to the env's
/// network, sinks and content models. `keyspace` and `params` must outlive
/// the sessions; the driver sets the bootstrap and role-change callbacks.
FlowerContext MakeFlowerContext(ExperimentEnv* env,
                                const DRingKeyspace* keyspace,
                                const FlowerParams* params);

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
  FlowerPeer* session(PeerId peer) { return sessions_.Get(peer); }
  size_t live_sessions() const { return sessions_.live(); }
  const DRingKeyspace& keyspace() const { return keyspace_; }

  /// Peers currently acting as directory peers (the bootstrap registry).
  const std::vector<PeerId>& live_directories() const {
    return dir_registry_.peers();
  }

  /// The live directory of petal (ws, loc, instance), if any.
  FlowerPeer* FindDirectory(WebsiteId ws, LocalityId loc, int instance = 0);

  /// Kills a specific peer immediately (failure injection for tests).
  /// No-op if offline.
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
  void DestroySession(PeerId peer);
  PeerId PickDirectoryBootstrap(PeerId self);
  void OnRoleChange(PeerId peer, FlowerRole role);
  void ScheduleLoadSampling();

  ExperimentEnv* env_;
  FlowerParams params_;
  DRingKeyspace keyspace_;
  FlowerContext ctx_;
  Rng rng_;

  SessionHost<FlowerPeer> sessions_;
  // Bootstrap registry of live directory peers.
  PeerSet dir_registry_;

  // Directory-load maxima of departed sessions and past load samples.
  size_t max_observed_directory_load_ = 0;
  int max_observed_instance_ = 0;

  std::vector<LoadSample> load_samples_;
  SimDuration load_sample_period_ = 30 * kMinute;
  std::unique_ptr<OverlaySampler> overlay_sampler_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_EXPT_FLOWER_SYSTEM_H_
