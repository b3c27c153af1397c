#ifndef FLOWERCDN_EXPT_SQUIRREL_SYSTEM_H_
#define FLOWERCDN_EXPT_SQUIRREL_SYSTEM_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "expt/env.h"
#include "squirrel/squirrel_peer.h"

namespace flowercdn {

/// Drives the Squirrel baseline inside an ExperimentEnv: the same identity
/// universe, workload and churn as a Flower-CDN run, but every peer is an
/// ordinary member of one global Chord ring (no localities, no petals, no
/// directory replication).
class SquirrelSystem {
 public:
  SquirrelSystem(ExperimentEnv* env, const SquirrelPeer::Params& params);

  /// Creates the initial population and starts churn.
  void Setup();

  SquirrelPeer* session(PeerId peer);
  size_t live_sessions() const { return sessions_.size(); }

  /// Query-outcome totals, read from the env's stats registry (so departed
  /// sessions' queries are included), plus a census of the live sessions.
  struct Stats {
    uint64_t queries_issued = 0;
    uint64_t home_redirects = 0;
    uint64_t home_empty = 0;
    uint64_t delegate_failures = 0;
    uint64_t lookup_failures = 0;
    size_t live_sessions = 0;
    size_t joined_sessions = 0;
  };
  Stats ComputeStats() const;

  /// Failure injection (tests).
  void InjectFailure(PeerId peer);

 private:
  void StartSessionFor(PeerId peer, bool create_ring);
  void OnArrival(PeerId peer);
  void OnFailure(PeerId peer);
  void DestroySession(PeerId peer);
  PeerId PickBootstrap(PeerId self);
  void TrackAlive(PeerId peer);
  void UntrackAlive(PeerId peer);

  ExperimentEnv* env_;
  SquirrelPeer::Params params_;
  SquirrelContext ctx_;
  Rng rng_;

  std::unordered_map<PeerId, std::unique_ptr<SquirrelPeer>> sessions_;
  std::vector<PeerId> alive_;
  std::unordered_map<PeerId, size_t> alive_index_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_EXPT_SQUIRREL_SYSTEM_H_
