#ifndef FLOWERCDN_SQUIRREL_SQUIRREL_PEER_H_
#define FLOWERCDN_SQUIRREL_SQUIRREL_PEER_H_

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "chord/chord_node.h"
#include "metrics/metrics.h"
#include "obs/stats.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/rpc.h"
#include "squirrel/messages.h"
#include "storage/content_store.h"
#include "storage/object_id.h"
#include "storage/origin.h"
#include "storage/website.h"
#include "storage/workload.h"
#include "util/random.h"

namespace flowercdn {

/// Which of the two Squirrel schemes (Iyer et al., PODC'02) runs — the
/// paper's §2 describes both strategy types:
///  * kDirectory: the home node keeps a small directory of recent
///    downloaders and redirects requesters to one of them;
///  * kHomeStore: the home node stores a replica of the object itself and
///    serves it directly ("replicates web objects at peers with ID
///    numerically closest to the hash of the URL, without any locality or
///    interest considerations").
enum class SquirrelMode : uint8_t { kDirectory, kHomeStore };

const char* SquirrelModeName(SquirrelMode mode);

/// Shared, immutable experiment context handed to every Squirrel session.
struct SquirrelContext {
  Network* network = nullptr;
  MetricsCollector* metrics = nullptr;
  const WebsiteCatalog* catalog = nullptr;
  const QueryWorkload* workload = nullptr;
  const OriginServers* origins = nullptr;
  /// Where the query outcomes are counted (squirrel.*). Required.
  StatsRegistry* stats = nullptr;
  /// Supplies a live bootstrap peer (!= self), or kInvalidPeer if none.
  std::function<PeerId(PeerId self)> pick_bootstrap;
};

/// One live Squirrel session: an ordinary peer of the global Chord ring
/// that (a) issues queries for its website of interest, (b) acts as home
/// node for the objects whose keys it owns, keeping a small directory of
/// recent downloaders, and (c) serves its cached objects to other peers.
///
/// The scheme's fragility under churn — a home-node failure abruptly
/// destroys its object directories — is what the paper's Fig. 3 exposes.
class SquirrelPeer : public SimNode {
 public:
  struct Params {
    ChordNode::Params chord;
    SquirrelMode mode = SquirrelMode::kDirectory;
    SimDuration rpc_timeout = 800 * kMillisecond;
    /// Directory capacity per object (most recent downloaders).
    int max_delegates = 4;
    /// Delay between failed bootstrap attempts.
    SimDuration join_retry_delay = 30 * kSecond;
    int max_join_attempts = 5;
  };

  /// `store` is the identity's persistent browser cache (survives churn);
  /// owned by the experiment driver.
  SquirrelPeer(const SquirrelContext& ctx, PeerId self, WebsiteId website,
               ContentStore* store, Rng rng, const Params& params);

  /// Attaches to the network and enters the ring: creates it when
  /// `bootstrap` is empty, joins through it otherwise. Query generation
  /// (for active-website peers) starts once the ring is entered.
  void Start(std::optional<PeerId> bootstrap);

  void HandleMessage(MessagePtr msg) override;

  ChordNode& chord() { return chord_; }
  PeerId self() const { return self_; }
  WebsiteId website() const { return website_; }
  bool joined() const { return chord_.active(); }
  size_t directory_entries() const { return directory_.size(); }
  size_t home_store_size() const { return home_store_.size(); }

 private:
  void TryJoin(PeerId bootstrap);

  // Client side.
  void StartQuerying();
  void ScheduleNextQuery();
  void IssueQuery();
  void OnHomeResolved(const ObjectId& object, SimTime t0,
                      const Status& status, RingPeer home);
  void AskHome(const ObjectId& object, SimTime t0, RingPeer home);
  void FetchFromDelegate(const ObjectId& object, SimTime t0, PeerId home_peer,
                         PeerId delegate, SimTime resolved_at);
  void ResolveAtOrigin(const ObjectId& object, SimTime t0,
                       std::optional<PeerId> home_peer);
  void FinishQuery(const ObjectId& object, SimTime t0, bool hit,
                   SimTime resolved_at, double transfer_distance_ms);

  // Home-node side.
  void OnQuery(const Message& req);
  void OnFetch(const Message& req);
  void OnUpdate(const Message& msg);
  /// Chord key transfer: directory entries whose keys moved to a freshly
  /// joined predecessor are shipped to it.
  void HandoffToNewPredecessor(const std::optional<RingPeer>& old_predecessor,
                               const RingPeer& fresh);
  void OnHandoff(const Message& msg);
  void AddDelegate(const ObjectId& object, PeerId downloader);

  SquirrelContext ctx_;
  PeerId self_;
  WebsiteId website_;
  ContentStore* store_;
  Rng rng_;
  Params params_;
  ChordNode chord_;
  RpcEndpoint rpc_;
  Incarnation incarnation_ = 0;
  int join_attempts_ = 0;
  bool querying_ = false;

  /// Home-node directory: object -> recent downloaders (newest first).
  /// Dies with this session — Squirrel keeps no replica.
  std::unordered_map<uint64_t, std::deque<PeerId>> directory_;

  /// Home-store mode: replicas held because this node is the object's
  /// home. Session-scoped (an in-memory web cache): lost on failure.
  std::unordered_set<uint64_t> home_store_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SQUIRREL_SQUIRREL_PEER_H_
