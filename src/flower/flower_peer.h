#ifndef FLOWERCDN_FLOWER_FLOWER_PEER_H_
#define FLOWERCDN_FLOWER_FLOWER_PEER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chord/chord_node.h"
#include "flower/directory_index.h"
#include "flower/dring.h"
#include "flower/dring_resolver.h"
#include "flower/messages.h"
#include "flower/params.h"
#include "gossip/view.h"
#include "metrics/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/rpc.h"
#include "storage/content_store.h"
#include "storage/origin.h"
#include "storage/website.h"
#include "storage/workload.h"
#include "util/random.h"

namespace flowercdn {

/// Role of a Flower-CDN participant. A session starts as a new client,
/// joins its petal(ws, loc) as a content peer after its first contact with
/// the directory service, and may be promoted to (or claim a vacant /
/// failed) directory-peer position on the D-ring.
enum class FlowerRole : uint8_t {
  kClient,
  kContentPeer,
  kDirectoryPeer,
};

const char* FlowerRoleName(FlowerRole role);

/// Where an externally submitted query (Gateway traffic, src/net) was
/// ultimately served from. kPetal covers the surrogate's own cache and
/// gossip-summary probes of petal neighbors; kDirectory covers providers
/// located through the directory service (own directory, D-ring routed,
/// or directory collaboration); kOrigin is the fallback to the website's
/// origin server — the only outcome that costs the content provider.
enum class ServedSource : uint8_t {
  kOrigin,
  kPetal,
  kDirectory,
};

const char* ServedSourceName(ServedSource source);

/// Shared, immutable experiment context handed to every Flower session. The
/// sessions keep a pointer to it, so it must outlive them (FlowerSystem,
/// NodeHost and test fixtures own it next to their session maps).
struct FlowerContext {
  Network* network = nullptr;
  MetricsCollector* metrics = nullptr;
  const WebsiteCatalog* catalog = nullptr;
  const QueryWorkload* workload = nullptr;
  const OriginServers* origins = nullptr;
  const DRingKeyspace* keyspace = nullptr;
  const FlowerParams* params = nullptr;
  /// Query-lifecycle trace sink; nullptr disables span collection.
  TraceCollector* trace = nullptr;
  /// Where every protocol event is counted (gossip rounds, promotions,
  /// queries, ...; docs/OBSERVABILITY.md lists them). Required.
  StatsRegistry* stats = nullptr;
  /// Synthetic keyword model for the semantic-search extension.
  KeywordModel keywords;
  /// Supplies a live D-ring member (!= self) for routing and joining, or
  /// kInvalidPeer when none is known — the deployment's bootstrap/rendezvous
  /// service.
  std::function<PeerId(PeerId self)> pick_dring_bootstrap;
  /// Notifies the driver of role transitions (maintains the bootstrap
  /// registry). May be empty.
  std::function<void(PeerId self, FlowerRole role)> on_role_change;
};

/// One live Flower-CDN session: client, content peer, and/or directory peer
/// of petal(website, locality). Implements the paper's query protocol
/// (§3), the PetalUp elastic directory (§4) and the maintenance protocols
/// (§5) — gossip, keepalive, push, directory failure detection and
/// replacement, graceful handoff, and join-race resolution.
class FlowerPeer : public SimNode {
 public:
  /// `store` is the identity's persistent cache, owned by the driver; `ctx`
  /// is shared by every session and must outlive this one.
  FlowerPeer(const FlowerContext& ctx, PeerId self, WebsiteId website,
             LocalityId locality, ContentStore* store, Rng rng);
  ~FlowerPeer() override = default;

  /// Attaches as a fresh client: active-website peers start querying (each
  /// query doubles as petal admission); others immediately ask to join
  /// their petal.
  void StartAsClient();

  /// Attaches directly as directory peer d^instance(ws, loc) — used to
  /// seed the initial D-ring population. The first such peer creates the
  /// ring (`bootstrap` empty); the rest join through any existing member.
  void StartAsDirectory(int instance, std::optional<PeerId> bootstrap);

  /// Graceful departure (§5.2.2): a directory peer hands its view and
  /// directory-index to a chosen content peer before leaving. The driver
  /// detaches the session afterwards.
  void LeaveGracefully();

  void HandleMessage(MessagePtr msg) override;

  // --- External query entry (the src/net Gateway's seam) ---------------------

  /// Completion of one externally submitted query: whether the overlay
  /// served it, from where, and the simulated resolution latency.
  using ExternalQueryCallback =
      std::function<void(bool hit, ServedSource source, double latency_ms)>;

  /// Submits one query for `object` on behalf of an external client (an
  /// HTTP request hitting the gateway in front of this peer's petal). Runs
  /// the same resolution machinery as workload queries — summary probes,
  /// directory lookup, D-ring routing, origin fallback — but reports its
  /// outcome through `cb` instead of pacing the next workload query.
  /// An object already in this peer's cache completes synchronously as a
  /// petal hit (the surrogate itself holds the bytes). The callback is
  /// dropped, never invoked, if the session is destroyed first — external
  /// drivers keep their own timeout.
  void QueryExternal(const ObjectId& object, ExternalQueryCallback cb);

  /// One search hit: an object carrying the keyword plus a petal member
  /// believed to provide it.
  using KeywordMatch = FlowerKeywordReplyMsg::Match;
  using KeywordSearchCallback =
      std::function<void(const Status& status,
                         std::vector<KeywordMatch> matches)>;

  /// Asks this peer's directory which indexed objects of its website carry
  /// `keyword`. Only meaningful for content peers (directory peers answer
  /// locally, clients fail with FailedPrecondition).
  void SearchByKeyword(KeywordId keyword, KeywordSearchCallback cb);

  /// Directory-side resolution used by SearchByKeyword; public for tests.
  std::vector<KeywordMatch> ResolveKeywordLocally(KeywordId keyword,
                                                  uint32_t max_results);

  // --- Introspection ---------------------------------------------------------
  PeerId self() const { return self_; }
  WebsiteId website() const { return website_; }
  LocalityId locality() const { return locality_; }
  FlowerRole role() const { return role_; }
  int instance() const { return instance_; }
  const PeerView& view() const { return view_; }
  /// The directory-index; empty unless this session has been a directory.
  const DirectoryIndex& index() const;
  const DirInfo& dir_info() const { return dir_info_; }
  const ContentStore& store() const { return *store_; }
  ChordNode* chord() { return chord_.get(); }
  /// Number of foreign petals this peer holds replica state for.
  size_t replica_petals_held() const;
  /// Replicated index of petal (ws, loc, instance), or null when this peer
  /// holds no replica for it.
  const DirectoryIndex* ReplicaIndex(WebsiteId website, LocalityId locality,
                                     int instance = 0) const;

 private:
  /// In-flight resolution state of one client/content-peer query.
  struct QueryState {
    ObjectId object;
    SimTime t0 = 0;
    bool has_object = false;  // false => pure petal-join request
    bool via_dring = false;
    int dring_attempts = 0;
    int scan_hops = 0;
    uint64_t trace_id = 0;  // 0 => untraced (join-only, or tracing off)
    /// Distributed trace context (cluster runs only): stamped onto every
    /// message this query causes, so its spans stitch across ranks.
    TraceContext tctx;
    /// Non-zero for externally submitted queries (QueryExternal): keys the
    /// completion callback, and suppresses the workload-pacing reschedule.
    uint64_t external_id = 0;
    /// Where the query ended up being served from (set at the hit sites;
    /// the default stands for the origin fallback).
    ServedSource source = ServedSource::kOrigin;
  };

  // --- Common plumbing -------------------------------------------------------
  void Attach();
  /// Records a trace span that ends now; no-op when tracing is off or the
  /// query is untraced (trace_id 0).
  void TraceSpan(uint64_t trace_id, QueryPhase phase, SimTime start,
                 PeerId target, int hops = -1, bool ok = true);
  ChordNode* EnsureChord(ChordId ring_id);
  PeerId PickBootstrap();
  void StartAsDirectoryRetry(int instance, PeerId bootstrap);

  // --- Query client machinery ------------------------------------------------
  void StartQueryingIfActive();
  void ScheduleNextQuery();
  void IssueQuery();
  void ResolveViaDRing(QueryState q);
  void SendDirQuery(PeerId dir, QueryState q, bool wants_join);
  void HandleDirReply(QueryState q, PeerId dir, PeerId responder,
                      const FlowerDirQueryReplyMsg& reply, bool wants_join);
  void ResolveAsContentPeer(QueryState q);
  void TrySummaryCandidates(QueryState q, std::vector<PeerId> candidates,
                            size_t index);
  void AskOwnDirectory(QueryState q);
  void ResolveAsDirectory(QueryState q);
  /// Confirms `provider` actually holds the object; falls back to the
  /// origin on refusal or timeout.
  void FetchFrom(PeerId provider, QueryState q);
  void ResolveAtOrigin(QueryState q);
  void FinishQuery(const QueryState& q, bool hit, SimTime resolved_at,
                   double transfer_distance_ms);

  // --- Content-peer machinery --------------------------------------------------
  void BecomeContentPeer(const DirInfo& info,
                         const std::vector<Contact>& view_seed);
  void ScheduleGossip(SimDuration delay);
  void GossipRound();
  void ScheduleKeepalive(SimDuration delay);
  void KeepaliveRound();
  void MaybePush();
  void DoPush();
  void MergeGossip(PeerId from, const std::vector<Contact>& contacts,
                   const BloomFilter& summary, const DirInfo& their_info);
  void ReconcileDirInfo(const DirInfo& theirs);
  /// §5.2.1: the directory peer stopped answering — first detector runs the
  /// replacement protocol.
  void OnDirectoryUnreachable();
  /// Resolve-then-claim of directory position (ws, loc, instance); used for
  /// failure replacement, vacancy claims and PetalUp promotions. Restores
  /// handoff state when provided.
  void AttemptDirectoryClaim(
      int instance,
      std::optional<FlowerDirHandoffMsg> handoff = std::nullopt);
  void DemoteToContentPeer();

  // --- Directory-peer machinery -------------------------------------------------
  void BecomeDirectory(int instance);
  void ScheduleDirectoryMaintenance();
  void DirectoryMaintenanceRound();
  void OnDirQuery(MessagePtr msg);
  void AnswerDirQuery(std::shared_ptr<FlowerDirQueryMsg> req);
  std::optional<PeerId> FindProviderLocally(const ObjectId& object,
                                            PeerId exclude);
  void AdmitContentPeer(PeerId peer, std::optional<ObjectId> first_object);
  std::optional<PeerId> NextInstancePeer() const;
  std::optional<PeerId> SameWebsiteNeighborDir() const;
  void TriggerPromotion();
  void OnPromote(const FlowerPromoteMsg& msg);
  void OnPush(const Message& req);
  void OnKeepalive(const Message& req);
  void OnGossip(const Message& req);
  void OnFetch(const Message& req);
  void OnForwardedQuery(const Message& req);
  void OnKeywordQuery(const Message& req);
  void OnDirProbe(const Message& req);
  void OnDirHandoff(const Message& msg);

  // --- Directory replication (replication >= 2) --------------------------------
  /// Replica state this peer holds for a *foreign* petal, fed by the
  /// petal's primary directory over FlowerReplicaSync.
  struct ReplicaState {
    PeerId primary = kInvalidPeer;
    WebsiteId website = 0;
    LocalityId locality = 0;
    int instance = 0;
    /// 1-based successor rank the primary last assigned us (failover
    /// stagger: rank 1 acts first).
    uint32_t rank = 1;
    uint64_t version = 0;
    SimTime last_sync = 0;
    int handover_attempts = 0;
    DirectoryIndex index;
    std::vector<Contact> view;
  };

  /// One logged index mutation on the primary, tagged with the state
  /// version it produced.
  struct ReplicaOp {
    uint64_t version = 0;
    FlowerReplicaSyncMsg::Op op;
  };

  /// Directory-role and replica state. Only directory peers and replica
  /// holders pay for it: it is allocated when a session first takes the
  /// directory role (StartAsDirectory, BecomeDirectory) or accepts a full
  /// replica sync, and then kept for the rest of the session, so its
  /// version counter and scheduled-flags survive role flaps. Invariant:
  /// role_ == kDirectoryPeer implies dir_ != nullptr.
  struct DirectoryState {
    DirectoryIndex index;
    // Primary side: mutation log + periodic sync to D-ring successors.
    uint64_t replica_version = 0;
    std::deque<ReplicaOp> replica_ops;  // version-ascending, bounded
    std::unordered_map<PeerId, uint64_t> replica_acks;
    bool replica_sync_scheduled = false;
    bool replica_monitor_scheduled = false;
    // Replica side, keyed by the petal's D-ring position id.
    std::unordered_map<ChordId, ReplicaState> replicas;
  };

  DirectoryState& EnsureDirectoryState();
  bool ReplicationActive() const;
  // Primary side: mutation log + periodic sync to D-ring successors.
  void ReplicaRecordReplace(PeerId peer, const std::vector<ObjectId>& objects);
  void ReplicaRecordAdd(PeerId peer, const ObjectId& object);
  void ReplicaRecordRemove(PeerId peer);
  void AppendReplicaOp(FlowerReplicaSyncMsg::Op op);
  /// Drops the mutation log and per-replica acks (role change).
  void ResetReplicaSource();
  void ScheduleReplicaSync(SimDuration delay);
  void ReplicaSyncRound();
  void SendReplicaSync(PeerId target, uint32_t rank);
  // Replica side: apply syncs, watch primary liveness, hand over on death.
  void OnReplicaSync(const Message& req);
  void ScheduleReplicaMonitor();
  void ReplicaMonitorRound();
  void InitiateReplicaHandover(ReplicaState& state);
  /// Serves a dir-query from fresh replica state while the petal's primary
  /// is being replaced (suppresses racing vacancy claims). Returns true if
  /// the reply was filled in.
  bool TryAnswerFromReplica(const FlowerDirQueryMsg& req,
                            FlowerDirQueryReplyMsg* reply);

  const FlowerContext* ctx_;
  PeerId self_;
  WebsiteId website_;
  LocalityId locality_;
  ContentStore* store_;
  Rng rng_;

  FlowerRole role_ = FlowerRole::kClient;
  int instance_ = 0;
  std::unique_ptr<ChordNode> chord_;
  RpcEndpoint rpc_;
  DRingResolver resolver_;
  Incarnation incarnation_ = 0;

  PeerView view_;  // petal view (unbounded, per Table 1)
  std::unordered_map<PeerId, BloomFilter> summaries_;
  DirInfo dir_info_;
  // Directory index and replication state. Replication (k >= 2) costs
  // nothing at the default k=1: no replica event is ever scheduled and no
  // op is logged, so a directory peer pays sizeof(DirectoryState), the
  // 576 B an empty libstdc++ deque allocates for the op log, and its
  // index; a client or content peer pays only this null pointer.
  std::unique_ptr<DirectoryState> dir_;

  /// In-flight QueryExternal callbacks, keyed by QueryState::external_id.
  std::unordered_map<uint64_t, ExternalQueryCallback> external_queries_;
  uint64_t next_external_id_ = 1;

  bool querying_ = false;
  bool gossip_scheduled_ = false;
  bool keepalive_scheduled_ = false;
  bool dir_maintenance_scheduled_ = false;
  bool claim_in_progress_ = false;
  bool push_in_flight_ = false;
  SimTime promotion_triggered_at_ = -1;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_FLOWER_FLOWER_PEER_H_
