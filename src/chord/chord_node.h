#ifndef FLOWERCDN_CHORD_CHORD_NODE_H_
#define FLOWERCDN_CHORD_CHORD_NODE_H_

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "chord/finger_table.h"
#include "chord/id.h"
#include "chord/lookup.h"
#include "chord/messages.h"
#include "sim/network.h"
#include "sim/rpc.h"
#include "util/status.h"

namespace flowercdn {

/// One Chord protocol endpoint (Stoica et al., SIGCOMM'01) — the DHT
/// substrate of both the paper's D-ring and the Squirrel baseline.
///
/// Implemented features:
///  * recursive lookups with per-hop acknowledgements: a hop that forwards
///    a query immediately detects (by ack timeout) that the next hop died,
///    prunes it and re-forwards — plus an end-to-end retry at the origin;
///  * periodic stabilization (successor-list refresh, predecessor liveness
///    check, round-robin finger repair) that sends only for what the node
///    does not already know: it notifies the successor only while it does
///    not name this node as its predecessor, pings the predecessor only
///    when it has not probed or notified us lately (and at once whenever
///    another node probes us), and looks up only fingers aimed past the
///    successor list, which fills the nearer ones;
///  * refusal of lookup steps and predecessor pings while not a ring
///    member, so the forwarder re-routes, and the successor drops this
///    node as its predecessor, in one round trip;
///  * join with finger warm-start from the successor, including detection
///    of an occupied ring position (needed by the D-ring's deterministic
///    key placement, paper §5.2.2);
///  * graceful leave handing links to the neighbors.
///
/// The node is a component: a host object (FlowerPeer / SquirrelPeer) owns
/// it, attaches itself to the network and feeds chord-range messages into
/// HandleMessage().
class ChordNode {
 public:
  /// Period of the stabilization timer (the Chord paper's recommended
  /// order of magnitude; successor-change-triggered probes make the ring
  /// converge much faster than this between periods).
  static constexpr SimDuration kStabilizePeriod = 30 * kSecond;
  /// Number of (top) fingers maintained; lower fingers collapse onto the
  /// successor for any realistic population.
  static constexpr int kFingerCount = 20;
  /// Fix one finger every this many stabilize rounds (a finger whose
  /// target the successor list covers is taken from the list instead).
  static constexpr int kFingerFixStride = 2;
  /// Ping the predecessor every this many stabilize rounds, unless it
  /// probed or notified us within the last this many periods.
  static constexpr int kPredecessorCheckStride = 2;

  struct Params {
    /// Timeout of one control RPC (ack, neighbors probe, notify...). It is
    /// below the default topology's worst round trip (2 x 500 ms): a
    /// lookup hop whose ack is late is re-forwarded, a hedge against slow
    /// hops, but ring neighbours whose round trip exceeds it keep timing
    /// each other out.
    SimDuration rpc_timeout = 800 * kMillisecond;
    /// End-to-end deadline for one lookup attempt.
    SimDuration lookup_timeout = 6 * kSecond;
    int successor_list_size = 8;
  };

  enum class State { kIdle, kJoining, kActive };

  using JoinCallback = std::function<void(const Status& status)>;

  ChordNode(Network* network, PeerId self, ChordId id, const Params& params);
  ChordNode(const ChordNode&) = delete;
  ChordNode& operator=(const ChordNode&) = delete;

  /// Associates the node with the host's network incarnation. Must be
  /// called after Network::Attach and before any protocol activity.
  void Bind(Incarnation incarnation);

  /// Bootstraps a brand-new ring containing only this node.
  void CreateRing();

  /// Joins the ring through any live member. Fails with AlreadyExists if a
  /// live node already occupies this exact ring id (D-ring position taken),
  /// Unavailable/TimedOut if the bootstrap cannot be reached.
  void Join(PeerId bootstrap, JoinCallback done);

  /// Graceful departure: hands links to neighbors and goes idle. The host
  /// remains attached to the network (app-level transfer may follow).
  void Leave();

  /// Resolves successor(key). Must be in state kActive.
  void Lookup(ChordId key, LookupCallback cb);

  /// Resolves successor(key) by delegating the query to `via` — used before
  /// joining, when this node cannot route itself. kInvalidPeer routes it
  /// from here.
  void LookupVia(PeerId via, ChordId key, LookupCallback cb);

  /// Routes an attempt of lookup `lookup_id`, which this node originated,
  /// from here (StartLookup's `router`). Returns false, sending nothing,
  /// when the node is not a ring member.
  bool RouteOwnLookup(ChordId key, uint64_t lookup_id);

  /// Feeds a message to the protocol. Returns true if consumed.
  bool HandleMessage(MessagePtr& msg);

  /// Invoked when every successor candidate was lost — the ring is broken
  /// from this node's perspective and the application should re-join.
  std::function<void()> on_ring_broken;

  /// Invoked when another live node turns out to hold this node's exact
  /// ring id (lost join race, paper §5.2.2). The node has already reverted
  /// to kIdle when this fires.
  std::function<void()> on_duplicate_id;

  /// Invoked when the predecessor changes to a *different peer* — the
  /// moment at which part of this node's key range moves to the new
  /// predecessor. Applications storing per-key state (Squirrel home
  /// directories) hand the affected keys over here, as in the Chord
  /// paper's key-transfer-on-join.
  std::function<void(const std::optional<RingPeer>& old_predecessor,
                     const RingPeer& new_predecessor)>
      on_predecessor_changed;

  // --- Introspection (tests, stats) ---------------------------------------
  State state() const { return state_; }
  bool active() const { return state_ == State::kActive; }
  PeerId self() const { return self_; }
  ChordId id() const { return id_; }
  std::optional<RingPeer> successor() const;
  const std::optional<RingPeer>& predecessor() const { return predecessor_; }
  const std::vector<RingPeer>& successor_list() const { return successors_; }
  /// Up to `limit` distinct non-self successors in ring order — the
  /// deterministic replica set of the key range this node owns (used by
  /// the Flower directory replication layer).
  std::vector<RingPeer> DistinctSuccessors(size_t limit) const;
  const FingerTable& fingers() const { return fingers_; }
  const Params& params() const { return params_; }
  uint64_t stabilize_rounds() const { return stabilize_rounds_; }
  /// Lookups started here: the node's own, delegated and maintenance
  /// lookups alike.
  uint64_t lookups_started() const { return lookups_started_; }

 private:
  // Lookup machinery: the origin side is StartLookup (chord/lookup.h).
  void ProcessLookupStep(ChordId key, PeerId origin, uint64_t lookup_id,
                         int hops);
  void ForwardLookup(ChordId key, PeerId origin, uint64_t lookup_id, int hops,
                     int attempt);
  void SendLookupResult(PeerId origin, uint64_t lookup_id, RingPeer owner,
                        int hops);
  /// Best next hop strictly preceding `key` (fingers + successor list).
  std::optional<RingPeer> NextHop(ChordId key) const;

  // Stabilization machinery.
  void ScheduleStabilize();
  void StabilizeRound();
  /// One GetNeighbors probe of the current successor (the core of a
  /// stabilize round).
  void ProbeSuccessor();
  /// Schedules a near-immediate ProbeSuccessor — used whenever the
  /// successor just changed so chains of fresh joiners converge at network
  /// speed instead of one hop per stabilize period.
  void ProbeSuccessorSoon();
  void HandleNeighborsReply(const ChordNeighborsReplyMsg& reply,
                            RingPeer probed);
  void NotifySuccessor();
  /// Records that the recorded predecessor just contacted us (probe or
  /// notify), which proves it alive until the next predecessor check.
  void NotePredecessorContact(PeerId src);
  void CheckPredecessor();
  void FixNextFinger();
  /// Repairs finger slots emptied by failure pruning: first from the
  /// successor list, then with targeted lookups (one at a time) instead of
  /// waiting for the round-robin refresh.
  void ScheduleFingerRepair();
  /// Merges candidates (`candidates`, then `more`) into the successor list
  /// (sorted by clockwise distance from self, deduplicated keeping the
  /// first occurrence, truncated). Allocation-free at default list sizes.
  void MergeSuccessorCandidates(std::span<const RingPeer> candidates,
                                std::span<const RingPeer> more = {});
  void RemoveDeadPeer(PeerId peer);

  // Message handlers.
  void OnFindSuccessor(MessagePtr msg);
  void OnGetNeighbors(const Message& req);
  void OnNotify(const Message& req);
  void OnGetFingers(const Message& req);
  void OnLeave(const Message& msg);

  Network* network_;
  PeerId self_;
  ChordId id_;
  Params params_;
  RpcEndpoint rpc_;
  Incarnation incarnation_ = 0;

  State state_ = State::kIdle;
  std::vector<RingPeer> successors_;
  /// fingers_.version() right after fingers_ was offered successors_ as
  /// it stands, or kNotOffered once successors_ changed any other way.
  /// While it matches, a merge that leaves the list as it is has nothing
  /// to offer.
  static constexpr uint64_t kNotOffered = UINT64_MAX;
  uint64_t successors_offered_at_ = kNotOffered;
  std::optional<RingPeer> predecessor_;
  FingerTable fingers_;
  int next_finger_to_fix_ = 0;
  uint64_t stabilize_rounds_ = 0;
  uint64_t lookups_started_ = 0;
  /// Last contact from the recorded predecessor: who (it may since have
  /// been replaced) and when.
  PeerId pred_contact_peer_ = kInvalidPeer;
  SimTime pred_contact_at_ = 0;
  bool stabilize_scheduled_ = false;
  bool probe_soon_pending_ = false;
  bool finger_repair_pending_ = false;
  /// A predecessor ping is in flight (at most one at a time).
  bool pred_check_pending_ = false;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_CHORD_CHORD_NODE_H_
