#ifndef FLOWERCDN_SIM_NETWORK_H_
#define FLOWERCDN_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/message.h"
#include "sim/node.h"
#include "sim/rpc.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "sim/types.h"

namespace flowercdn {

class Transport;

/// What the fault layer decided about one message about to enter the
/// network. The default is a clean delivery.
struct FaultDecision {
  /// Silently lose the message (no transport NACK — unlike a dead
  /// receiver, a lossy link gives the sender no signal at all).
  bool drop = false;
  /// Extra one-way delay added on top of the topology latency, in ms.
  double extra_delay_ms = 0;
  /// Extra copies delivered after the original (duplication fault).
  int duplicates = 0;
};

/// Interception point for fault injection (src/chaos). Consulted once per
/// Send() while the fault layer is installed; implementations must be
/// deterministic functions of (their own RNG stream, the call sequence) so
/// runs stay bit-reproducible.
class NetworkFaultHook {
 public:
  virtual ~NetworkFaultHook() = default;
  virtual FaultDecision OnSend(PeerId src, PeerId dst, const Message& msg) = 0;
};

/// The simulated network: delivers messages between attached peers with
/// topology-derived latency, drops traffic to failed peers (the sender
/// notices only through RPC timeouts — exactly how churn hurts a real DHT),
/// and provides incarnation-guarded timers so that events scheduled by a
/// session can never fire into a later session of the same identity.
class Network {
 public:
  Network(Simulator* sim, Topology* topology);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  // --- Identity management -------------------------------------------------
  // An identity (PeerId + coordinate) persists across sessions; the paper's
  // churn model cycles a universe of 1.3*P identities through join/fail.

  /// Reserves room for identities 1..`max_peer`, so registering them
  /// allocates each identity array once.
  void ReserveIdentities(PeerId max_peer);
  /// Registers a peer identity with its (fixed) coordinate, and computes
  /// the coordinate's Topology::PointKey once for every later LatencyMs.
  void RegisterIdentity(PeerId peer, Coord coord);
  bool HasIdentity(PeerId peer) const;
  Coord CoordOf(PeerId peer) const;
  LocalityId LocalityOf(PeerId peer) const;
  /// One-way latency between two identities (alive or not), in ms.
  double LatencyMs(PeerId a, PeerId b) const;

  // --- Session lifecycle ---------------------------------------------------

  /// Attaches a live protocol endpoint for `peer`; returns the new
  /// incarnation number. The identity must be registered and not attached.
  Incarnation Attach(PeerId peer, SimNode* node);

  /// Detaches `peer` (abrupt failure or voluntary leave). In-flight
  /// messages to it are lost; its guarded timers never fire again.
  void Detach(PeerId peer);

  bool IsAlive(PeerId peer) const;
  /// Incarnation of the current session (0 if never attached).
  Incarnation IncarnationOf(PeerId peer) const;
  size_t alive_count() const { return alive_count_; }

  // --- Messaging -----------------------------------------------------------

  /// Sends `msg` from `src` to `dst`; delivery happens LatencyMs(src,dst)
  /// later if `dst` is still alive then, otherwise the message is dropped.
  /// `msg->src`/`msg->dst` are filled in by this call.
  void Send(PeerId src, PeerId dst, MessagePtr msg);

  /// Schedules `fn` to run after `delay`, but only if `peer` is still alive
  /// with incarnation `inc` at that moment. All protocol timers must use
  /// this (or RpcEndpoint) so stale closures are never invoked.
  EventId SchedulePeer(PeerId peer, Incarnation inc, SimDuration delay,
                       EventFn fn);

  /// Hands out process-wide unique RPC correlation ids.
  uint64_t NextRpcId() { return next_rpc_id_++; }

  /// The calls in flight of every RpcEndpoint on this network.
  RpcCallTable& rpc_calls() { return rpc_calls_; }

  // --- Trace-context propagation -------------------------------------------
  // Distributed tracing rides along without touching any protocol code: the
  // activity that is "current" while a peer runs (set by the delivery path
  // around HandleMessage, or by an explicit NetworkTraceScope at a query's
  // root) is stamped onto every message it sends, and restored on the
  // receiving side — across processes, via the frame header extension.

  /// The trace context stamped onto messages sent with no explicit context.
  const TraceContext& current_trace() const { return current_trace_; }
  /// Replaces the current context; returns the previous one (restore it —
  /// or use NetworkTraceScope, which does this automatically).
  TraceContext SetCurrentTrace(const TraceContext& trace) {
    TraceContext prev = current_trace_;
    current_trace_ = trace;
    return prev;
  }

  /// Installs (or, with nullptr, removes) the fault-injection layer. At
  /// most one hook at a time; owned by the caller and consulted on every
  /// subsequent Send().
  void SetFaultHook(NetworkFaultHook* hook) { fault_hook_ = hook; }
  NetworkFaultHook* fault_hook() const { return fault_hook_; }

  // --- Transport seam ------------------------------------------------------

  /// Installs a transport backend (caller-owned; nullptr restores the
  /// built-in in-process delivery). Every subsequent Send() routes through
  /// Transport::Carry after accounting and fault injection.
  void SetTransport(Transport* transport);
  /// The active backend (never null; defaults to the in-process one).
  Transport* transport() const;

  /// Re-entry point for transports: schedules the final delivery of a
  /// carried message after `latency`, with the usual dead-receiver drop
  /// handling and NACK generation. `accounted_bytes` must be the size
  /// charged by the Send() that initiated the carry.
  void DeliverFromTransport(PeerId dst, SimDuration latency,
                            size_t accounted_bytes, MessagePtr msg) {
    Deliver(dst, latency, accounted_bytes, std::move(msg));
  }

  Simulator* sim() { return sim_; }
  const Simulator* sim() const { return sim_; }
  Topology* topology() { return topology_; }

  // --- Traffic accounting (protocol overhead reporting) --------------------
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

  /// Traffic split by protocol family (message-type range). Each family
  /// accounts both messages and encoded bytes (Message::WireSize(), headers
  /// included) so overhead can be reported in the paper's bandwidth terms,
  /// not just message counts.
  struct TrafficBreakdown {
    struct Family {
      uint64_t messages = 0;
      uint64_t bytes = 0;
    };
    Family chord;
    Family gossip;
    Family flower;
    Family squirrel;
    Family other;  // unregistered ranges, test traffic
    /// Transport-level NACKs (kTransportNack). Counted under their own
    /// family — not `other` — so NACK storms are visible in the overhead
    /// report.
    Family nack;
    /// RPC refusals (kRpcRefused) from live peers that cannot serve the
    /// request. Their own family, so `nack` keeps meaning sends to dead
    /// peers.
    Family refused;
    /// Messages lost to a dead receiver. Counted at drop time in addition
    /// to the send-time family counters above (a dropped chord message
    /// appears in both `chord` and `dropped`).
    Family dropped;
    /// Messages lost to the fault-injection layer (link loss, partitions).
    /// Like `dropped`, counted in addition to the send-time family.
    Family injected_loss;
    /// Messages a transport backend could not carry: kernel send-buffer
    /// exhaustion, oversized encodings, write-queue overflow past the hard
    /// cap. Counted like `injected_loss` — in addition to the send-time
    /// family — via NoteTransportDrop. Deliberately absent from the runner
    /// JSON schema: the default in-process backend can never drop, so
    /// simulation exports stay byte-identical; live/socket runs surface it
    /// through their own stats output.
    Family transport_drop;
    /// Pending RPC calls cancelled by RpcEndpoint::CancelAll (session
    /// detach) before their response or timeout arrived.
    uint64_t rpc_cancelled = 0;
  };
  const TrafficBreakdown& traffic() const { return traffic_; }

  /// Accounts `n` pending calls torn down by an RpcEndpoint on detach.
  void NoteRpcCancelled(uint64_t n) { traffic_.rpc_cancelled += n; }

  /// Accounts a message a transport backend dropped instead of carrying
  /// (send-buffer exhaustion, oversized encoding, queue overflow). The
  /// backend must call this exactly once for every Carry() it does not
  /// complete with DeliverFromTransport. `accounted_bytes` is the size the
  /// initiating Send() charged.
  void NoteTransportDrop(const Message& msg, size_t accounted_bytes);

 private:
  /// Schedules one delivery of `msg` after `latency` ms. `accounted_bytes`
  /// is what Send() charged for the message (reused for drop accounting).
  void Deliver(PeerId dst, SimDuration latency, size_t accounted_bytes,
               MessagePtr msg);

  /// The simulator's GuardCheck behind SchedulePeer (installed by the
  /// constructor): ctx is the Network.
  static bool PeerGuardCheck(void* ctx, PeerId peer, Incarnation inc);

  bool Registered(PeerId peer) const {
    return peer < registered_.size() && registered_[peer];
  }

  Simulator* sim_;
  Topology* topology_;
  TraceContext current_trace_;
  NetworkFaultHook* fault_hook_ = nullptr;
  std::unique_ptr<Transport> default_transport_;
  Transport* transport_ = nullptr;  // never null after construction
  // Identity state in struct-of-arrays layout, indexed directly by PeerId
  // (identities are dense small integers — the experiment env numbers them
  // 1..universe). The alive/incarnation checks run on every delivery and
  // every guarded timer, so each check touching one flat array instead of
  // a hash bucket chain is a measurable kernel win.
  struct Point {
    Coord coord;
    uint64_t key = 0;  // Topology::PointKey(coord)
  };
  std::vector<Point> points_;
  std::vector<SimNode*> nodes_;        // non-null iff alive
  std::vector<Incarnation> incarnations_;
  std::vector<uint8_t> registered_;
  size_t alive_count_ = 0;
  uint64_t next_rpc_id_ = 1;
  RpcCallTable rpc_calls_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
  TrafficBreakdown traffic_;
};

/// RAII guard that makes `trace` the network's current trace context for
/// the enclosing scope. Used at a query's root (the peer that starts the
/// distributed activity) — everything sent inside the scope inherits the
/// context.
class NetworkTraceScope {
 public:
  NetworkTraceScope(Network* network, const TraceContext& trace)
      : network_(network), prev_(network->SetCurrentTrace(trace)) {}
  NetworkTraceScope(const NetworkTraceScope&) = delete;
  NetworkTraceScope& operator=(const NetworkTraceScope&) = delete;
  ~NetworkTraceScope() { network_->SetCurrentTrace(prev_); }

 private:
  Network* network_;
  TraceContext prev_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SIM_NETWORK_H_
