#ifndef FLOWERCDN_NET_TCP_TRANSPORT_H_
#define FLOWERCDN_NET_TCP_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/event_loop.h"
#include "sim/network.h"
#include "sim/transport.h"
#include "sim/types.h"
#include "wire/frame.h"

namespace flowercdn {

class StatsRegistry;

/// One process of a cluster deployment: where it listens and how peers
/// reach it.
struct ClusterMember {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Transport backend for multi-process clusters: carried messages whose
/// destination peer is owned by another rank are wire-encoded, framed
/// (src/wire frame layout) and streamed over a persistent TCP connection
/// to that rank; messages to locally-owned peers short-circuit straight
/// back into the simulator. Fully non-blocking, driven by the host's
/// EventLoop plus a Tick() for reconnect backoff deadlines.
///
/// Connections are asymmetric: each rank dials one *outbound* connection
/// per remote rank it sends to (write-only), and accepts *inbound*
/// connections on its listen socket (read-only). There is no handshake —
/// every frame carries everything the receiver needs — so a connection is
/// usable the moment connect() completes, and frames queued while the
/// connection is still in progress (cluster start skew) simply flush when
/// it does.
///
/// Backpressure and loss are explicit, never silent:
///  * past `queue_high_watermark` queued bytes a connection is flagged
///    backpressured (counted + gauge-exported) until it drains below
///    `queue_low_watermark`;
///  * a message that would push the queue past `queue_hard_cap` is dropped
///    and accounted through Network::NoteTransportDrop, like any lost
///    message — the sender's RPC timeout is the recovery path;
///  * a torn connection keeps its queue (minus the partially-written frame,
///    which is resent from its start on the fresh stream) and redials with
///    exponential backoff.
///
/// The accepted pool is capped: one past the cap, the least recently
/// active inbound connection is evicted. A stream whose FrameAssembler
/// latches failed (malformed header, oversized claim) or whose payload
/// does not decode is counted and torn down — never trusted further.
class TcpTransport : public Transport {
 public:
  struct Options {
    /// Queued-bytes level above which a connection counts as
    /// backpressured (soft signal, nothing is dropped yet).
    size_t queue_high_watermark = 4u << 20;
    /// Level the queue must drain below to clear the backpressure flag.
    size_t queue_low_watermark = 1u << 20;
    /// Hard per-connection cap: a frame that would exceed it is dropped
    /// and accounted as a transport drop.
    size_t queue_hard_cap = 64u << 20;
    /// Cap on concurrently accepted inbound connections.
    size_t max_accepted = 128;
    /// Reconnect backoff: first retry after `reconnect_initial_ms`,
    /// doubling up to `reconnect_max_ms`.
    int reconnect_initial_ms = 50;
    int reconnect_max_ms = 2000;
    /// Decode-side cap on one frame's payload (oversized-claim rejection).
    size_t max_frame_payload = kMaxFramePayload;
  };

  /// Maps a peer identity to the rank that hosts it. Must be a pure
  /// function, identical across every rank of the cluster.
  using OwnerFn = std::function<int(PeerId)>;

  /// `members[self_rank]` is this process; Listen() binds its port.
  /// `stats` (required) receives the net.tcp.* event counters as they
  /// happen; gauges are pushed by ExportGauges().
  TcpTransport(Network* network, EventLoop* loop, int self_rank,
               std::vector<ClusterMember> members, OwnerFn owner,
               Options options, StatsRegistry* stats);
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;
  ~TcpTransport() override;

  /// Binds and listens on members[self_rank].port (port 0 lets the kernel
  /// pick — see listen_port()). Returns false on bind failure.
  bool Listen();
  uint16_t listen_port() const { return listen_port_; }

  void Carry(PeerId src, PeerId dst, SimDuration latency,
             size_t accounted_bytes, MessagePtr msg) override;

  const char* name() const override { return "tcp"; }

  /// Fires due reconnect attempts. Returns milliseconds until the next
  /// backoff deadline, or -1 when no timer is pending. Call whenever the
  /// host loop wakes up.
  int Tick();

  /// Closes every connection and the listener.
  void CloseAll();

  /// Pushes the level-style stats (queue depth, pool occupancy) into the
  /// registry as net.tcp.* gauges. Event counters are added incrementally
  /// as they happen.
  void ExportGauges();

  // --- Socket-level stats ---------------------------------------------------
  // Per-frame totals. Rare events (drops, decode errors, reconnects, ...)
  // are counted only in the stats registry as net.tcp.*.
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  /// Total queued-but-unsent bytes across outbound connections.
  size_t queued_bytes() const { return queued_bytes_total_; }
  size_t peak_queued_bytes() const { return peak_queued_bytes_; }
  size_t connected_ranks() const;
  size_t accepted_connections() const { return inbound_.size(); }

 private:
  struct OutConn {
    enum class State { kIdle, kConnecting, kConnected, kBackoff };
    int fd = -1;
    State state = State::kIdle;
    /// Frame-granular write queue; `first_offset` is how much of the front
    /// frame has been written. Kept across reconnects (offset reset: the
    /// fresh stream restarts at a frame boundary).
    std::deque<std::vector<uint8_t>> queue;
    size_t queue_bytes = 0;
    size_t first_offset = 0;
    bool want_writable = false;
    bool backpressured = false;
    int backoff_ms = 0;
    int64_t next_attempt_ms = 0;  // MonotonicMillis deadline in kBackoff
  };

  struct InConn {
    int fd = -1;
    FrameAssembler assembler;
    uint64_t last_activity = 0;  // use_clock_ stamp for LRU eviction
    explicit InConn(size_t max_payload) : assembler(max_payload) {}
  };

  OutConn& Out(int rank);
  void StartConnect(int rank);
  void HandleConnectResult(int rank);
  void HandleOutReadable(int rank);
  void Disconnect(int rank, const char* why);
  void TryFlush(int rank);
  void SetQueueBytes(OutConn& c, size_t bytes);
  void AcceptReady();
  void EvictOldestInbound();
  void ReadInbound(int fd);
  void CloseInbound(int fd);

  Network* network_;
  EventLoop* loop_;
  int self_rank_;
  std::vector<ClusterMember> members_;
  OwnerFn owner_;
  Options options_;
  StatsRegistry* stats_;

  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  std::unordered_map<int, OutConn> outbound_;   // rank -> connection
  std::unordered_map<int, InConn> inbound_;     // fd -> connection
  uint64_t use_clock_ = 0;
  std::vector<uint8_t> frame_;  // reused per-carry scratch buffer

  uint64_t frames_sent_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  size_t queued_bytes_total_ = 0;
  size_t peak_queued_bytes_ = 0;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_NET_TCP_TRANSPORT_H_
