#ifndef FLOWERCDN_NET_NODE_HOST_H_
#define FLOWERCDN_NET_NODE_HOST_H_

#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "expt/env.h"
#include "flower/dring.h"
#include "flower/flower_peer.h"
#include "net/admin.h"
#include "net/event_loop.h"
#include "net/gateway.h"
#include "net/tcp_transport.h"

namespace flowercdn {

/// Which backend carries protocol messages out of this process.
enum class TransportKind { kInProcess, kTcp };

/// How peer identities are assigned to cluster ranks. Every rank computes
/// the same assignment from the shared config, so there is no membership
/// protocol — ownership is a pure function.
///  * kHash: owner = Mix64(peer) % world. Even spread; most petal traffic
///    crosses rank boundaries.
///  * kLocality: owner = locality % world. Petals (which are per-locality)
///    stay rank-local, so only D-ring routing and cross-locality lookups
///    hit the sockets — the deployment-shaped choice.
enum class PartitionScheme { kHash, kLocality };

/// One process of a (possibly multi-process) live deployment, hosting many
/// virtual Flower-CDN peers on a single event loop. The simulator remains
/// the scheduler — protocol timers and deliveries are simulated events —
/// but the clock is paced against wall time (RunPaced) and every message
/// whose destination lives on another rank travels a real TCP stream.
///
/// The whole identity universe is built deterministically from the shared
/// ExperimentConfig on every rank (same seed => same identities, websites,
/// coordinates); each rank attaches only the sessions it owns. Messages to
/// remote peers are carried by TcpTransport to the owning rank; a peer that
/// has not launched yet NACKs/times out exactly like a dead peer in the
/// simulation, so cluster start skew is absorbed by the protocol's own
/// retries. Cluster mode runs a static population (no churn): robustness
/// under churn is the simulator's job, the cluster runtime measures the
/// serving path.
class NodeHost {
 public:
  struct Options {
    int rank = 0;
    /// One entry per rank; members[rank] is this process. A single default
    /// member means single-process.
    std::vector<ClusterMember> members{ClusterMember{}};
    TransportKind transport = TransportKind::kInProcess;
    PartitionScheme partition = PartitionScheme::kHash;
    /// Simulated ms advanced per wall ms in RunPaced (20 => 1 sim-hour
    /// takes 3 wall-minutes).
    double time_scale = 1.0;
    /// Sessions launched across the whole cluster (split by ownership).
    /// 0 means config.target_population.
    size_t population = 0;
    /// Sim-time window over which non-directory peers join (after the
    /// directory launch window).
    SimDuration client_join_spread = 30 * kSecond;
    bool enable_gateway = false;
    Gateway::Options gateway;
    TcpTransport::Options tcp;
    /// Dedicated admin listener (--admin-port). The admin endpoints are
    /// always also served on the gateway port when the gateway is enabled.
    bool enable_admin = false;
    AdminServer::Options admin;
    /// > 0: sample a per-interval snapshot (qps, latency quantiles,
    /// hit-source mix) every this many wall seconds while running; the
    /// series lands in /statusz and the stats JSON as "intervals".
    double stats_interval_s = 0;
    /// Optional external stop signal (a signal handler's flag): run loops
    /// exit cleanly when it becomes non-zero, so a SIGTERM'd node still
    /// writes its stats file.
    const volatile sig_atomic_t* stop_flag = nullptr;
  };

  /// One periodic snapshot of the serving path, all values deltas over the
  /// sampling interval (except sim_ms/t_s, which are run totals).
  struct IntervalSample {
    double t_s = 0;        // wall seconds since the run started
    long long sim_ms = 0;  // simulated clock at sample time
    uint64_t requests = 0;
    uint64_t responses = 0;
    double qps = 0;  // responses / interval length
    double p50_ms = 0, p99_ms = 0;  // gateway wall latency this interval
    uint64_t served_petal = 0;
    uint64_t served_directory = 0;
    uint64_t served_origin = 0;
  };

  NodeHost(ExperimentEnv* env, const FlowerParams& params, Options options);
  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;
  ~NodeHost();

  /// Installs the transport (TCP mode: binds the listen port — false on
  /// failure), schedules the owned slice of the population, and starts the
  /// gateway when enabled.
  bool Setup();

  int OwnerOf(PeerId peer) const;
  size_t world() const { return options_.members.size(); }
  int rank() const { return options_.rank; }
  size_t hosted_peers() const { return sessions_.size(); }
  size_t hosted_directories() const;
  FlowerPeer* session(PeerId peer);
  /// Hosted entry peer interested in `website` (stable per salt, so one
  /// client connection keeps warming the same surrogate's cache), or
  /// nullptr when this rank hosts no peer of that website.
  FlowerPeer* PeerForWebsite(WebsiteId website, uint64_t salt);

  EventLoop& loop() { return loop_; }
  TcpTransport* tcp() { return tcp_.get(); }
  Gateway* gateway() { return gateway_.get(); }
  AdminServer* admin() { return admin_.get(); }
  AdminHandler& admin_handler() { return admin_handler_; }
  ExperimentEnv* env() { return env_; }
  const std::vector<IntervalSample>& intervals() const { return intervals_; }

  /// Advances the simulated clock against wall time while serving sockets,
  /// until `sim_duration` is reached or Stop() is called.
  void RunPaced(SimDuration sim_duration);

  /// Runs the simulator as fast as it can in `chunk`-sized steps, polling
  /// sockets (gateway, transport timers) between chunks. For single-process
  /// modes where wall pacing has no value. `on_chunk` (optional) runs after
  /// every chunk.
  void RunFast(SimDuration sim_duration, SimDuration chunk,
               const std::function<void()>& on_chunk = nullptr);

  void Stop() { stop_ = true; }
  bool stopped() const { return stop_; }

  /// Pushes level-style stats (hosted peers, queue depth, pool occupancy,
  /// gateway connections) into the env's StatsRegistry as net.* gauges.
  void ExportGauges();

  /// The node's status document (rank, hosted peers, sim time, network/
  /// tcp/gateway counters, event-loop health, interval series) as a
  /// JSON object — what /statusz serves and WriteStatsJson persists.
  std::string StatusJson(double wall_seconds) const;

  /// Renders the /metrics Prometheus exposition: every StatsRegistry
  /// instrument (gauges freshly exported) plus the event-loop and gateway
  /// latency summaries.
  std::string RenderMetrics();

  /// Writes the node's live-run stats as a JSON object to `path`
  /// (BENCH_live.json node record; schema in EXPERIMENTS.md).
  bool WriteStatsJson(const std::string& path, double wall_seconds) const;

 private:
  void LaunchDirectory(PeerId peer, bool create_ring);
  void LaunchClient(PeerId peer);
  PeerId PickClusterBootstrap(PeerId self) const;
  FlowerPeer* CreateSession(PeerId peer);
  /// Honors Options::stop_flag (signal-handler shutdown request).
  void CheckStopFlag();
  /// Appends an IntervalSample when the sampling interval has elapsed
  /// (`force`: flush a partial tail interval on shutdown).
  void MaybeSampleInterval(double wall_s, bool force = false);
  double RunWallSeconds() const;

  ExperimentEnv* env_;
  FlowerParams params_;
  Options options_;
  DRingKeyspace keyspace_;
  FlowerContext ctx_;
  EventLoop loop_;

  std::unique_ptr<TcpTransport> tcp_;
  std::unique_ptr<Gateway> gateway_;
  AdminHandler admin_handler_;
  std::unique_ptr<AdminServer> admin_;

  std::unordered_map<PeerId, std::unique_ptr<FlowerPeer>> sessions_;
  std::unordered_map<WebsiteId, std::vector<FlowerPeer*>> website_peers_;
  size_t initial_directories_ = 0;  // k * |W| (global, not per-rank)
  bool stop_ = false;

  // Interval-sampling state (deltas against the previous sample).
  std::vector<IntervalSample> intervals_;
  double last_sample_wall_s_ = 0;
  struct GatewayTotals {
    uint64_t requests = 0;
    uint64_t responses = 0;
    uint64_t served_petal = 0;
    uint64_t served_directory = 0;
    uint64_t served_origin = 0;
  };
  GatewayTotals prev_gateway_;
  LatencyHistogram prev_request_latency_;
  int64_t run_wall0_ms_ = -1;  // MonotonicMillis at run start (-1: not run)
};

}  // namespace flowercdn

#endif  // FLOWERCDN_NET_NODE_HOST_H_
