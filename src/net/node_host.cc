#include "net/node_host.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <initializer_list>
#include <utility>

#include "net/clock.h"
#include "obs/expose.h"
#include "obs/stats.h"
#include "util/hash.h"
#include "util/logging.h"

namespace flowercdn {

namespace {

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n <= 0) return;
  if (static_cast<size_t>(n) < sizeof(buf)) {
    out->append(buf, static_cast<size_t>(n));
    return;
  }
  std::string big(static_cast<size_t>(n) + 1, '\0');
  va_start(args, fmt);
  vsnprintf(big.data(), big.size(), fmt, args);
  va_end(args);
  big.resize(static_cast<size_t>(n));
  out->append(big);
}

double QuantileMs(const LatencyHistogram& hist, double q) {
  return static_cast<double>(hist.QuantileMicros(q)) / 1000.0;
}

}  // namespace

NodeHost::NodeHost(ExperimentEnv* env, const FlowerParams& params,
                   Options options)
    : env_(env),
      params_(params),
      options_(std::move(options)),
      keyspace_(env->config().catalog.num_websites,
                env->config().topology.num_localities,
                params.max_instances) {
  FLOWERCDN_CHECK(env != nullptr);
  FLOWERCDN_CHECK(!options_.members.empty()) << "empty cluster";
  FLOWERCDN_CHECK(options_.rank >= 0 &&
                  static_cast<size_t>(options_.rank) <
                      options_.members.size())
      << "rank " << options_.rank << " outside cluster of "
      << options_.members.size();
  FLOWERCDN_CHECK(options_.time_scale > 0) << "time_scale must be positive";

  ctx_.network = &env_->network();
  ctx_.metrics = &env_->metrics();
  ctx_.catalog = &env_->catalog();
  ctx_.workload = &env_->workload();
  ctx_.origins = &env_->origins();
  ctx_.keyspace = &keyspace_;
  ctx_.params = &params_;
  ctx_.trace = env_->trace_ptr();
  ctx_.stats = &env_->stats();
  ctx_.pick_dring_bootstrap = [this](PeerId self) {
    return PickClusterBootstrap(self);
  };
}

NodeHost::~NodeHost() {
  // Tear sockets down before the sessions they might call back into.
  gateway_.reset();
  tcp_.reset();
}

int NodeHost::OwnerOf(PeerId peer) const {
  size_t w = options_.members.size();
  if (w == 1) return 0;
  switch (options_.partition) {
    case PartitionScheme::kHash:
      return static_cast<int>(Mix64(peer) % w);
    case PartitionScheme::kLocality:
      return static_cast<int>(
          static_cast<size_t>(env_->identity(peer).locality) % w);
  }
  return 0;
}

size_t NodeHost::hosted_directories() const {
  size_t n = 0;
  for (const auto& [peer, session] : sessions_) {
    if (session->role() == FlowerRole::kDirectoryPeer) ++n;
  }
  return n;
}

FlowerPeer* NodeHost::session(PeerId peer) {
  auto it = sessions_.find(peer);
  return it == sessions_.end() ? nullptr : it->second.get();
}

FlowerPeer* NodeHost::PeerForWebsite(WebsiteId website, uint64_t salt) {
  auto it = website_peers_.find(website);
  if (it == website_peers_.end() || it->second.empty()) return nullptr;
  size_t idx = Mix64(salt ^ (static_cast<uint64_t>(website) << 32)) %
               it->second.size();
  return it->second[idx];
}

PeerId NodeHost::PickClusterBootstrap(PeerId self) const {
  // Static rendezvous: the initial directory identities are deterministic
  // and, with no churn in cluster mode, permanently live. Spreading the
  // choice over the first few keeps the join load off one hub.
  size_t n = std::min<size_t>(initial_directories_, 8);
  if (n == 0) return kInvalidPeer;
  size_t idx = Mix64(self) % n;
  PeerId candidate = static_cast<PeerId>(idx + 1);
  if (candidate == self) {
    if (n == 1) return kInvalidPeer;
    candidate = static_cast<PeerId>((idx + 1) % n + 1);
  }
  return candidate;
}

FlowerPeer* NodeHost::CreateSession(PeerId peer) {
  const ExperimentEnv::Identity& identity = env_->identity(peer);
  auto session = std::make_unique<FlowerPeer>(
      ctx_, peer, identity.website, identity.locality,
      &env_->identity(peer).store, env_->MakePeerRng(peer));
  FlowerPeer* raw = session.get();
  sessions_.emplace(peer, std::move(session));
  website_peers_[identity.website].push_back(raw);
  return raw;
}

void NodeHost::LaunchDirectory(PeerId peer, bool create_ring) {
  FlowerPeer* session = CreateSession(peer);
  if (create_ring) {
    session->StartAsDirectory(0, std::nullopt);
    return;
  }
  PeerId bootstrap = PickClusterBootstrap(peer);
  session->StartAsDirectory(0, bootstrap == kInvalidPeer
                                   ? std::nullopt
                                   : std::optional<PeerId>(bootstrap));
}

void NodeHost::LaunchClient(PeerId peer) {
  CreateSession(peer)->StartAsClient();
}

bool NodeHost::Setup() {
  Network& network = env_->network();
  switch (options_.transport) {
    case TransportKind::kInProcess:
      break;
    case TransportKind::kTcp:
      tcp_ = std::make_unique<TcpTransport>(
          &network, &loop_, options_.rank, options_.members,
          [this](PeerId peer) { return OwnerOf(peer); }, options_.tcp,
          &env_->stats());
      if (!tcp_->Listen()) return false;
      network.SetTransport(tcp_.get());
      break;
  }

  const ExperimentConfig& config = env_->config();
  const int k = config.topology.num_localities;
  const int num_websites = config.catalog.num_websites;
  initial_directories_ =
      static_cast<size_t>(num_websites) * static_cast<size_t>(k);

  size_t population =
      options_.population > 0 ? options_.population : config.target_population;
  population = std::max(population, initial_directories_);
  population = std::min(population, env_->universe_size());

  // The initial D-ring: every rank schedules the same global launch
  // timeline and skips the identities it does not own, so launch times
  // agree across the cluster without coordination.
  size_t global_index = 0;
  for (int ws = 0; ws < num_websites; ++ws) {
    for (int loc = 0; loc < k; ++loc) {
      PeerId peer = env_->InitialDirectoryIdentity(
          static_cast<WebsiteId>(ws), static_cast<LocalityId>(loc));
      if (OwnerOf(peer) == options_.rank) {
        SimDuration at = static_cast<SimDuration>(global_index) *
                         config.initial_join_stagger;
        bool create_ring = global_index == 0;
        env_->sim().Schedule(at, [this, peer, create_ring]() {
          LaunchDirectory(peer, create_ring);
        });
      }
      ++global_index;
    }
  }

  // The rest of the population joins as clients, spread over a window
  // after the directory launch completes.
  SimDuration dir_window = static_cast<SimDuration>(initial_directories_) *
                               config.initial_join_stagger +
                           1;
  size_t num_clients = population - initial_directories_;
  for (size_t i = 0; i < num_clients; ++i) {
    PeerId peer = static_cast<PeerId>(initial_directories_ + i + 1);
    if (OwnerOf(peer) != options_.rank) continue;
    SimDuration at =
        dir_window + static_cast<SimDuration>(
                         (static_cast<uint64_t>(options_.client_join_spread) *
                          i) /
                         std::max<size_t>(num_clients, 1));
    env_->sim().Schedule(at, [this, peer]() { LaunchClient(peer); });
  }

  // The admin plane: wired into the gateway's port (path interception)
  // and, when requested, onto its own listener.
  admin_handler_.set_metrics_fn([this] { return RenderMetrics(); });
  admin_handler_.set_statusz_fn(
      [this] { return StatusJson(RunWallSeconds()); });

  if (options_.enable_gateway) {
    Gateway::Options gw_options = options_.gateway;
    gw_options.admin = &admin_handler_;
    gateway_ = std::make_unique<Gateway>(
        &loop_, &env_->catalog(),
        [this](WebsiteId ws, uint64_t salt) {
          return PeerForWebsite(ws, salt);
        },
        std::move(gw_options), &env_->stats());
    if (!gateway_->Listen()) return false;
  }
  if (options_.enable_admin) {
    admin_ = std::make_unique<AdminServer>(&loop_, &admin_handler_,
                                           options_.admin);
    if (!admin_->Listen()) return false;
  }
  return true;
}

void NodeHost::CheckStopFlag() {
  if (options_.stop_flag != nullptr && *options_.stop_flag != 0) stop_ = true;
}

double NodeHost::RunWallSeconds() const {
  if (run_wall0_ms_ < 0) return 0;
  return static_cast<double>(MonotonicMillis() - run_wall0_ms_) / 1000.0;
}

void NodeHost::MaybeSampleInterval(double wall_s, bool force) {
  if (options_.stats_interval_s <= 0) return;
  double dur = wall_s - last_sample_wall_s_;
  if (!force && dur < options_.stats_interval_s) return;
  if (force && dur <= 0) return;
  last_sample_wall_s_ = wall_s;

  const StatsRegistry& stats = env_->stats();
  const GatewayTotals cur{stats.Total("net.gateway.requests"),
                          stats.Total("net.gateway.responses"),
                          stats.Total("net.gateway.served_petal"),
                          stats.Total("net.gateway.served_directory"),
                          stats.Total("net.gateway.served_origin")};
  const LatencyHistogram cur_latency =
      gateway_ != nullptr ? gateway_->request_latency() : LatencyHistogram{};
  LatencyHistogram delta = cur_latency.DeltaSince(prev_request_latency_);

  IntervalSample s;
  s.t_s = wall_s;
  s.sim_ms = static_cast<long long>(env_->sim().now());
  s.requests = cur.requests - prev_gateway_.requests;
  s.responses = cur.responses - prev_gateway_.responses;
  s.qps = dur > 0 ? static_cast<double>(s.responses) / dur : 0;
  s.p50_ms = QuantileMs(delta, 0.5);
  s.p99_ms = QuantileMs(delta, 0.99);
  s.served_petal = cur.served_petal - prev_gateway_.served_petal;
  s.served_directory = cur.served_directory - prev_gateway_.served_directory;
  s.served_origin = cur.served_origin - prev_gateway_.served_origin;
  intervals_.push_back(s);

  prev_gateway_ = cur;
  prev_request_latency_ = cur_latency;
}

void NodeHost::RunPaced(SimDuration sim_duration) {
  const int64_t wall0 = MonotonicMillis();
  run_wall0_ms_ = wall0;
  int64_t last_gauges_ms = 0;
  while (!stop_) {
    CheckStopFlag();
    if (stop_) break;
    int64_t wall = MonotonicMillis() - wall0;
    SimTime target = static_cast<SimTime>(static_cast<double>(wall) *
                                          options_.time_scale);
    if (target > sim_duration) target = sim_duration;
    if (target > env_->sim().now()) env_->sim().RunUntil(target);
    if (target >= sim_duration) break;

    int timeout_ms = 20;
    SimTime next = env_->sim().NextEventTime();
    if (next >= 0) {
      int64_t due_wall = static_cast<int64_t>(static_cast<double>(next) /
                                              options_.time_scale);
      int64_t delta = due_wall - (MonotonicMillis() - wall0);
      if (delta < 0) delta = 0;
      if (delta < timeout_ms) timeout_ms = static_cast<int>(delta);
    }
    if (tcp_ != nullptr) {
      int t = tcp_->Tick();
      if (t >= 0 && t < timeout_ms) timeout_ms = t;
    }
    loop_.PollOnce(timeout_ms);
    if (wall - last_gauges_ms >= 1000) {
      last_gauges_ms = wall;
      ExportGauges();
    }
    MaybeSampleInterval(static_cast<double>(wall) / 1000.0);
  }
  MaybeSampleInterval(RunWallSeconds(), /*force=*/true);
  ExportGauges();
}

void NodeHost::RunFast(SimDuration sim_duration, SimDuration chunk,
                       const std::function<void()>& on_chunk) {
  FLOWERCDN_CHECK(chunk > 0);
  if (run_wall0_ms_ < 0) run_wall0_ms_ = MonotonicMillis();
  SimTime t = env_->sim().now();
  while (!stop_ && t < sim_duration) {
    CheckStopFlag();
    if (stop_) break;
    t = std::min<SimTime>(t + chunk, sim_duration);
    env_->sim().RunUntil(t);
    loop_.PollOnce(0);
    if (tcp_ != nullptr) tcp_->Tick();
    MaybeSampleInterval(RunWallSeconds());
    if (on_chunk) on_chunk();
  }
  ExportGauges();
}

void NodeHost::ExportGauges() {
  StatsRegistry& stats = env_->stats();
  stats.Set("net.host.hosted_peers", static_cast<double>(sessions_.size()));
  if (tcp_ != nullptr) tcp_->ExportGauges();
  if (gateway_ != nullptr) {
    stats.Set("net.gateway.open_connections",
              static_cast<double>(gateway_->open_connections()));
  }
}

std::string NodeHost::StatusJson(double wall_seconds) const {
  const Network& network = env_->network();
  const Network::TrafficBreakdown& traffic = network.traffic();
  const StatsRegistry& stats = env_->stats();

  const char* transport = "in-process";
  if (tcp_ != nullptr) transport = tcp_->name();

  std::string out;
  out.reserve(2048 + intervals_.size() * 160);
  // One `"key": total,` line per registry counter `prefix + key`.
  auto append_totals = [&](const std::string& prefix,
                           std::initializer_list<const char*> keys) {
    for (const char* key : keys) {
      AppendF(&out, "    \"%s\": %llu,\n", key,
              static_cast<unsigned long long>(stats.Total(prefix + key)));
    }
  };
  AppendF(&out,
          "{\n"
          "  \"rank\": %d,\n"
          "  \"world\": %zu,\n"
          "  \"transport\": \"%s\",\n"
          "  \"hosted_peers\": %zu,\n"
          "  \"hosted_directories\": %zu,\n"
          "  \"sim_time_ms\": %lld,\n"
          "  \"wall_seconds\": %.3f,\n"
          "  \"time_scale\": %.3f,\n",
          options_.rank, world(), transport, sessions_.size(),
          hosted_directories(), static_cast<long long>(env_->sim().now()),
          wall_seconds, options_.time_scale);
  AppendF(&out,
          "  \"network\": {\n"
          "    \"messages_sent\": %llu,\n"
          "    \"messages_delivered\": %llu,\n"
          "    \"messages_dropped\": %llu,\n"
          "    \"bytes_sent\": %llu,\n"
          "    \"transport_drop_messages\": %llu,\n"
          "    \"transport_drop_bytes\": %llu\n"
          "  },\n",
          static_cast<unsigned long long>(network.messages_sent()),
          static_cast<unsigned long long>(network.messages_delivered()),
          static_cast<unsigned long long>(network.messages_dropped()),
          static_cast<unsigned long long>(network.bytes_sent()),
          static_cast<unsigned long long>(traffic.transport_drop.messages),
          static_cast<unsigned long long>(traffic.transport_drop.bytes));
  if (tcp_ != nullptr) {
    AppendF(&out,
            "  \"tcp\": {\n"
            "    \"frames_sent\": %llu,\n"
            "    \"frames_received\": %llu,\n"
            "    \"bytes_sent\": %llu,\n"
            "    \"bytes_received\": %llu,\n",
            static_cast<unsigned long long>(tcp_->frames_sent()),
            static_cast<unsigned long long>(tcp_->frames_received()),
            static_cast<unsigned long long>(tcp_->bytes_sent()),
            static_cast<unsigned long long>(tcp_->bytes_received()));
    append_totals("net.tcp.", {"frames_dropped", "decode_errors", "reconnects",
                               "connect_failures", "backpressure_events"});
    AppendF(&out,
            "    \"peak_queued_bytes\": %zu,\n"
            "    \"accepted_evicted\": %llu\n"
            "  },\n",
            tcp_->peak_queued_bytes(),
            static_cast<unsigned long long>(
                stats.Total("net.tcp.accepted_evicted")));
  }
  const LatencyHistogram gw_latency =
      gateway_ != nullptr ? gateway_->request_latency() : LatencyHistogram{};
  out.append("  \"gateway\": {\n");
  append_totals("net.gateway.",
                {"requests", "responses", "bad_requests", "unavailable",
                 "served_petal", "served_directory", "served_origin",
                 "body_bytes_petal", "body_bytes_directory",
                 "body_bytes_origin", "slow_requests"});
  AppendF(&out,
          "    \"latency_p50_ms\": %.3f,\n"
          "    \"latency_p99_ms\": %.3f\n"
          "  },\n",
          QuantileMs(gw_latency, 0.5), QuantileMs(gw_latency, 0.99));
  AppendF(&out,
          "  \"event_loop\": {\n"
          "    \"polls\": %llu,\n"
          "    \"watched_fds\": %zu,\n"
          "    \"poll_wait_p50_us\": %llu,\n"
          "    \"poll_wait_p99_us\": %llu,\n"
          "    \"callback_p50_us\": %llu,\n"
          "    \"callback_p99_us\": %llu,\n"
          "    \"callback_max_us\": %llu\n"
          "  },\n",
          static_cast<unsigned long long>(loop_.polls()),
          loop_.watched_fds(),
          static_cast<unsigned long long>(loop_.poll_wait().QuantileMicros(0.5)),
          static_cast<unsigned long long>(
              loop_.poll_wait().QuantileMicros(0.99)),
          static_cast<unsigned long long>(
              loop_.callback_duration().QuantileMicros(0.5)),
          static_cast<unsigned long long>(
              loop_.callback_duration().QuantileMicros(0.99)),
          static_cast<unsigned long long>(
              loop_.callback_duration().max_micros()));
  AppendF(&out, "  \"admin_requests\": %llu,\n",
          static_cast<unsigned long long>(admin_handler_.requests()));
  AppendF(&out, "  \"stats_interval_s\": %.3f,\n",
          options_.stats_interval_s);
  out.append("  \"intervals\": [");
  for (size_t i = 0; i < intervals_.size(); ++i) {
    const IntervalSample& s = intervals_[i];
    AppendF(&out,
            "%s\n    {\"t_s\": %.3f, \"sim_ms\": %lld, "
            "\"requests\": %llu, \"responses\": %llu, \"qps\": %.2f, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"served_petal\": %llu, \"served_directory\": %llu, "
            "\"served_origin\": %llu}",
            i == 0 ? "" : ",", s.t_s, s.sim_ms,
            static_cast<unsigned long long>(s.requests),
            static_cast<unsigned long long>(s.responses), s.qps, s.p50_ms,
            s.p99_ms, static_cast<unsigned long long>(s.served_petal),
            static_cast<unsigned long long>(s.served_directory),
            static_cast<unsigned long long>(s.served_origin));
  }
  out.append(intervals_.empty() ? "]\n" : "\n  ]\n");
  out.append("}\n");
  return out;
}

std::string NodeHost::RenderMetrics() {
  ExportGauges();
  StatsRegistry& stats = env_->stats();
  // Touch the families a scraper is promised even before first use, so
  // /metrics is schema-stable from the first scrape on.
  stats.counter("net.gateway.requests");
  stats.counter("net.gateway.responses");
  stats.counter("net.gateway.served_petal");
  stats.counter("net.gateway.served_directory");
  stats.counter("net.gateway.served_origin");
  stats.counter("net.gateway.slow_requests");
  stats.counter("net.admin.requests");

  std::string out;
  AppendPrometheusStats(stats, &out);
  AppendF(&out, "# TYPE flowercdn_eventloop_polls counter\n"
                "flowercdn_eventloop_polls %llu\n",
          static_cast<unsigned long long>(loop_.polls()));
  AppendPrometheusSummary("flowercdn_eventloop_poll_wait_seconds",
                          loop_.poll_wait(), &out);
  AppendPrometheusSummary("flowercdn_eventloop_callback_seconds",
                          loop_.callback_duration(), &out);
  if (gateway_ != nullptr) {
    AppendPrometheusSummary("flowercdn_gateway_request_seconds",
                            gateway_->request_latency(), &out);
  }
  return out;
}

bool NodeHost::WriteStatsJson(const std::string& path,
                              double wall_seconds) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    FLOWERCDN_LOG(kWarning) << "cannot write " << path;
    return false;
  }
  std::string json = StatusJson(wall_seconds);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace flowercdn
