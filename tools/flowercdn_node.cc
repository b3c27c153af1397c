// flowercdn-node — one live process of a Flower-CDN deployment, built on
// NodeHost (src/net), in one of two modes:
//
//  * --transport=inproc (default): single process, in-process delivery,
//    run as fast as the simulator goes with --wire=encoded byte accounting.
//    CI's live-mode smoke test: exits 0 iff at least one client query was
//    answered from the overlay.
//  * --transport=tcp: one rank of a multi-process cluster. Peer identities
//    are partitioned across the ranks listed in --cluster; messages to
//    remote peers travel persistent length-prefixed TCP streams, and an
//    HTTP gateway (--gateway-port) serves GET /<website>/<object> through
//    a hosted peer. The simulated clock is paced against wall time
//    (--time-scale sim-ms per wall-ms). Exits 0 iff the run completed
//    with zero frame-decode errors.

#include <csignal>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "expt/env.h"
#include "net/clock.h"
#include "net/node_host.h"
#include "runner/sweep.h"
#include "sim/types.h"
#include "util/table_printer.h"

using namespace flowercdn;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --transport=T      inproc | tcp              (default inproc)\n"
      "  --population=P     sessions across cluster    (default 40)\n"
      "  --hours=H          simulated duration, hours  (default 2)\n"
      "  --minutes=M        simulated duration, minutes (overrides --hours)\n"
      "  --seed=S           base RNG seed              (default 42)\n"
      "  --websites=W       catalog websites           (default 2)\n"
      "  --objects=O        objects per website        (default 50)\n"
      "  --localities=K     topology localities        (default 2)\n"
      "  --quiet            suppress progress output\n"
      "cluster mode (--transport=tcp):\n"
      "  --rank=R           this process's rank        (default 0)\n"
      "  --cluster=H:P,...  one host:port per rank     (default 127.0.0.1:0)\n"
      "  --gateway-port=P   HTTP gateway port, 0=auto  (default: no gateway)\n"
      "  --gateway          enable gateway on an auto port\n"
      "  --time-scale=X     sim-ms per wall-ms         (default 20)\n"
      "  --partition=S      hash | locality            (default locality)\n"
      "  --stats-out=PATH   write node stats JSON on exit\n"
      "observability:\n"
      "  --admin-port=P     dedicated /metrics /statusz /healthz listener\n"
      "                     (0=auto; endpoints always also on the gateway)\n"
      "  --stats-interval=S per-interval qps/latency snapshots every S wall\n"
      "                     seconds (into /statusz and --stats-out)\n"
      "  --trace-out=PATH   write this rank's Chrome trace-event JSON on\n"
      "                     exit (cross-rank ids; merge with\n"
      "                     scripts/merge_traces.py)\n"
      "  --slow-request-ms=X log gateway requests slower than X wall ms\n",
      argv0);
}

volatile sig_atomic_t g_stop_requested = 0;

void OnStopSignal(int) { g_stop_requested = 1; }

/// Parses a --hours/--minutes value (positive decimal) into `*out`; prints
/// a one-line error and returns false otherwise.
bool ParseDurationFlag(const char* flag, const char* value, SimDuration unit,
                       SimDuration* out) {
  Result<SimDuration> duration = ParseDuration(value, unit);
  if (!duration.ok()) {
    std::fprintf(stderr, "%s: %s\n", flag,
                 duration.status().message().c_str());
    return false;
  }
  *out = *duration;
  return true;
}

bool ParseCluster(const char* spec, std::vector<ClusterMember>* out) {
  out->clear();
  std::string s(spec);
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    std::string entry = s.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    size_t colon = entry.rfind(':');
    if (entry.empty() || colon == std::string::npos || colon == 0) {
      return false;
    }
    ClusterMember member;
    member.host = entry.substr(0, colon);
    long port = atol(entry.c_str() + colon + 1);
    if (port < 0 || port > 65535) return false;
    member.port = static_cast<uint16_t>(port);
    out->push_back(member);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config;
  // A deliberately small deployment: 2 websites x 2 localities seed a
  // 4-peer D-ring; the rest of the population joins as clients over the
  // first simulated minute. Static population — robustness under churn is
  // the simulator's experiment, the live runtime exercises the wire path.
  config.target_population = 40;
  config.duration = 2 * kHour;
  config.catalog.num_websites = 2;
  config.catalog.num_active = 2;
  config.catalog.objects_per_website = 50;
  config.topology.num_localities = 2;
  config.churn_enabled = false;
  config.wire_mode = WireMode::kEncoded;  // charge real encoded lengths

  NodeHost::Options host_options;
  host_options.transport = TransportKind::kInProcess;
  host_options.partition = PartitionScheme::kLocality;
  host_options.time_scale = 20.0;

  bool quiet = false;
  bool want_gateway = false;
  uint16_t gateway_port = 0;
  std::string stats_out;
  std::string trace_out;
  bool want_admin = false;
  uint16_t admin_port = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--transport=", 12) == 0) {
      const char* v = arg + 12;
      if (std::strcmp(v, "tcp") == 0) {
        host_options.transport = TransportKind::kTcp;
      } else if (std::strcmp(v, "inproc") == 0) {
        host_options.transport = TransportKind::kInProcess;
      } else {
        Usage(argv[0]);
        return 2;
      }
    } else if (std::strncmp(arg, "--population=", 13) == 0) {
      config.target_population = static_cast<size_t>(atoll(arg + 13));
    } else if (std::strncmp(arg, "--hours=", 8) == 0) {
      if (!ParseDurationFlag("--hours", arg + 8, kHour, &config.duration)) {
        return 2;
      }
    } else if (std::strncmp(arg, "--minutes=", 10) == 0) {
      if (!ParseDurationFlag("--minutes", arg + 10, kMinute,
                             &config.duration)) {
        return 2;
      }
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = static_cast<uint64_t>(atoll(arg + 7));
    } else if (std::strncmp(arg, "--websites=", 11) == 0) {
      config.catalog.num_websites = atoi(arg + 11);
    } else if (std::strncmp(arg, "--objects=", 10) == 0) {
      config.catalog.objects_per_website = atoi(arg + 10);
    } else if (std::strncmp(arg, "--localities=", 13) == 0) {
      config.topology.num_localities = atoi(arg + 13);
    } else if (std::strncmp(arg, "--rank=", 7) == 0) {
      host_options.rank = atoi(arg + 7);
    } else if (std::strncmp(arg, "--cluster=", 10) == 0) {
      if (!ParseCluster(arg + 10, &host_options.members)) {
        std::fprintf(stderr, "bad --cluster spec\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--gateway-port=", 15) == 0) {
      want_gateway = true;
      gateway_port = static_cast<uint16_t>(atoi(arg + 15));
    } else if (std::strcmp(arg, "--gateway") == 0) {
      want_gateway = true;
    } else if (std::strncmp(arg, "--time-scale=", 13) == 0) {
      host_options.time_scale = atof(arg + 13);
    } else if (std::strncmp(arg, "--partition=", 12) == 0) {
      const char* v = arg + 12;
      if (std::strcmp(v, "hash") == 0) {
        host_options.partition = PartitionScheme::kHash;
      } else if (std::strcmp(v, "locality") == 0) {
        host_options.partition = PartitionScheme::kLocality;
      } else {
        Usage(argv[0]);
        return 2;
      }
    } else if (std::strncmp(arg, "--stats-out=", 12) == 0) {
      stats_out = arg + 12;
    } else if (std::strncmp(arg, "--admin-port=", 13) == 0) {
      want_admin = true;
      admin_port = static_cast<uint16_t>(atoi(arg + 13));
    } else if (std::strncmp(arg, "--stats-interval=", 17) == 0) {
      host_options.stats_interval_s = atof(arg + 17);
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
    } else if (std::strncmp(arg, "--slow-request-ms=", 18) == 0) {
      host_options.gateway.slow_request_ms = atof(arg + 18);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  const bool cluster = host_options.transport == TransportKind::kTcp;
  if (cluster) {
    // Cluster profile: peers join petals but issue no self-queries — the
    // gateway is the only query driver — and RPC budgets are widened so a
    // wall-time hiccup (scheduler stall, start skew) does not masquerade
    // as a peer failure at high time scales: at --time-scale=20, 800 sim
    // ms is only 40 wall ms of real budget.
    config.catalog.num_active = 0;
    SimDuration floor_rpc =
        static_cast<SimDuration>(200 * host_options.time_scale);
    SimDuration floor_lookup =
        static_cast<SimDuration>(500 * host_options.time_scale);
    config.flower.rpc_timeout =
        std::max(config.flower.rpc_timeout, floor_rpc);
    config.flower.chord.rpc_timeout =
        std::max(config.flower.chord.rpc_timeout, floor_rpc);
    config.flower.chord.lookup_timeout =
        std::max(config.flower.chord.lookup_timeout, floor_lookup);
  }
  host_options.enable_gateway = want_gateway;
  host_options.gateway.port = gateway_port;
  host_options.enable_admin = want_admin;
  host_options.admin.port = admin_port;
  host_options.stop_flag = &g_stop_requested;
  if (!trace_out.empty()) config.collect_traces = true;

  // Graceful shutdown: a signalled node leaves the run loop at the next
  // iteration and still writes --stats-out / --trace-out.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnStopSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  ExperimentEnv env(config);
  if (!trace_out.empty() && env.trace_ptr() != nullptr) {
    // Rank-distinct trace ids (rank 0 => prefix 1<<48) so per-rank trace
    // files can be merged into one cluster-wide trace, and foreign spans
    // are recognizable on arrival.
    env.trace_ptr()->SetDistributedPrefix(
        (static_cast<uint64_t>(host_options.rank) + 1) << 48);
    char pname[64];
    std::snprintf(pname, sizeof(pname), "flowercdn-node rank %d",
                  host_options.rank);
    env.trace_ptr()->SetExportProcess(host_options.rank + 1, pname);
  }
  NodeHost host(&env, config.flower, host_options);
  if (!host.Setup()) {
    std::fprintf(stderr, "FAIL: setup (bind) failed\n");
    return 1;
  }
  if (!quiet || want_gateway) {
    if (host.tcp() != nullptr) {
      std::fprintf(stderr, "rank %d/%zu listening on tcp port %u\n",
                   host.rank(), host.world(), host.tcp()->listen_port());
    }
    if (host.gateway() != nullptr) {
      // Parsed by scripts/run_local_cluster.sh when the port is
      // kernel-picked; keep the format stable.
      std::fprintf(stderr, "gateway listening on http port %u\n",
                   host.gateway()->port());
    }
    if (host.admin() != nullptr) {
      // Parsed by scripts/run_local_cluster.sh; keep the format stable.
      std::fprintf(stderr, "admin listening on http port %u\n",
                   host.admin()->port());
    }
  }

  const int64_t wall0 = MonotonicMillis();
  if (cluster) {
    host.RunPaced(config.duration);
  } else {
    // Single process: run as fast as the simulator goes, with periodic
    // progress lines.
    SimDuration chunk = 30 * kMinute;
    if (config.duration < chunk) chunk = config.duration;
    host.RunFast(config.duration, chunk, [&]() {
      if (quiet) return;
      std::fprintf(
          stderr, "  t=%lldmin: %zu peers, %llu queries, %llu hits\n",
          static_cast<long long>(env.sim().now() / kMinute),
          env.network().alive_count(),
          static_cast<unsigned long long>(env.metrics().total_queries()),
          static_cast<unsigned long long>(env.metrics().hits()));
    });
  }
  const double wall_seconds =
      static_cast<double>(MonotonicMillis() - wall0) / 1000.0;

  if (g_stop_requested != 0 && !quiet) {
    std::fprintf(stderr, "stop signal received, shutting down cleanly\n");
  }
  if (!stats_out.empty()) host.WriteStatsJson(stats_out, wall_seconds);
  if (!trace_out.empty() && env.trace_ptr() != nullptr) {
    Status st = env.trace_ptr()->WriteChromeTraceFile(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.message().c_str());
    }
  }

  const uint64_t queries = env.metrics().total_queries();
  const uint64_t hits = env.metrics().hits();
  const StatsRegistry& stats = env.stats();
  const uint64_t decode_errors = stats.Total("net.tcp.decode_errors");

  TablePrinter table({"metric", "value"});
  table.AddRow({"rank", std::to_string(host.rank()) + "/" +
                            std::to_string(host.world())});
  table.AddRow({"hosted peers", std::to_string(host.hosted_peers())});
  table.AddRow({"hosted directories",
                std::to_string(host.hosted_directories())});
  table.AddRow({"accounted wire bytes",
                std::to_string(env.network().bytes_sent())});
  if (host.tcp() != nullptr) {
    table.AddRow({"transport", host.tcp()->name()});
    table.AddRow({"frames sent", std::to_string(host.tcp()->frames_sent())});
    table.AddRow({"frames received",
                  std::to_string(host.tcp()->frames_received())});
    table.AddRow({"tcp bytes sent",
                  std::to_string(host.tcp()->bytes_sent())});
    table.AddRow({"decode errors", std::to_string(decode_errors)});
    table.AddRow({"reconnects",
                  std::to_string(stats.Total("net.tcp.reconnects"))});
  }
  if (host.gateway() != nullptr) {
    table.AddRow({"gateway requests",
                  std::to_string(stats.Total("net.gateway.requests"))});
    table.AddRow({"gateway petal",
                  std::to_string(stats.Total("net.gateway.served_petal"))});
    table.AddRow({"gateway directory",
                  std::to_string(stats.Total("net.gateway.served_directory"))});
    table.AddRow({"gateway origin",
                  std::to_string(stats.Total("net.gateway.served_origin"))});
  }
  table.AddRow({"queries", std::to_string(queries)});
  table.AddRow({"overlay hits", std::to_string(hits)});
  table.AddRow({"hit ratio", FormatDouble(env.metrics().HitRatio(), 3)});
  if (!quiet) table.Print(std::cout);

  if (cluster) {
    if (decode_errors != 0) {
      std::fprintf(stderr, "FAIL: %llu frame decode errors\n",
                   static_cast<unsigned long long>(decode_errors));
      return 1;
    }
    return 0;
  }

  // Single-process smoke semantics (CI): the overlay must answer queries.
  if (hits == 0) {
    std::fprintf(stderr, "FAIL: no query was answered from the overlay\n");
    return 1;
  }
  if (!quiet) {
    std::printf("OK: %llu queries answered from the overlay\n",
                static_cast<unsigned long long>(hits));
  }
  return 0;
}
