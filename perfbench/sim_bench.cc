// perfbench-sim — the simulator workloads of the repository benchmark.
//
//   perfbench-sim --workload=W --seed=N --setup
//   perfbench-sim --workload=W --seed=N --trial=I [--trace=1]
//                 [--spans-out=PATH]
//
// W is flower-2k-24h or flower-100k-1h: the paper's Table 1 trial at 2k
// peers for 24 h, and the same config at 100k peers for 1 h. Trial I uses
// the seed flowercdn-sim --seed=N --trials=K gives its trial I.
//
// --setup times ExperimentEnv + FlowerSystem::Setup kSetupRuns times.
// --trial runs one trial through the calls RunExperiment makes and reports
// its wall time and the wall time and event count of each of kSegments
// equal stretches of simulated time; a trial past its workload's event cap
// stops there as a runaway. With --trace=1 it runs the trial rebuilt
// from those calls with a counting Transport installed, query traces on and
// a span around every call, then RunExperiment itself; the rebuilt trial's
// deterministic counters must equal RunExperiment's.
//
// The last stdout line is one JSON object: correct, runaway, attempted,
// failed, the counter digest, the metrics by name (units are added by
// run.py) and, for an untraced trial, its stretches.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "chord/messages.h"
#include "expt/analysis.h"
#include "expt/env.h"
#include "expt/experiment.h"
#include "expt/flower_system.h"
#include "flower/messages.h"
#include "gossip/cyclon.h"
#include "obs/sampler.h"
#include "runner/seed.h"
#include "sim/transport.h"
#include "util/hash.h"
#include "wire/codec.h"

using namespace flowercdn;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::atof(line.c_str() + len + 1) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

struct Workload {
  const char* name;
  size_t population;
  SimDuration duration;
  // Accepted final population as a share of the target: 24 h of churn
  // converges to the target; after 1 h arrivals have filled about 1 - 1/e.
  double pop_lo, pop_hi;
  // About three times a usual trial's events. A trial past it has run away
  // into a storm the overlay does not recover from (trial 0 of --seed=34 at
  // 100k peers runs 86M events, ten times the usual, and answers 9% of
  // queries from the overlay); it is stopped there and run.py skips it.
  uint64_t max_events;
};

const Workload kWorkloads[] = {
    {"flower-2k-24h", 2000, 24 * kHour, 0.85, 1.15, 75'000'000},
    {"flower-100k-1h", 100000, 1 * kHour, 0.55, 0.75, 30'000'000},
};

ExperimentConfig MakeConfig(const Workload& w, uint64_t seed, size_t trial) {
  ExperimentConfig config;  // Table 1 defaults, as flowercdn-sim builds them
  config.seed = DeriveTrialSeed(seed, trial);  // flowercdn-sim --seed --trials
  config.target_population = w.population;
  config.duration = w.duration;
  return config;
}

// The deterministic outcome of a trial; equal configs must give equal
// counters, whatever the wall clock did.
struct Counters {
  uint64_t events = 0, cancelled = 0, messages = 0, bytes = 0, dropped = 0;
  uint64_t queries = 0, hits = 0, population = 0;

  uint64_t Digest() const {
    uint64_t h = 0;
    for (uint64_t v : {events, cancelled, messages, bytes, dropped, queries,
                       hits, population}) {
      h = Mix64(h ^ v);
    }
    return h;
  }
  bool operator==(const Counters&) const = default;
};

Counters CountersOf(const ExperimentResult& r) {
  return {r.events_processed, r.events_cancelled, r.messages_sent,
          r.bytes_sent,       r.messages_dropped, r.total_queries,
          r.hits,             r.final_population};
}

// Output checks shared by every trial; returns false and says why.
bool CheckTrial(const Workload& w, const Counters& c, std::string* why) {
  const double pop = static_cast<double>(c.population);
  const double target = static_cast<double>(w.population);
  if (c.hits > c.queries) {
    *why = "hits exceed queries";
  } else if (c.hits == 0) {
    *why = "no query was answered from the overlay";
  } else if (pop < w.pop_lo * target || pop > w.pop_hi * target) {
    *why = "final population " + std::to_string(c.population) +
           " outside the expected band";
  } else {
    return true;
  }
  return false;
}

// Layer of a message type, for the traced run's ledger.
enum Layer {
  kChordStabilize, kChordLookup, kFlowerGossip, kFlowerKeepalive,
  kFlowerPush, kFlowerQuery, kFlowerReplica, kFlowerPromote, kNack,
  kOtherLayer, kNumLayers
};

Layer LayerOf(MessageType t) {
  switch (t) {
    case kChordFindSuccessor: case kChordForwardAck: case kChordLookupResult:
      return kChordLookup;
    case kFlowerGossip: case kFlowerGossipReply:
    case kGossipShuffle: case kGossipShuffleReply:
      return kFlowerGossip;
    case kFlowerKeepalive: case kFlowerKeepaliveReply:
      return kFlowerKeepalive;
    case kFlowerPush: case kFlowerPushReply:
      return kFlowerPush;
    case kFlowerReplicaSync: case kFlowerReplicaSyncReply:
      return kFlowerReplica;
    case kFlowerPromote: case kFlowerDirHandoff:
      return kFlowerPromote;
    case kTransportNack:
      return kNack;
    default:
      break;
  }
  if (IsChordMessage(t)) return kChordStabilize;  // neighbors/notify/...
  if (IsFlowerMessage(t)) return kFlowerQuery;    // dir query, fetch, probe
  return kOtherLayer;
}

// Forwards every message to in-process delivery unchanged, after charging
// it to its layer. Every `kWireSampleEvery`-th message is also encoded and
// decoded with the wire codec, timed, to price the workload's real mix.
class CountingTransport : public Transport {
 public:
  static constexpr uint64_t kWireSampleEvery = 64;

  explicit CountingTransport(Network* network) : network_(network) {}

  void Carry(PeerId /*src*/, PeerId dst, SimDuration latency,
             size_t accounted_bytes, MessagePtr msg) override {
    Layer layer = LayerOf(msg->type);
    ++msgs_[layer];
    bytes_[layer] += accounted_bytes;
    if (++seen_ % kWireSampleEvery == 0 &&
        WireRegistry::Global().Find(msg->type) != nullptr) {
      SampleWire(*msg);
    }
    network_->DeliverFromTransport(dst, latency, accounted_bytes,
                                   std::move(msg));
  }
  const char* name() const override { return "perfbench-counting"; }

  uint64_t msgs(Layer l) const { return msgs_[l]; }
  uint64_t bytes(Layer l) const { return bytes_[l]; }
  uint64_t total_msgs() const {
    uint64_t n = 0;
    for (uint64_t m : msgs_) n += m;
    return n;
  }
  double encode_ns() const { return wire_n_ ? encode_ns_ / wire_n_ : 0; }
  double decode_ns() const { return wire_n_ ? decode_ns_ / wire_n_ : 0; }
  double bytes_per_msg() const {
    return wire_n_ ? static_cast<double>(wire_bytes_) / wire_n_ : 0;
  }
  uint64_t decode_errors() const { return decode_errors_; }

 private:
  void SampleWire(const Message& msg) {
    buf_.clear();
    auto t0 = Clock::now();
    WireEncodeTo(msg, &buf_);
    auto t1 = Clock::now();
    Result<MessagePtr> decoded = WireDecode(buf_);
    auto t2 = Clock::now();
    if (!decoded.ok()) ++decode_errors_;
    encode_ns_ += std::chrono::duration<double, std::nano>(t1 - t0).count();
    decode_ns_ += std::chrono::duration<double, std::nano>(t2 - t1).count();
    wire_bytes_ += buf_.size();
    ++wire_n_;
  }

  Network* network_;
  uint64_t msgs_[kNumLayers] = {};
  uint64_t bytes_[kNumLayers] = {};
  uint64_t seen_ = 0;
  std::vector<uint8_t> buf_;
  double encode_ns_ = 0, decode_ns_ = 0;
  uint64_t wire_bytes_ = 0, wire_n_ = 0, decode_errors_ = 0;
};

// In-memory spans around the benchmark's calls into the program.
struct Span {
  std::string name;
  double start_s, end_s;
  int parent;
};

class Spans {
 public:
  Spans() : t0_(Clock::now()) {}
  int Begin(std::string name, int parent) {
    spans_.push_back({std::move(name), Since(t0_), -1, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double End(int id) {
    spans_[static_cast<size_t>(id)].end_s = Since(t0_);
    return spans_[static_cast<size_t>(id)].end_s -
           spans_[static_cast<size_t>(id)].start_s;
  }
  void Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

struct Output {
  bool correct = true, runaway = false;
  uint64_t attempted = 0, failed = 0;
  uint64_t digest = 0;
  std::vector<std::string> notes;
  std::vector<std::pair<std::string, double>> metrics;
  // An untraced trial's stretches: wall seconds and events of each.
  std::vector<double> segments_s, segment_events;

  void Metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
  void Print() const {
    std::printf("{\"correct\": %s, \"runaway\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"digest\": \"%016llx\", \"notes\": [",
                correct ? "true" : "false", runaway ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(digest));
    for (size_t i = 0; i < notes.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", notes[i].c_str());
    }
    std::printf("], \"metrics\": {");
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i ? ", " : "", metrics[i].first.c_str(),
                  metrics[i].second);
    }
    std::printf("}");
    PrintArray("segments_s", segments_s);
    PrintArray("segment_events", segment_events);
    std::printf("}\n");
  }
  static void PrintArray(const char* name, const std::vector<double>& v) {
    std::printf(", \"%s\": [", name);
    for (size_t i = 0; i < v.size(); ++i) {
      std::printf("%s%.9g", i ? ", " : "", v[i]);
    }
    std::printf("]");
  }
};

// ExperimentEnv construction plus FlowerSystem::Setup, repeated
// kSetupRuns times (one takes from under a millisecond at 2k peers to tens
// of milliseconds at 100k). Other tenants of the host only ever slow a
// construction down, so the fastest one is reported.
constexpr int kSetupRuns = 21;

void MeasureSetup(const ExperimentConfig& config, Output* out) {
  std::vector<double> env_s, system_s, total_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    auto t0 = Clock::now();
    auto env = std::make_unique<ExperimentEnv>(config);
    auto t1 = Clock::now();
    FlowerSystem system(env.get(), config.flower);
    system.Setup();
    auto t2 = Clock::now();
    env_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    system_s.push_back(std::chrono::duration<double>(t2 - t1).count());
    total_s.push_back(std::chrono::duration<double>(t2 - t0).count());
    ++out->attempted;
  }
  out->Metric("setup_s", *std::min_element(total_s.begin(), total_s.end()));
  out->Metric("expt.setup_env_s",
              *std::min_element(env_s.begin(), env_s.end()));
  out->Metric("expt.setup_system_s",
              *std::min_element(system_s.begin(), system_s.end()));
}

// Equal stretches of simulated time a trial is timed in.
constexpr int kSegments = 48;

// One trial through the calls RunExperiment makes for a Flower-CDN config
// without a chaos script (ExperimentEnv, TrafficSampler, FlowerSystem::Setup,
// Simulator::RunUntil), stopping every duration / kSegments of simulated
// time; the first stretch includes the set-up. Stopping changes no event.
void RunTimedTrial(const Workload& w, const ExperimentConfig& config,
                   Output* out) {
  const auto start = Clock::now();
  auto t0 = start;
  ExperimentEnv env(config);
  TrafficSampler traffic_sampler(&env.sim(), &env.network(),
                                 config.stats_interval);
  traffic_sampler.Start();
  FlowerSystem system(&env, config.flower);
  system.Setup();
  uint64_t events = 0;
  for (int i = 1; i <= kSegments; ++i) {
    env.sim().RunUntil(config.duration * i / kSegments);
    const auto t1 = Clock::now();
    out->segments_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    out->segment_events.push_back(
        static_cast<double>(env.sim().events_processed() - events));
    t0 = t1;
    events = env.sim().events_processed();
    if (events > w.max_events) {
      out->runaway = true;
      return;
    }
  }
  const double trial_s = Since(start);
  ++out->attempted;
  const MetricsCollector& metrics = env.metrics();
  const Counters c{env.sim().events_processed(),
                   env.sim().events_cancelled(),
                   env.network().messages_sent(),
                   env.network().bytes_sent(),
                   env.network().messages_dropped(),
                   metrics.total_queries(),
                   metrics.hits(),
                   env.network().alive_count()};
  std::string why;
  if (!CheckTrial(w, c, &why)) {
    ++out->failed;
    out->Fail(why);
  }
  out->digest = c.Digest();
  out->Metric("trial_s", trial_s);
  out->Metric("peak_rss_mb", ProcStatusMb("VmHWM:"));
  out->Metric("hit_ratio", metrics.HitRatio());
  out->Metric("lookup_ms", metrics.MeanLookupMs());
  out->Metric("simcore.events", static_cast<double>(c.events));
}

// The trial through RunExperiment's public calls (no chaos script), with
// query traces on and every message counted by layer; reports the
// per-layer metrics and returns the trial's counters. It runs first in its
// process, as an untraced trial does, so their times compare.
Counters RunTracedTrial(const Workload& w, ExperimentConfig config,
                        const std::string& spans_out, Output* out) {
  const double rss_base_mb = ProcStatusMb("VmRSS:");
  config.collect_traces = true;
  Spans spans;
  const int root = spans.Begin("trial", -1);
  int id = spans.Begin("ExperimentEnv", root);
  ExperimentEnv env(config);
  const double env_s = spans.End(id);
  CountingTransport transport(&env.network());
  env.network().SetTransport(&transport);
  TrafficSampler traffic_sampler(&env.sim(), &env.network(),
                                 config.stats_interval);
  traffic_sampler.Start();
  id = spans.Begin("FlowerSystem::Setup", root);
  FlowerSystem system(&env, config.flower);
  system.Setup();
  const double setup_s = spans.End(id);
  const double rss_after_setup_mb = ProcStatusMb("VmRSS:");
  const double sim_s =
      static_cast<double>(config.duration) / static_cast<double>(kSecond);
  const auto run_start = Clock::now();
  for (SimTime t = kHour; t <= config.duration; t += kHour) {
    id = spans.Begin("Simulator::RunUntil " + std::to_string(t / kHour) + "h",
                     root);
    env.sim().RunUntil(t);
    spans.End(id);
  }
  id = spans.Begin("Simulator::RunUntil end", root);
  env.sim().RunUntil(config.duration);
  spans.End(id);
  const double run_s = Since(run_start);
  const double traced_trial_s = spans.End(root);
  ++out->attempted;

  const MetricsCollector& metrics = env.metrics();
  Counters traced{env.sim().events_processed(), env.sim().events_cancelled(),
                  env.network().messages_sent(), env.network().bytes_sent(),
                  env.network().messages_dropped(), metrics.total_queries(),
                  metrics.hits(), env.network().alive_count()};
  std::string why;
  if (!CheckTrial(w, traced, &why)) {
    ++out->failed;
    out->Fail(why);
  }
  if (transport.total_msgs() != env.network().messages_sent()) {
    out->Fail("layer ledger does not add up to the messages sent");
  }
  if (transport.decode_errors() != 0) {
    out->Fail("wire codec failed to decode a sampled message");
  }
  out->digest = traced.Digest();

  const FlowerSystem::Stats fs = system.ComputeStats();
  const Network::TrafficBreakdown& traffic = env.network().traffic();
  const double peers = static_cast<double>(env.network().alive_count());
  const double ring = static_cast<double>(fs.live_directories);

  out->Metric("simcore.events", static_cast<double>(traced.events));
  out->Metric("simcore.events_cancelled",
              static_cast<double>(traced.cancelled));
  out->Metric("simcore.events_per_s", static_cast<double>(traced.events) /
                                          run_s);
  out->Metric("sim.messages", static_cast<double>(traced.messages));
  out->Metric("sim.bytes", static_cast<double>(traced.bytes));
  out->Metric("sim.dropped", static_cast<double>(traced.dropped));
  out->Metric("sim.nacks", static_cast<double>(traffic.nack.messages));
  out->Metric("sim.rpc_cancelled", static_cast<double>(traffic.rpc_cancelled));
  const uint64_t chord_msgs =
      transport.msgs(kChordStabilize) + transport.msgs(kChordLookup);
  out->Metric("chord.stabilize.msgs",
              static_cast<double>(transport.msgs(kChordStabilize)));
  out->Metric("chord.stabilize.bytes",
              static_cast<double>(transport.bytes(kChordStabilize)));
  out->Metric("chord.lookup.msgs",
              static_cast<double>(transport.msgs(kChordLookup)));
  out->Metric("chord.lookup.bytes",
              static_cast<double>(transport.bytes(kChordLookup)));
  // Measured Chord messages per D-ring member per second over the closed
  // form, taking the final D-ring size as the ring size.
  out->Metric("chord.model_ratio",
              ring > 0 ? static_cast<double>(chord_msgs) / (ring * sim_s) /
                             analysis::ChordMaintenanceRate(
                                 config.flower.chord,
                                 static_cast<size_t>(ring))
                       : 0);
  const TraceCollector& trace = *env.trace();
  out->Metric("chord.hops_p50", trace.dring_hops().Quantile(0.5));
  out->Metric("flower.gossip.msgs",
              static_cast<double>(transport.msgs(kFlowerGossip)));
  out->Metric("flower.keepalive.msgs",
              static_cast<double>(transport.msgs(kFlowerKeepalive)));
  out->Metric("flower.push.msgs",
              static_cast<double>(transport.msgs(kFlowerPush)));
  out->Metric("flower.query.msgs",
              static_cast<double>(transport.msgs(kFlowerQuery)));
  out->Metric("flower.replica.msgs",
              static_cast<double>(transport.msgs(kFlowerReplica)));
  out->Metric("flower.promote.msgs",
              static_cast<double>(transport.msgs(kFlowerPromote)));
  // Gossip + keepalive per live peer per second over the closed form.
  out->Metric("flower.model_ratio",
              peers > 0 ? static_cast<double>(transport.msgs(kFlowerGossip) +
                                              transport.msgs(kFlowerKeepalive)) /
                              (peers * sim_s) /
                              analysis::FlowerPetalMaintenanceRate(
                                  config.flower.gossip_period)
                        : 0);
  out->Metric("flower.queries", static_cast<double>(traced.queries));
  out->Metric("flower.summary_hits", static_cast<double>(fs.summary_hits));
  out->Metric("flower.dir_query_timeouts",
              static_cast<double>(fs.dir_query_timeouts));
  out->Metric("flower.dring_resolve_failures",
              static_cast<double>(fs.dring_resolve_failures));
  out->Metric("flower.promotions",
              static_cast<double>(fs.promotions_triggered));
  out->Metric("flower.live_directories", ring);
  out->Metric("flower.phase.dring_resolve_ms",
              trace.phase_latency(QueryPhase::kDRingResolve).Mean());
  out->Metric("flower.phase.dir_query_ms",
              trace.phase_latency(QueryPhase::kDirQuery).Mean());
  out->Metric("flower.phase.summary_probe_ms",
              trace.phase_latency(QueryPhase::kSummaryProbe).Mean());
  out->Metric("flower.phase.fetch_ms",
              trace.phase_latency(QueryPhase::kFetch).Mean());
  uint64_t objects = 0;
  for (const ExperimentEnv::Identity& identity : env.identities()) {
    objects += identity.store.size();
  }
  out->Metric("storage.objects_per_peer",
              static_cast<double>(objects) /
                  static_cast<double>(env.universe_size()));
  out->Metric("expt.setup_env_s", env_s);
  out->Metric("expt.setup_system_s", setup_s);
  out->Metric("expt.rss_after_setup_mb", rss_after_setup_mb);
  out->Metric("expt.bytes_per_peer",
              (ProcStatusMb("VmHWM:") - rss_base_mb) * 1024.0 * 1024.0 /
                  static_cast<double>(w.population));
  out->Metric("wire.encode_ns", transport.encode_ns());
  out->Metric("wire.decode_ns", transport.decode_ns());
  out->Metric("wire.bytes_per_msg", transport.bytes_per_msg());
  out->Metric("trace.traced_trial_s", traced_trial_s);
  env.network().SetTransport(nullptr);
  if (!spans_out.empty()) spans.Write(spans_out);
  return traced;
}

// The traced trial, then RunExperiment on the same config as the reference
// its deterministic counters must equal.
void RunTraced(const Workload& w, const ExperimentConfig& config,
               const std::string& spans_out, Output* out) {
  const Counters traced = RunTracedTrial(w, config, spans_out, out);
  const ExperimentResult ref = RunExperiment(config, SystemKind::kFlowerCdn);
  ++out->attempted;
  if (!(traced == CountersOf(ref))) {
    ++out->failed;
    out->Fail("traced trial's counters differ from RunExperiment's");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_out;
  uint64_t seed = 1;
  long trial = -1;
  bool setup = false;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--workload=", 11) == 0) {
      workload = arg + 11;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--setup") == 0) {
      setup = true;
    } else if (std::strncmp(arg, "--trial=", 8) == 0) {
      trial = std::atol(arg + 8);
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--spans-out=", 12) == 0) {
      spans_out = arg + 12;
    } else {
      std::fprintf(stderr, "perfbench-sim: unknown flag %s\n", arg);
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr || setup == (trial >= 0)) {
    std::fprintf(stderr,
                 "usage: perfbench-sim --workload=flower-2k-24h|"
                 "flower-100k-1h --seed=N (--setup | --trial=I [--trace=1])\n");
    return 2;
  }
  Output out;
  if (setup) {
    MeasureSetup(MakeConfig(*w, seed, 0), &out);
  } else if (trace != 0) {
    RunTraced(*w, MakeConfig(*w, seed, static_cast<size_t>(trial)),
              spans_out, &out);
  } else {
    RunTimedTrial(*w, MakeConfig(*w, seed, static_cast<size_t>(trial)), &out);
  }
  out.Print();
  return out.correct ? 0 : 1;
}
