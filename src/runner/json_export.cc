#include "runner/json_export.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "runner/seed.h"
#include "util/json_string.h"
#include "util/logging.h"

namespace flowercdn {

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!counts_.empty()) {
    if (counts_.back() > 0) os_ << ',';
    ++counts_.back();
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  os_ << '{';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  counts_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  os_ << '[';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  counts_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  WriteJsonString(os_, key);
  after_key_ = true;
  os_ << ':';
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view s) {
  Separate();
  WriteJsonString(os_, s);
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  Separate();
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; the simulation never produces them, but keep
    // the document well-formed if a metric ever does.
    os_ << "null";
    return *this;
  }
  // Shortest decimal that round-trips to exactly this double — the same
  // bytes for the same value, on every run.
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  FLOWERCDN_CHECK(ec == std::errc());
  os_.write(buf, end - buf);
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  Separate();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  Separate();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Separate();
  os_ << "null";
  return *this;
}

namespace {

void WriteSummary(JsonWriter& w, const MetricSummary& s) {
  w.BeginObject();
  w.Key("n").Value(s.n);
  w.Key("mean").Value(s.mean);
  w.Key("stddev").Value(s.stddev);
  w.Key("ci95").Value(s.ci95_half);
  w.Key("min").Value(s.min);
  w.Key("max").Value(s.max);
  w.EndObject();
}

void WriteHistogram(JsonWriter& w, const Histogram& h) {
  w.BeginObject();
  w.Key("bucket_width").Value(h.bucket_width());
  w.Key("count").Value(static_cast<uint64_t>(h.count()));
  w.Key("mean").Value(h.Mean());
  w.Key("p50").Value(h.Quantile(0.5));
  w.Key("p95").Value(h.Quantile(0.95));
  w.Key("p99").Value(h.Quantile(0.99));
  // counts[i] covers [i*w, (i+1)*w); the trailing slot is the overflow.
  w.Key("counts").BeginArray();
  for (size_t b = 0; b < h.num_buckets(); ++b) {
    w.Value(static_cast<uint64_t>(h.bucket_count(b)));
  }
  w.EndArray();
  w.EndObject();
}

using TrafficFamily = Network::TrafficBreakdown::Family;
using FamilyMember = TrafficFamily Network::TrafficBreakdown::*;

/// One protocol family of the "overhead" section: cumulative totals plus
/// per-bucket rates derived by diffing the sampler's cumulative snapshots.
void WriteTrafficFamily(JsonWriter& w, const char* name,
                        const TrafficFamily& total,
                        const std::vector<TrafficSampler::Point>& series,
                        FamilyMember member) {
  w.Key(name).BeginObject();
  w.Key("messages").Value(total.messages);
  w.Key("bytes").Value(total.bytes);
  // Cumulative snapshots diffed into per-bucket deltas; a final partial
  // bucket (interval not dividing the duration) carries the residual so
  // the series always sums to the total.
  w.Key("messages_per_bucket").BeginArray();
  uint64_t prev = 0;
  for (const TrafficSampler::Point& p : series) {
    uint64_t cur = (p.traffic.*member).messages;
    w.Value(cur - prev);
    prev = cur;
  }
  if (total.messages > prev) w.Value(total.messages - prev);
  w.EndArray();
  w.Key("bytes_per_bucket").BeginArray();
  prev = 0;
  for (const TrafficSampler::Point& p : series) {
    uint64_t cur = (p.traffic.*member).bytes;
    w.Value(cur - prev);
    prev = cur;
  }
  if (total.bytes > prev) w.Value(total.bytes - prev);
  w.EndArray();
  w.EndObject();
}

void WriteDistSummary(JsonWriter& w, const DistSummary& d) {
  w.BeginObject();
  w.Key("count").Value(static_cast<uint64_t>(d.count));
  w.Key("min").Value(d.min);
  w.Key("mean").Value(d.mean);
  w.Key("max").Value(d.max);
  w.Key("p95").Value(d.p95);
  w.EndObject();
}

/// "overhead": protocol traffic split by family with per-bucket series,
/// plus every named stats-registry counter. The paper's overhead argument
/// (bandwidth, not just message counts) in machine-readable form.
void WriteOverhead(JsonWriter& w, const ExperimentResult& r) {
  w.Key("overhead").BeginObject();
  w.Key("bucket_ms").Value(static_cast<uint64_t>(r.stats_interval));
  w.Key("families").BeginObject();
  WriteTrafficFamily(w, "chord", r.traffic.chord, r.traffic_series,
                     &Network::TrafficBreakdown::chord);
  WriteTrafficFamily(w, "gossip", r.traffic.gossip, r.traffic_series,
                     &Network::TrafficBreakdown::gossip);
  WriteTrafficFamily(w, "flower", r.traffic.flower, r.traffic_series,
                     &Network::TrafficBreakdown::flower);
  WriteTrafficFamily(w, "squirrel", r.traffic.squirrel, r.traffic_series,
                     &Network::TrafficBreakdown::squirrel);
  WriteTrafficFamily(w, "other", r.traffic.other, r.traffic_series,
                     &Network::TrafficBreakdown::other);
  WriteTrafficFamily(w, "nack", r.traffic.nack, r.traffic_series,
                     &Network::TrafficBreakdown::nack);
  WriteTrafficFamily(w, "refused", r.traffic.refused, r.traffic_series,
                     &Network::TrafficBreakdown::refused);
  WriteTrafficFamily(w, "dropped", r.traffic.dropped, r.traffic_series,
                     &Network::TrafficBreakdown::dropped);
  WriteTrafficFamily(w, "injected_loss", r.traffic.injected_loss,
                     r.traffic_series,
                     &Network::TrafficBreakdown::injected_loss);
  w.EndObject();
  w.Key("rpc_cancelled").Value(r.traffic.rpc_cancelled);
  w.Key("counters").BeginArray();
  for (const StatsRegistry::CounterSnapshot& c : r.stat_counters) {
    w.BeginObject();
    w.Key("name").Value(c.name);
    w.Key("total").Value(c.total);
    w.Key("per_bucket").BeginArray();
    for (uint64_t v : c.series) w.Value(v);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

/// "overlay": periodic overlay-state snapshots — role census, directory
/// load distribution and petal-size distribution per sampling interval.
void WriteOverlay(JsonWriter& w, const ExperimentResult& r) {
  w.Key("overlay").BeginArray();
  for (const OverlaySample& s : r.overlay_samples) {
    w.BeginObject();
    w.Key("t_ms").Value(static_cast<uint64_t>(s.time));
    w.Key("alive").Value(static_cast<uint64_t>(s.alive_peers));
    w.Key("clients").Value(static_cast<uint64_t>(s.clients));
    w.Key("content_peers").Value(static_cast<uint64_t>(s.content_peers));
    w.Key("directories").Value(static_cast<uint64_t>(s.directory_peers));
    w.Key("max_instance").Value(static_cast<uint64_t>(s.max_instance));
    w.Key("dir_load");
    WriteDistSummary(w, s.directory_load);
    w.Key("petal_size");
    WriteDistSummary(w, s.petal_size);
    w.EndObject();
  }
  w.EndArray();
}

/// "chaos": the recovery metrics of one trial's scenario run. Always
/// present in v3; only the "enabled" flag when the trial ran fault-free.
void WriteChaos(JsonWriter& w, const ChaosReport& c) {
  w.Key("chaos").BeginObject();
  w.Key("enabled").Value(c.enabled);
  if (!c.enabled) {
    w.EndObject();
    return;
  }
  w.Key("scenario").Value(c.scenario);
  w.Key("actions_executed").Value(c.actions_executed);
  w.Key("faults").BeginObject();
  w.Key("loss_drops").Value(c.faults.loss_drops);
  w.Key("partition_drops").Value(c.faults.partition_drops);
  w.Key("delayed").Value(c.faults.delayed);
  w.Key("dup_copies").Value(c.faults.dup_copies);
  w.EndObject();
  w.Key("directory_kills").BeginArray();
  for (const ChaosReport::DirectoryKill& kill : c.directory_kills) {
    w.BeginObject();
    w.Key("website").Value(static_cast<uint64_t>(kill.website));
    w.Key("locality").Value(static_cast<uint64_t>(kill.locality));
    w.Key("t_ms").Value(static_cast<uint64_t>(kill.kill_time));
    w.Key("had_directory").Value(kill.had_directory);
    w.Key("replacement_latency_ms").Value(kill.replacement_latency_ms);
    w.EndObject();
  }
  w.EndArray();
  w.Key("partitions").BeginArray();
  for (const ChaosReport::PartitionWindow& p : c.partition_windows) {
    w.BeginObject();
    w.Key("loc_a").Value(static_cast<uint64_t>(p.loc_a));
    w.Key("loc_b").Value(static_cast<uint64_t>(p.loc_b));
    w.Key("start_ms").Value(static_cast<uint64_t>(p.start));
    w.Key("end_ms").Value(static_cast<uint64_t>(p.end));
    w.Key("queries_during").Value(p.queries_during);
    w.Key("hits_during").Value(p.hits_during);
    w.Key("success_during").Value(p.SuccessDuring());
    w.Key("queries_after").Value(p.queries_after);
    w.Key("hits_after").Value(p.hits_after);
    w.Key("success_after").Value(p.SuccessAfter());
    w.EndObject();
  }
  w.EndArray();
  w.Key("hit_ratio").BeginObject();
  w.Key("baseline").Value(c.baseline_hit_ratio);
  w.Key("dip_min").Value(c.dip_min_hit_ratio);
  w.Key("dip_min_t_ms").Value(static_cast<uint64_t>(c.dip_min_time));
  w.Key("recovery_ms").Value(c.hit_ratio_recovery_ms);
  w.EndObject();
  w.EndObject();
}

void WriteTrial(JsonWriter& w, const ExperimentResult& r, uint64_t seed,
                size_t trial, bool include_timing) {
  w.BeginObject();
  w.Key("trial").Value(trial);
  w.Key("seed").Value(seed);
  w.Key("hit_ratio").Value(r.hit_ratio);
  w.Key("mean_lookup_ms").Value(r.mean_lookup_ms);
  w.Key("mean_lookup_hits_ms").Value(r.lookup_hits.Mean());
  w.Key("mean_transfer_hits_ms").Value(r.mean_transfer_hits_ms);
  w.Key("mean_transfer_all_ms").Value(r.mean_transfer_all_ms);
  w.Key("total_queries").Value(r.total_queries);
  w.Key("hits").Value(r.hits);
  w.Key("messages_sent").Value(r.messages_sent);
  w.Key("bytes_sent").Value(r.bytes_sent);
  w.Key("churn_arrivals").Value(r.churn_arrivals);
  w.Key("churn_failures").Value(r.churn_failures);
  w.Key("final_population").Value(static_cast<uint64_t>(r.final_population));
  w.Key("events_processed").Value(r.events_processed);
  w.Key("events_cancelled").Value(r.events_cancelled);
  w.Key("events_pending_peak").Value(r.events_pending_peak);
  if (include_timing) {
    // Nondeterministic block, emitted only on request (--json-timing):
    // wall time varies run to run, and the runner's byte-identical
    // guarantee covers only the default document.
    w.Key("timing").BeginObject();
    w.Key("wall_seconds").Value(r.wall_seconds);
    w.Key("events_per_wall_second").Value(r.EventsPerWallSecond());
    w.EndObject();
  }
  w.Key("cumulative_hit_ratio").BeginArray();
  for (double v : r.cumulative_hit_ratio) w.Value(v);
  w.EndArray();
  WriteOverhead(w, r);
  WriteOverlay(w, r);
  WriteChaos(w, r.chaos);
  w.EndObject();
}

void WriteAggregate(JsonWriter& w, const AggregateResult& a) {
  w.BeginObject();
  w.Key("trials").Value(a.trials);
  w.Key("metrics").BeginObject();
  struct Named {
    const char* name;
    const MetricSummary& summary;
  };
  const Named metrics[] = {
      {"hit_ratio", a.hit_ratio},
      {"mean_lookup_ms", a.mean_lookup_ms},
      {"mean_lookup_hits_ms", a.mean_lookup_hits_ms},
      {"mean_transfer_hits_ms", a.mean_transfer_hits_ms},
      {"mean_transfer_all_ms", a.mean_transfer_all_ms},
      {"total_queries", a.total_queries},
      {"new_client_lookup_ms", a.new_client_lookup_ms},
      {"established_lookup_ms", a.established_lookup_ms},
      {"messages_sent", a.messages_sent},
      {"bytes_sent", a.bytes_sent},
      {"churn_arrivals", a.churn_arrivals},
      {"churn_failures", a.churn_failures},
      {"final_population", a.final_population},
      {"events_processed", a.events_processed},
      {"dir_failures_detected", a.dir_failures_detected},
      {"promotions_triggered", a.promotions_triggered},
      {"live_directories", a.live_directories},
      {"max_directory_load", a.max_directory_load},
      {"max_instance", a.max_instance},
      {"final_mean_directory_load", a.final_mean_directory_load},
  };
  for (const Named& m : metrics) {
    w.Key(m.name);
    WriteSummary(w, m.summary);
  }
  w.EndObject();

  if (a.chaos_enabled) {
    w.Key("chaos").BeginObject();
    // No trial ever observed a replaced directory => there is no latency to
    // report. Emit null, not an all-zero summary — 0 ms would read as
    // "instant replacement" (the old misleading Squirrel row).
    w.Key("replacement_latency_ms");
    if (a.chaos_replacement_latency_ms.n == 0) {
      w.Null();
    } else {
      WriteSummary(w, a.chaos_replacement_latency_ms);
    }
    w.Key("kills_replaced").Value(a.chaos_kills_replaced);
    w.Key("kills_unreplaced").Value(a.chaos_kills_unreplaced);
    const Named chaos_metrics[] = {
        {"hit_ratio_dip", a.chaos_hit_ratio_dip},
        {"recovery_ms", a.chaos_recovery_ms},
        {"success_during_partition", a.chaos_success_during_partition},
        {"success_after_partition", a.chaos_success_after_partition},
        {"injected_drops", a.chaos_injected_drops},
    };
    for (const Named& m : chaos_metrics) {
      w.Key(m.name);
      WriteSummary(w, m.summary);
    }
    w.EndObject();
  }

  w.Key("histograms").BeginObject();
  w.Key("lookup_all");
  WriteHistogram(w, a.lookup_all);
  w.Key("lookup_hits");
  WriteHistogram(w, a.lookup_hits);
  w.Key("transfer_all");
  WriteHistogram(w, a.transfer_all);
  w.Key("transfer_hits");
  WriteHistogram(w, a.transfer_hits);
  w.EndObject();

  // Entry h summarizes the cumulative hit ratio at the end of hour h+1.
  w.Key("cumulative_hit_ratio").BeginArray();
  for (const MetricSummary& s : a.cumulative_hit_ratio) WriteSummary(w, s);
  w.EndArray();
  w.EndObject();
}

}  // namespace

void WriteSweepJson(std::ostream& os, uint64_t base_seed,
                    const std::vector<CellResult>& cells,
                    bool include_trials, bool include_timing) {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("flowercdn-runner/v6");
  w.Key("base_seed").Value(base_seed);
  w.Key("cells").BeginArray();
  for (const CellResult& cell : cells) {
    w.BeginObject();
    w.Key("label").Value(cell.label);
    w.Key("system").Value(SystemKindName(cell.kind));
    w.Key("population").Value(
        static_cast<uint64_t>(cell.config.target_population));
    // Whole hours stay integers (the long-standing layout); fractional
    // runs (--hours=0.25) report the exact decimal instead of truncating.
    if (cell.config.duration % kHour == 0) {
      w.Key("hours").Value(static_cast<uint64_t>(cell.config.duration / kHour));
    } else {
      w.Key("hours").Value(static_cast<double>(cell.config.duration) /
                           static_cast<double>(kHour));
    }
    w.Key("zipf_alpha").Value(cell.config.catalog.zipf_alpha);
    w.Key("mean_uptime_min").Value(
        static_cast<uint64_t>(cell.config.mean_uptime / kMinute));
    w.Key("churn").Value(cell.config.churn_enabled);
    w.Key("scenario").Value(cell.config.chaos.name);
    w.Key("replication").Value(
        static_cast<uint64_t>(cell.config.flower.replication));
    w.Key("aggregate");
    WriteAggregate(w, cell.aggregate);
    if (include_trials) {
      w.Key("trial_results").BeginArray();
      for (size_t t = 0; t < cell.trials.size(); ++t) {
        // Re-derive rather than store: the seed is a pure function of
        // (base_seed, trial), which also documents the derivation in the
        // output.
        WriteTrial(w, cell.trials[t], DeriveTrialSeed(base_seed, t), t,
                   include_timing);
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

std::string SweepJsonString(uint64_t base_seed,
                            const std::vector<CellResult>& cells,
                            bool include_trials, bool include_timing) {
  std::ostringstream os;
  WriteSweepJson(os, base_seed, cells, include_trials, include_timing);
  return os.str();
}

Status WriteSweepJsonFile(const std::string& path, uint64_t base_seed,
                          const std::vector<CellResult>& cells,
                          bool include_trials, bool include_timing) {
  std::ofstream out(path);
  if (!out) {
    return Status(StatusCode::kUnavailable, "cannot open " + path);
  }
  WriteSweepJson(out, base_seed, cells, include_trials, include_timing);
  out.flush();
  if (!out) {
    return Status(StatusCode::kUnavailable, "write failed: " + path);
  }
  return Status::OK();
}

}  // namespace flowercdn
