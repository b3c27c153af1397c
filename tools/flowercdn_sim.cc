// flowercdn_sim — command-line front end for the simulation library: run
// any (system, configuration) deployment — or a whole sweep of them, in
// parallel, with repeated trials — print the paper's metrics with error
// bars, and export runner JSON for plotting.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "chaos/scenario.h"
#include "expt/experiment.h"
#include "flags.h"
#include "runner/json_export.h"
#include "runner/sweep.h"
#include "runner/trial_runner.h"
#include "util/table_printer.h"

using namespace flowercdn;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --system=flower|squirrel|squirrel-homestore   (default flower)\n"
               "  --population=P        target population        (default 2000)\n"
               "  --hours=H             simulated hours, e.g. 0.25 (default 24)\n"
               "  --seed=S              base RNG seed            (default 42)\n"
               "  --websites=W          catalog size             (default 100)\n"
               "  --active=A            query-generating sites   (default 6)\n"
               "  --objects=K           objects per website      (default 500)\n"
               "  --localities=L        landmark localities      (default 6)\n"
               "  --uptime-min=M        mean session uptime      (default 60)\n"
               "  --zipf=ALPHA          object popularity skew   (default 0.8)\n"
               "  --no-churn            sessions never fail; arrivals fill the\n"
               "                        population up to --population, then stop\n"
               "  --no-retain-cache     clear browser caches on re-join\n"
               "  --collab              enable directory collaboration (§3.2)\n"
               "  --no-petalup          disable elastic directory instances\n"
               "  --dir-load=N          content peers one directory manages\n"
               "                        before PetalUp adds an instance\n"
               "                        (default 30)\n"
               "  --replication=K       total copies of each directory index\n"
               "                        (primary + K-1 D-ring successor\n"
               "                        replicas; default 1 = no replication)\n"
               "  --chaos=FILE          fault-injection scenario JSON (see\n"
               "                        docs/CHAOS.md); prints a recovery\n"
               "                        summary after the run\n"
               "  --trials=N            independent trials per configuration\n"
               "                        (seeds derived from --seed; default 1)\n"
               "  --jobs=J              worker threads (default: all cores)\n"
               "  --sweep=SPEC          config grid, e.g.\n"
               "                        'population=2000,3000;system=flower,"
               "squirrel;trials=4'\n"
               "                        (keys: population zipf uptime-min "
               "chaos system replication trials seed hours)\n"
               "  --json-out=PATH       write runner JSON (per-trial + "
               "aggregate)\n"
               "  --json-aggregate-only omit per-trial results from the JSON\n"
               "  --json-timing         add a per-trial \"timing\" object\n"
               "                        (wall seconds, events/sec) —\n"
               "                        nondeterministic, so off by default\n"
               "  --trace-out=PATH      record query-lifecycle spans and "
               "write\n"
               "                        Chrome trace-event JSON "
               "(chrome://tracing,\n"
               "                        Perfetto; single-trial runs only)\n"
               "  --stats-interval=MIN  overlay/traffic sampling period in\n"
               "                        simulated minutes (default 60)\n"
               "  --quiet               suppress progress output\n",
               argv0);
}

/// The original one-run report, unchanged for single-trial invocations.
void PrintSingleRunTable(const CellResult& cell) {
  const ExperimentResult& r = cell.trials[0];
  TablePrinter table({"metric", "value"});
  table.AddRow({"system", SystemKindName(cell.kind)});
  table.AddRow({"population target",
                std::to_string(cell.config.target_population)});
  table.AddRow({"final population", std::to_string(r.final_population)});
  table.AddRow({"queries", std::to_string(r.total_queries)});
  table.AddRow({"hit ratio", FormatDouble(r.hit_ratio, 3)});
  table.AddRow({"mean lookup (ms)", FormatDouble(r.mean_lookup_ms, 1)});
  table.AddRow({"mean lookup, hits (ms)",
                FormatDouble(r.lookup_hits.Mean(), 1)});
  table.AddRow({"mean transfer, hits (ms)",
                FormatDouble(r.mean_transfer_hits_ms, 1)});
  table.AddRow({"lookup p95 (ms)", FormatDouble(r.lookup_all.Quantile(0.95),
                                                1)});
  table.AddRow({"lookup p99 (ms)", FormatDouble(r.lookup_all.Quantile(0.99),
                                                1)});
  table.AddRow({"messages sent", std::to_string(r.messages_sent)});
  table.AddRow({"traffic (MB)",
                FormatDouble(static_cast<double>(r.bytes_sent) / 1048576.0,
                             1)});
  auto family_row = [&table](const char* name,
                             const Network::TrafficBreakdown::Family& f) {
    table.AddRow({name, std::to_string(f.messages) + " msgs / " +
                            FormatDouble(static_cast<double>(f.bytes) /
                                             1048576.0,
                                         1) +
                            " MB"});
  };
  family_row("  chord traffic", r.traffic.chord);
  family_row("  gossip traffic", r.traffic.gossip);
  family_row("  flower traffic", r.traffic.flower);
  family_row("  squirrel traffic", r.traffic.squirrel);
  family_row("  dropped traffic", r.traffic.dropped);
  if (r.traffic.nack.messages > 0) {
    family_row("  transport nacks", r.traffic.nack);
  }
  if (r.traffic.refused.messages > 0) {
    family_row("  rpc refusals", r.traffic.refused);
  }
  if (r.traffic.injected_loss.messages > 0) {
    family_row("  injected loss", r.traffic.injected_loss);
  }
  if (r.traffic.rpc_cancelled > 0) {
    table.AddRow({"rpcs cancelled", std::to_string(r.traffic.rpc_cancelled)});
  }
  table.AddRow({"churn arrivals", std::to_string(r.churn_arrivals)});
  table.AddRow({"churn failures", std::to_string(r.churn_failures)});
  table.AddRow({"sim events", std::to_string(r.events_processed)});
  table.AddRow({"sim events cancelled", std::to_string(r.events_cancelled)});
  table.AddRow({"sim events pending (peak)",
                std::to_string(r.events_pending_peak)});
  table.AddRow({"trial wall (s)", FormatDouble(r.wall_seconds, 2)});
  table.AddRow({"events/sec (wall)",
                FormatDouble(r.EventsPerWallSecond(), 0)});
  if (cell.kind == SystemKind::kFlowerCdn) {
    table.AddRow({"directory failovers",
                  std::to_string(r.flower_stats.dir_failures_detected)});
    table.AddRow({"petalup promotions",
                  std::to_string(r.flower_stats.promotions_triggered)});
    table.AddRow({"live directories",
                  std::to_string(r.flower_stats.live_directories)});
  }
  table.Print(std::cout);
}

/// Recovery summary for fault-injection runs: what the scenario did and how
/// long the system took to get back to its pre-fault hit ratio.
void PrintChaosSummary(const ChaosReport& chaos) {
  std::printf("\nChaos recovery summary (scenario '%s'):\n",
              chaos.scenario.c_str());
  TablePrinter table({"metric", "value"});
  table.AddRow({"actions executed", std::to_string(chaos.actions_executed)});
  table.AddRow({"injected loss drops",
                std::to_string(chaos.faults.loss_drops)});
  table.AddRow({"partition drops",
                std::to_string(chaos.faults.partition_drops)});
  table.AddRow({"delayed messages", std::to_string(chaos.faults.delayed)});
  table.AddRow({"duplicate copies", std::to_string(chaos.faults.dup_copies)});
  for (const auto& kill : chaos.directory_kills) {
    std::string label = "dir kill ws=" + std::to_string(kill.website) +
                        " loc=" + std::to_string(kill.locality);
    std::string value;
    if (!kill.had_directory) {
      value = "no directory to kill";
    } else if (kill.replacement_latency_ms < 0) {
      value = "not replaced by run end";
    } else {
      value = "replaced in " +
              FormatDouble(kill.replacement_latency_ms / 60000.0, 1) + " min";
    }
    table.AddRow({label, value});
  }
  for (const auto& p : chaos.partition_windows) {
    std::string label = "partition loc" + std::to_string(p.loc_a) + "<->loc" +
                        std::to_string(p.loc_b);
    table.AddRow({label + " success during",
                  FormatDouble(p.SuccessDuring(), 3) + " (" +
                      std::to_string(p.queries_during) + " queries)"});
    table.AddRow({label + " success after",
                  FormatDouble(p.SuccessAfter(), 3) + " (" +
                      std::to_string(p.queries_after) + " queries)"});
  }
  table.AddRow({"baseline hit ratio",
                FormatDouble(chaos.baseline_hit_ratio, 3)});
  table.AddRow({"dip minimum", FormatDouble(chaos.dip_min_hit_ratio, 3)});
  if (chaos.hit_ratio_recovery_ms < 0) {
    table.AddRow({"hit-ratio recovery", "not recovered by run end"});
  } else if (chaos.hit_ratio_recovery_ms == 0) {
    table.AddRow({"hit-ratio recovery", "never dipped"});
  } else {
    table.AddRow({"hit-ratio recovery",
                  FormatDouble(static_cast<double>(chaos.hit_ratio_recovery_ms)
                                   / 60000.0,
                               1) +
                      " min"});
  }
  table.Print(std::cout);
}

/// Per-phase latency breakdown from the query-lifecycle traces.
void PrintPhaseBreakdown(const TraceCollector& trace) {
  std::printf("\nQuery phase latency breakdown (traced spans):\n");
  TablePrinter table({"phase", "spans", "mean_ms", "p95_ms", "p99_ms"});
  for (size_t p = 0; p < kNumQueryPhases; ++p) {
    QueryPhase phase = static_cast<QueryPhase>(p);
    const Histogram& h = trace.phase_latency(phase);
    table.AddRow({QueryPhaseName(phase),
                  std::to_string(static_cast<uint64_t>(h.count())),
                  FormatDouble(h.Mean(), 1),
                  FormatDouble(h.Quantile(0.95), 1),
                  FormatDouble(h.Quantile(0.99), 1)});
  }
  table.Print(std::cout);
  const Histogram& hops = trace.dring_hops();
  if (hops.count() > 0) {
    std::printf("D-ring lookups: %llu, mean %.2f hops, p95 %.1f hops\n",
                static_cast<unsigned long long>(hops.count()), hops.Mean(),
                hops.Quantile(0.95));
  }
}

std::string PlusMinus(const MetricSummary& s, int digits) {
  std::string out = FormatDouble(s.mean, digits);
  if (s.n > 1) out += " ±" + FormatDouble(s.ci95_half, digits);
  return out;
}

/// Aggregate report: one row per sweep cell, mean ±95% CI.
void PrintAggregateTable(const std::vector<CellResult>& cells) {
  TablePrinter table({"configuration", "trials", "hit_ratio", "lookup_ms",
                      "lookup_p95", "lookup_p99", "lookup_hits_ms",
                      "transfer_hits_ms", "queries"});
  for (const CellResult& cell : cells) {
    const AggregateResult& a = cell.aggregate;
    table.AddRow({cell.label, std::to_string(a.trials),
                  PlusMinus(a.hit_ratio, 3), PlusMinus(a.mean_lookup_ms, 0),
                  FormatDouble(a.lookup_all.Quantile(0.95), 0),
                  FormatDouble(a.lookup_all.Quantile(0.99), 0),
                  PlusMinus(a.mean_lookup_hits_ms, 0),
                  PlusMinus(a.mean_transfer_hits_ms, 0),
                  PlusMinus(a.total_queries, 0)});
  }
  table.Print(std::cout);
}

/// Chaos recovery metrics per sweep cell, mean ±95% CI. Prints nothing when
/// no cell ran a scenario.
void PrintAggregateChaosTable(const std::vector<CellResult>& cells) {
  bool any = false;
  for (const CellResult& cell : cells) any |= cell.aggregate.chaos_enabled;
  if (!any) return;
  std::printf("\nChaos recovery (mean ±95%% CI over trials):\n");
  TablePrinter table({"configuration", "replaced", "replace_min", "hit_dip",
                      "recovery_min", "succ_during", "succ_after",
                      "inj_drops"});
  for (const CellResult& cell : cells) {
    const AggregateResult& a = cell.aggregate;
    if (!a.chaos_enabled) {
      table.AddRow({cell.label, "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    // Kills of a live directory replaced / all of them: replace_min
    // averages the replaced ones only.
    std::string replaced =
        std::to_string(a.chaos_kills_replaced) + "/" +
        std::to_string(a.chaos_kills_replaced + a.chaos_kills_unreplaced);
    MetricSummary replace_min = a.chaos_replacement_latency_ms;
    replace_min.mean /= 60000.0;
    replace_min.ci95_half /= 60000.0;
    // n == 0 means no kill was ever replaced: show "-", not a fake 0.0.
    std::string replace_str =
        replace_min.n == 0 ? "-" : PlusMinus(replace_min, 1);
    MetricSummary recovery_min = a.chaos_recovery_ms;
    recovery_min.mean /= 60000.0;
    recovery_min.ci95_half /= 60000.0;
    table.AddRow({cell.label, replaced, replace_str,
                  PlusMinus(a.chaos_hit_ratio_dip, 3),
                  PlusMinus(recovery_min, 1),
                  PlusMinus(a.chaos_success_during_partition, 3),
                  PlusMinus(a.chaos_success_after_partition, 3),
                  PlusMinus(a.chaos_injected_drops, 0)});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config;
  std::string system_name = "flower";
  std::string sweep_spec;
  std::string chaos_file;
  std::string json_out;
  std::string trace_out;
  bool json_include_trials = true;
  bool json_timing = false;
  size_t trials = 1;
  size_t jobs = 0;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    Flag flag{arg};
    if (flag.Is("--system")) {
      system_name = flag.value;
      if (!ParseSystemChoice(system_name).ok()) {
        Usage(argv[0]);
        return 2;
      }
    } else if (flag.Is("--population")) {
      config.target_population = flag.Whole(1);
    } else if (flag.Is("--hours")) {
      config.duration = flag.Duration(kHour);
    } else if (flag.Is("--seed")) {
      config.seed = flag.Whole(0, UINT64_MAX);
    } else if (flag.Is("--websites")) {
      config.catalog.num_websites = static_cast<int>(flag.Whole(1));
    } else if (flag.Is("--active")) {
      config.catalog.num_active = static_cast<int>(flag.Whole(1));
    } else if (flag.Is("--objects")) {
      config.catalog.objects_per_website = static_cast<int>(flag.Whole(1));
    } else if (flag.Is("--localities")) {
      config.topology.num_localities = static_cast<int>(flag.Whole(1));
    } else if (flag.Is("--uptime-min")) {
      config.mean_uptime = flag.Duration(kMinute);
    } else if (flag.Is("--zipf")) {
      config.catalog.zipf_alpha = flag.Decimal(0);
    } else if (std::strcmp(arg, "--no-churn") == 0) {
      config.churn_enabled = false;
    } else if (std::strcmp(arg, "--no-retain-cache") == 0) {
      config.retain_cache_on_rejoin = false;
    } else if (std::strcmp(arg, "--collab") == 0) {
      config.flower.enable_dir_collaboration = true;
    } else if (std::strcmp(arg, "--no-petalup") == 0) {
      config.flower.petalup_enabled = false;
    } else if (flag.Is("--dir-load")) {
      config.flower.max_directory_load = flag.Whole(1);
    } else if (flag.Is("--replication")) {
      config.flower.replication = static_cast<int>(flag.Whole(1));
    } else if (flag.Is("--trials")) {
      trials = flag.Whole(1);
    } else if (flag.Is("--jobs")) {
      jobs = flag.Whole(0);
    } else if (flag.Is("--chaos")) {
      chaos_file = flag.value;
    } else if (flag.Is("--sweep")) {
      sweep_spec = flag.value;
    } else if (flag.Is("--json-out")) {
      json_out = flag.value;
    } else if (flag.Is("--trace-out")) {
      trace_out = flag.value;
      config.collect_traces = true;
    } else if (flag.Is("--stats-interval")) {
      config.stats_interval =
          static_cast<SimDuration>(flag.Whole(1)) * kMinute;
    } else if (std::strcmp(arg, "--json-aggregate-only") == 0) {
      json_include_trials = false;
    } else if (std::strcmp(arg, "--json-timing") == 0) {
      json_timing = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (config.catalog.num_active > config.catalog.num_websites) {
    std::fprintf(stderr, "--active (%d) must not exceed --websites (%d)\n",
                 config.catalog.num_active, config.catalog.num_websites);
    return 2;
  }

  if (!chaos_file.empty()) {
    Result<ScenarioScript> script = ScenarioScript::LoadFile(chaos_file);
    Status status = script.ok()
                        ? script->CheckWebsites(config.catalog.num_websites)
                        : script.status();
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 2;
    }
    config.chaos = std::move(*script);
  }

  // Assemble the sweep: --sweep clauses layer over the scalar flags; a
  // `trials=` / `seed=` clause inside the spec wins over the flag.
  Result<SweepSpec> parsed = SweepSpec::Parse(sweep_spec, config);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  SweepSpec sweep = *parsed;
  if (sweep.trials == 1) sweep.trials = trials;
  if (sweep.systems.empty()) {
    sweep.systems.push_back(*ParseSystemChoice(system_name));
  }

  std::vector<TrialJob> grid = sweep.Expand();
  TrialRunner runner(TrialRunner::Options{jobs});

  if (!quiet) {
    std::fprintf(stderr, "%zu cell(s) x %zu trial(s) = %zu run(s) on %zu "
                 "worker(s)\n",
                 sweep.NumCells(), sweep.trials, grid.size(),
                 runner.EffectiveJobs(grid.size()));
  }
  TrialRunner::Progress progress;
  if (!quiet) {
    progress = [](const TrialJob& job, size_t done, size_t total) {
      std::fprintf(stderr, "  [%zu/%zu] %s trial %zu done\n", done, total,
                   job.label.c_str(), job.trial);
    };
  }

  std::vector<CellResult> cells = RunCells(runner, grid, progress);

  if (cells.size() == 1 && cells[0].trials.size() == 1) {
    PrintSingleRunTable(cells[0]);
    if (cells[0].trials[0].chaos.enabled) {
      PrintChaosSummary(cells[0].trials[0].chaos);
    }
    const ExperimentResult& r = cells[0].trials[0];
    if (r.trace != nullptr) {
      PrintPhaseBreakdown(*r.trace);
      if (!trace_out.empty()) {
        Status s = r.trace->WriteChromeTraceFile(trace_out);
        if (!s.ok()) {
          std::fprintf(stderr, "%s\n", s.ToString().c_str());
          return 1;
        }
        std::printf("\nChrome trace written to %s (%zu queries, %zu spans"
                    "%s)\n",
                    trace_out.c_str(), r.trace->queries().size(),
                    r.trace->spans().size(),
                    r.trace->overflow_queries() > 0 ? ", span cap hit" : "");
      }
    }
  } else {
    PrintAggregateTable(cells);
    PrintAggregateChaosTable(cells);
    if (!trace_out.empty()) {
      std::fprintf(stderr,
                   "--trace-out applies to single-trial runs only; no trace "
                   "written\n");
    }
  }

  if (!json_out.empty()) {
    Status s = WriteSweepJsonFile(json_out, sweep.base_seed, cells,
                                  json_include_trials, json_timing);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("\nrunner JSON written to %s\n", json_out.c_str());
  }
  return 0;
}
