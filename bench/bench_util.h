#ifndef FLOWERCDN_BENCH_BENCH_UTIL_H_
#define FLOWERCDN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "expt/experiment.h"
#include "runner/json_export.h"
#include "runner/seed.h"
#include "runner/sweep.h"
#include "runner/trial_runner.h"
#include "util/table_printer.h"

namespace flowercdn {
namespace bench {

/// Minimal command-line knobs shared by the reproduction harnesses:
///   --hours=H        simulated duration, decimal hours allowed (default
///                    24, as in the paper)
///   --population=P   target population (default depends on the bench)
///   --seed=S         base RNG seed (default 42)
///   --trials=N       independent trials per configuration (default 1);
///                    per-trial seeds derive from the base seed
///   --jobs=J         runner worker threads (default: all cores)
///   --json-out=PATH  write the runner JSON document
///   --replication=K  Flower directory replication factor (default 1)
///   --quick          CI-sized run: small population, short duration
/// Unknown flags abort with a usage message.
struct BenchArgs {
  SimDuration duration = 24 * kHour;
  size_t population = 3000;
  uint64_t seed = 42;
  size_t trials = 1;
  size_t jobs = 0;
  int replication = 1;
  bool quick = false;
  std::string json_out;

  static BenchArgs Parse(int argc, char** argv, size_t default_population) {
    BenchArgs args;
    args.population = default_population;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--hours=", 8) == 0) {
        Result<SimDuration> duration = ParseDuration(arg + 8, kHour);
        if (!duration.ok()) {
          std::fprintf(stderr, "--hours: %s\n",
                       duration.status().message().c_str());
          std::exit(2);
        }
        args.duration = *duration;
      } else if (std::strncmp(arg, "--population=", 13) == 0) {
        args.population = static_cast<size_t>(atoll(arg + 13));
      } else if (std::strncmp(arg, "--seed=", 7) == 0) {
        args.seed = static_cast<uint64_t>(atoll(arg + 7));
      } else if (std::strncmp(arg, "--trials=", 9) == 0) {
        args.trials = static_cast<size_t>(atoll(arg + 9));
        if (args.trials < 1) args.trials = 1;
      } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
        args.jobs = static_cast<size_t>(atoll(arg + 7));
      } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
        args.json_out = arg + 11;
      } else if (std::strncmp(arg, "--replication=", 14) == 0) {
        args.replication = static_cast<int>(atoll(arg + 14));
        if (args.replication < 1) args.replication = 1;
      } else if (std::strcmp(arg, "--quick") == 0) {
        args.quick = true;
      } else {
        std::fprintf(stderr,
                     "usage: %s [--hours=H] [--population=P] [--seed=S] "
                     "[--trials=N] [--jobs=J] [--json-out=PATH] "
                     "[--replication=K] [--quick]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    return args;
  }

  ExperimentConfig MakeConfig() const {
    ExperimentConfig config;
    config.seed = seed;
    config.target_population = population;
    config.duration = duration;
    config.flower.replication = replication;
    return config;
  }

  TrialRunner MakeRunner() const {
    return TrialRunner(TrialRunner::Options{jobs});
  }
};

/// Appends `trials` jobs for one sweep cell, deriving each trial's seed
/// from `args.seed`. Cells are numbered by order of first appearance.
inline void AddCell(std::vector<TrialJob>* jobs, const BenchArgs& args,
                    const ExperimentConfig& config, SystemKind kind,
                    std::string label) {
  size_t cell = jobs->empty() ? 0 : jobs->back().cell + 1;
  for (size_t trial = 0; trial < args.trials; ++trial) {
    TrialJob job;
    job.config = config;
    job.config.seed = DeriveTrialSeed(args.seed, trial);
    job.kind = kind;
    job.cell = cell;
    job.trial = trial;
    job.label = label;
    jobs->push_back(std::move(job));
  }
}

/// Runs the grid with a per-trial progress line, then optionally writes
/// the runner JSON next to the printed tables.
inline std::vector<CellResult> RunGrid(const BenchArgs& args,
                                       const std::vector<TrialJob>& jobs) {
  TrialRunner runner = args.MakeRunner();
  std::fprintf(stderr, "%zu run(s) on %zu worker(s)\n", jobs.size(),
               runner.EffectiveJobs(jobs.size()));
  std::vector<CellResult> cells = RunCells(
      runner, jobs, [](const TrialJob& job, size_t done, size_t total) {
        std::fprintf(stderr, "  [%zu/%zu] %s trial %zu done\n", done, total,
                     job.label.c_str(), job.trial);
      });
  if (!args.json_out.empty()) {
    Status s = WriteSweepJsonFile(args.json_out, args.seed, cells,
                                  /*include_trials=*/true);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
    } else {
      std::fprintf(stderr, "runner JSON written to %s\n",
                   args.json_out.c_str());
    }
  }
  return cells;
}

/// "0.63 ±0.02" when more than one trial ran, "0.63" otherwise.
inline std::string PlusMinus(const MetricSummary& s, int digits) {
  std::string out = FormatDouble(s.mean, digits);
  if (s.n > 1) out += " ±" + FormatDouble(s.ci95_half, digits);
  return out;
}

/// One-line summary of an aggregated cell.
inline void PrintSummary(const CellResult& cell) {
  const AggregateResult& a = cell.aggregate;
  std::printf(
      "%-16s  P=%-5zu  trials=%zu  queries=%.0f  hit=%s  lookup=%sms  "
      "lookup(hits)=%sms  transfer(hits)=%sms  transfer(all)=%sms\n",
      cell.label.c_str(), a.target_population, a.trials, a.total_queries.mean,
      PlusMinus(a.hit_ratio, 3).c_str(),
      PlusMinus(a.mean_lookup_ms, 0).c_str(),
      PlusMinus(a.mean_lookup_hits_ms, 0).c_str(),
      PlusMinus(a.mean_transfer_hits_ms, 0).c_str(),
      PlusMinus(a.mean_transfer_all_ms, 0).c_str());
}

inline void PrintProgressDots(SimTime now, SimTime total) {
  std::fprintf(stderr, "  ... simulated %lld/%lld h\r",
               static_cast<long long>(now / kHour),
               static_cast<long long>(total / kHour));
  if (now >= total) std::fprintf(stderr, "\n");
}

/// One-line summary of a single finished run (benches not yet on the
/// runner).
inline void PrintSummary(const ExperimentResult& r) {
  std::printf(
      "%-10s  P=%-5zu  queries=%-6llu  hit=%.3f  lookup=%.0fms  "
      "lookup(hits)=%.0fms  transfer(hits)=%.0fms  transfer(all)=%.0fms\n",
      SystemKindName(r.system), r.target_population,
      static_cast<unsigned long long>(r.total_queries), r.hit_ratio,
      r.mean_lookup_ms, r.lookup_hits.Mean(), r.mean_transfer_hits_ms,
      r.mean_transfer_all_ms);
}

}  // namespace bench
}  // namespace flowercdn

#endif  // FLOWERCDN_BENCH_BENCH_UTIL_H_
