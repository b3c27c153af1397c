// Kernel throughput harness for src/simcore: how fast the discrete-event
// substrate retires events, measured two ways.
//
//  * micro: a classic "hold model" — P self-rescheduling timers with
//    uniform delays, no protocol work at all — isolates raw ladder-queue
//    push/pop throughput.
//  * trials: full Flower-CDN experiments (protocol + network + kernel) at
//    1k / 10k / 100k peers, reporting wall seconds per trial, events
//    retired per wall second, and heap bytes per live session (glibc
//    mallinfo2: the heap grown over set-up and run, divided by the
//    sessions alive at the end).
//
// Writes BENCH_kernel.json (schema flowercdn-kernel-bench/v1, documented in
// EXPERIMENTS.md) with --json-out; --quick shrinks the grid to seconds for
// CI smoke runs.

#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "expt/experiment.h"
#include "runner/json_export.h"
#include "runner/seed.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/table_printer.h"

using namespace flowercdn;

namespace {

// One self-rescheduling timer of the hold model: each firing costs one
// budget unit and re-arms with a fresh uniform delay until spent.
void ScheduleTick(Simulator* sim, Rng* rng, uint64_t* budget) {
  sim->Schedule(1 + rng->UniformInt(0, 999), [sim, rng, budget] {
    if (*budget == 0) return;
    --*budget;
    ScheduleTick(sim, rng, budget);
  });
}

struct MicroResult {
  uint64_t events = 0;
  double wall_seconds = 0;
  double EventsPerSec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  }
};

MicroResult RunMicro(size_t timers, uint64_t budget) {
  Simulator sim;
  Rng rng(99);
  uint64_t remaining = budget;
  for (size_t i = 0; i < timers; ++i) {
    ScheduleTick(&sim, &rng, &remaining);
  }
  const auto start = std::chrono::steady_clock::now();
  while (sim.Step()) {
  }
  MicroResult r;
  r.events = sim.events_processed();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

// Bytes the process has allocated and not freed (arena + mmapped chunks).
double HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

struct TrialPoint {
  size_t population;
  double simulated_hours;
  ExperimentResult result;
  double heap_bytes_per_session = 0;
};

// Trial 0 of `flowercdn-sim --population=P --hours=H --seed=S`, so every
// committed point can be re-run (and its event count checked) from the CLI.
// The progress hook reads the heap while the trial is still alive.
TrialPoint RunTrial(size_t population, SimDuration duration, uint64_t seed) {
  ExperimentConfig config;
  config.target_population = population;
  config.duration = duration;
  config.seed = DeriveTrialSeed(seed, 0);
  TrialPoint p;
  p.population = population;
  p.simulated_hours = static_cast<double>(duration) / kHour;
  const double heap_before = HeapInUse();
  double heap_at_end = heap_before;
  p.result = RunExperiment(config, SystemKind::kFlowerCdn,
                           [&heap_at_end](SimTime, SimTime) {
                             heap_at_end = HeapInUse();
                           });
  if (p.result.final_population > 0) {
    p.heap_bytes_per_session =
        (heap_at_end - heap_before) /
        static_cast<double>(p.result.final_population);
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
      json_out = arg + 11;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json-out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // --- Micro: raw scheduler throughput, hold model ------------------------
  const size_t micro_timers = quick ? 1000 : 10000;
  const uint64_t micro_budget = quick ? 500000 : 20000000;
  std::printf("=== simcore kernel throughput (hold model: %zu timers, "
              "%llu events) ===\n",
              micro_timers,
              static_cast<unsigned long long>(micro_budget));
  const MicroResult micro = RunMicro(micro_timers, micro_budget);
  {
    TablePrinter table({"events", "wall_s", "events/sec"});
    table.AddRow({std::to_string(micro.events),
                  FormatDouble(micro.wall_seconds, 3),
                  FormatDouble(micro.EventsPerSec(), 0)});
    table.Print(std::cout);
  }

  // --- Full trials: protocol + kernel at increasing scale -----------------
  struct Scale {
    size_t population;
    SimDuration duration;
  };
  std::vector<Scale> scales;
  if (quick) {
    scales = {{200, kHour}};
  } else {
    scales = {{1000, 6 * kHour}, {10000, kHour}, {100000, 15 * kMinute}};
  }
  std::vector<TrialPoint> points;
  std::printf("\n=== full Flower-CDN trials ===\n");
  for (const Scale& s : scales) {
    points.push_back(RunTrial(s.population, s.duration, 42));
    const TrialPoint& p = points.back();
    std::printf("  P=%zu %.2fh : %8.2f s/trial, %12.0f events/sec, "
                "%8.0f heap B/session\n",
                p.population, p.simulated_hours, p.result.wall_seconds,
                p.result.EventsPerWallSecond(), p.heap_bytes_per_session);
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    JsonWriter w(out);
    w.BeginObject();
    w.Key("schema").Value("flowercdn-kernel-bench/v1");
    w.Key("bench").Value("src/simcore event-kernel throughput");
    w.Key("quick").Value(quick);
    w.Key("micro").BeginArray();
    w.BeginObject();
    w.Key("kernel").Value("ladder");
    w.Key("pattern").Value("hold-uniform");
    w.Key("timers").Value(static_cast<uint64_t>(micro_timers));
    w.Key("events").Value(micro.events);
    w.Key("wall_seconds").Value(micro.wall_seconds);
    w.Key("events_per_sec").Value(micro.EventsPerSec());
    w.EndObject();
    w.EndArray();
    w.Key("trials").BeginArray();
    for (const TrialPoint& p : points) {
      w.BeginObject();
      w.Key("population").Value(static_cast<uint64_t>(p.population));
      w.Key("simulated_hours").Value(p.simulated_hours);
      w.Key("kernel").Value("ladder");
      w.Key("wall_seconds").Value(p.result.wall_seconds);
      w.Key("seconds_per_trial").Value(p.result.wall_seconds);
      w.Key("events_processed").Value(p.result.events_processed);
      w.Key("events_cancelled").Value(p.result.events_cancelled);
      w.Key("events_per_wall_second").Value(p.result.EventsPerWallSecond());
      w.Key("heap_bytes_per_session").Value(p.heap_bytes_per_session);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    out << "\n";
    std::printf("\nkernel bench JSON written to %s\n", json_out.c_str());
  }
  return 0;
}
