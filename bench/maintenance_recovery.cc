// Ablation of the paper's §5 maintenance protocols: how fast does a petal
// recover its directory after the directory peer fails, as a function of
// the gossip/keepalive period? (Table 1 uses 1 hour.)
//
// Method: one isolated petal, warm it up, then let the chaos engine kill
// the directory on a scripted timeline (src/chaos). The engine's recovery
// probe reports the time until a replacement claims the D-ring position;
// the bench additionally samples the replacement's directory-index until
// it reaches half the pre-failure size.
//
// Usage: maintenance_recovery [--seed=S]   (default seed 42)

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "chaos/engine.h"
#include "chaos/scenario.h"
#include "expt/env.h"
#include "expt/flower_system.h"
#include "runner/sweep.h"
#include "util/table_printer.h"

using namespace flowercdn;

namespace {

constexpr SimDuration kWarmup = 4 * kHour;

struct RecoveryResult {
  double replace_minutes = -1;
  double rebuild_minutes = -1;
  size_t entries_before = 0;
};

RecoveryResult MeasureRecovery(SimDuration gossip_period, uint64_t seed) {
  ExperimentConfig config;
  config.seed = seed;
  config.target_population = 40;
  config.universe_factor = 1.0;
  config.topology.num_localities = 1;
  config.catalog.num_websites = 1;
  config.catalog.num_active = 1;
  config.catalog.objects_per_website = 120;
  config.mean_uptime = 100000 * kHour;  // failures only by injection
  config.arrival_rate_override_per_ms = 40.0 / kHour;
  config.flower.gossip_period = gossip_period;
  config.flower.max_directory_load = 200;

  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  system.Setup();

  // Scripted fault: kill the petal's directory after warmup.
  ScenarioScript script;
  script.name = "maintenance-recovery";
  script.AddKillDirectory(/*website=*/0, /*locality=*/0, kWarmup);

  RecoveryResult result;
  ChaosHooks hooks;
  hooks.kill_directory = [&](WebsiteId ws, int loc) {
    // Snapshot the index size the replacement has to rebuild towards.
    FlowerPeer* dir = system.FindDirectory(ws, loc);
    if (dir != nullptr) result.entries_before = dir->index().num_entries();
    return system.KillDirectory(ws, loc);
  };
  hooks.directory_alive = [&](WebsiteId ws, int loc) {
    return system.HasDirectory(ws, loc);
  };
  ChaosEngine engine(&env.sim(), &env.network(), nullptr, &env.stats(),
                     env.MakeRng("chaos"), script, std::move(hooks));
  engine.Start();

  // Sample the index rebuild every simulated minute after the kill.
  env.sim().RunUntil(kWarmup);
  while (env.sim().now() < kWarmup + 8 * kHour) {
    env.sim().RunUntil(env.sim().now() + kMinute);
    FlowerPeer* replacement = system.FindDirectory(0, 0);
    if (replacement == nullptr) continue;
    if (replacement->index().num_entries() >= result.entries_before / 2) {
      result.rebuild_minutes =
          static_cast<double>(env.sim().now() - kWarmup) / kMinute;
      break;
    }
  }

  ChaosReport report = engine.Finish();
  if (!report.directory_kills.empty() &&
      report.directory_kills[0].had_directory &&
      report.directory_kills[0].replacement_latency_ms >= 0) {
    result.replace_minutes =
        report.directory_kills[0].replacement_latency_ms / kMinute;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) != 0) {
      std::fprintf(stderr, "usage: %s [--seed=S]\n", argv[0]);
      return 2;
    }
    Result<uint64_t> parsed = ParseWhole(argv[i] + 7, 0, UINT64_MAX);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--seed: %s\n", parsed.status().message().c_str());
      return 2;
    }
    seed = *parsed;
  }

  std::printf("=== Maintenance ablation: directory recovery vs "
              "gossip/keepalive period ===\n");
  TablePrinter table({"gossip_period_min", "replace_min", "index_50pct_min",
                      "entries_before"});
  for (SimDuration period :
       {10 * kMinute, 30 * kMinute, 60 * kMinute, 120 * kMinute}) {
    std::fprintf(stderr, "running period=%lld min...\n",
                 static_cast<long long>(period / kMinute));
    RecoveryResult r = MeasureRecovery(period, seed);
    table.AddRow({std::to_string(period / kMinute),
                  r.replace_minutes < 0 ? "never"
                                        : FormatDouble(r.replace_minutes, 1),
                  r.rebuild_minutes < 0 ? ">480"
                                        : FormatDouble(r.rebuild_minutes, 1),
                  std::to_string(r.entries_before)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpectation: detection is driven by queries and keepalives, so "
      "recovery happens within minutes even at the paper's 1-hour period; "
      "shorter periods speed up index rebuild (pushes re-register "
      "content).\n");
  return 0;
}
