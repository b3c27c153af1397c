#include "expt/experiment.h"

#include <chrono>
#include <memory>

#include "chaos/engine.h"
#include "expt/env.h"

namespace flowercdn {

const char* SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kFlowerCdn:
      return "Flower-CDN";
    case SystemKind::kSquirrel:
      return "Squirrel";
  }
  return "?";
}

ExperimentResult RunExperiment(
    const ExperimentConfig& config, SystemKind kind,
    const std::function<void(SimTime now, SimTime total)>& progress) {
  const auto wall_start = std::chrono::steady_clock::now();
  ExperimentEnv env(config);
  TrafficSampler traffic_sampler(&env.sim(), &env.network(),
                                 config.stats_interval);
  traffic_sampler.Start();
  std::unique_ptr<FlowerSystem> flower;
  std::unique_ptr<SquirrelSystem> squirrel;
  if (kind == SystemKind::kFlowerCdn) {
    flower = std::make_unique<FlowerSystem>(&env, config.flower);
    flower->Setup();
  } else {
    squirrel = std::make_unique<SquirrelSystem>(&env, config.squirrel);
    squirrel->Setup();
  }

  std::unique_ptr<ChaosEngine> chaos;
  if (!config.chaos.empty()) {
    ChaosHooks hooks;
    if (flower != nullptr) {
      FlowerSystem* fs = flower.get();
      hooks.kill_directory = [fs](WebsiteId ws, int loc) {
        return fs->KillDirectory(ws, loc);
      };
      hooks.directory_alive = [fs](WebsiteId ws, int loc) {
        return fs->HasDirectory(ws, loc);
      };
    }
    // Squirrel has no directory peers; kill_directory actions degrade to
    // counted no-ops, keeping cross-system scenarios comparable.
    ExperimentEnv* env_ptr = &env;
    hooks.set_query_rate = [env_ptr](WebsiteId ws, double multiplier) {
      env_ptr->mutable_workload().SetRateMultiplier(ws, multiplier);
    };
    hooks.query_totals = [env_ptr](uint64_t& queries, uint64_t& hits) {
      queries = env_ptr->metrics().total_queries();
      hits = env_ptr->metrics().hits();
    };
    ChaosEngine::Params chaos_params;
    if (kind == SystemKind::kFlowerCdn && config.flower.replication >= 2) {
      // Replicated directories fail over in seconds; the default one-minute
      // replacement poll would quantize that away. Kept at the default for
      // k=1 so unreplicated runs stay event-for-event identical.
      chaos_params.replacement_poll_period = 5 * kSecond;
    }
    chaos = std::make_unique<ChaosEngine>(
        &env.sim(), &env.network(), &env.churn(), &env.stats(),
        env.MakeRng("chaos"), config.chaos, std::move(hooks), chaos_params);
    chaos->Start();
  }

  for (SimTime t = kHour; t <= config.duration; t += kHour) {
    env.sim().RunUntil(t);
    if (progress) progress(t, config.duration);
  }
  env.sim().RunUntil(config.duration);
  if (progress && config.duration % kHour != 0) {
    progress(config.duration, config.duration);
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Kernel counters into the registry so they ride the exported counters
  // array. Both are deterministic (identical at any --jobs);
  // the wall-clock rate deliberately stays out of the registry and lives
  // in the (non-exported-by-default) timing fields below.
  env.stats().counter("sim.events_executed")
      ->Add(env.sim().events_processed());
  env.stats().counter("sim.events_cancelled")
      ->Add(env.sim().events_cancelled());

  ExperimentResult result;
  result.system = kind;
  result.target_population = config.target_population;
  result.wall_seconds = wall_seconds;

  const MetricsCollector& metrics = env.metrics();
  result.hit_ratio = metrics.HitRatio();
  result.mean_lookup_ms = metrics.MeanLookupMs();
  result.mean_transfer_hits_ms = metrics.MeanTransferHitsMs();
  result.mean_transfer_all_ms = metrics.MeanTransferMs();
  result.total_queries = metrics.total_queries();
  result.hits = metrics.hits();
  result.new_client_queries = metrics.new_client_queries();
  result.new_client_hits = metrics.new_client_hits();
  result.mean_new_client_lookup_ms = metrics.MeanNewClientLookupMs();
  result.mean_established_lookup_ms = metrics.MeanEstablishedLookupMs();
  result.lookup_all = metrics.lookup_all();
  result.lookup_hits = metrics.lookup_hits();
  result.transfer_all = metrics.transfer_all();
  result.transfer_hits = metrics.transfer_hits();
  result.time_series = metrics.TimeSeries();
  result.cumulative_hit_ratio = metrics.CumulativeHitRatioSeries();

  result.messages_sent = env.network().messages_sent();
  result.messages_dropped = env.network().messages_dropped();
  result.bytes_sent = env.network().bytes_sent();
  result.traffic = env.network().traffic();
  result.churn_arrivals = env.churn().total_arrivals();
  result.churn_failures = env.churn().total_failures();
  result.final_population = env.network().alive_count();
  result.events_processed = env.sim().events_processed();
  result.events_cancelled = env.sim().events_cancelled();
  result.events_pending_peak = env.sim().pending_events_peak();

  if (flower != nullptr) {
    result.flower_stats = flower->ComputeStats();
    result.load_samples = flower->load_samples();
    result.overlay_samples = flower->overlay_samples();
  }
  if (squirrel != nullptr) {
    result.squirrel_stats = squirrel->ComputeStats();
  }
  if (chaos != nullptr) {
    result.chaos = chaos->Finish();
  }

  result.stats_interval = config.stats_interval;
  result.traffic_series = traffic_sampler.points();
  result.stat_counters = env.stats().SnapshotCounters();
  result.trace = env.trace();
  return result;
}

}  // namespace flowercdn
