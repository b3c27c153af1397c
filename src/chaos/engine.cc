#include "chaos/engine.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace flowercdn {

namespace {

/// Cadence of probe samples (the RecoveryProbe's default 15-minute window
/// holds fifteen of them).
constexpr SimDuration kProbePeriod = kMinute;

}  // namespace

ChaosEngine::ChaosEngine(Simulator* sim, Network* network, ChurnProcess* churn,
                         StatsRegistry* stats, Rng rng, ScenarioScript script,
                         ChaosHooks hooks, const Params& params)
    : sim_(sim),
      network_(network),
      churn_(churn),
      stats_(stats),
      script_(std::move(script)),
      hooks_(std::move(hooks)),
      params_(params),
      injector_(network, rng, stats) {
  FLOWERCDN_CHECK(sim != nullptr);
  FLOWERCDN_CHECK(network != nullptr);
  FLOWERCDN_CHECK(stats != nullptr);
  Status valid = script_.Validate();
  FLOWERCDN_CHECK(valid.ok()) << valid.ToString();
}

ChaosEngine::ChaosEngine(Simulator* sim, Network* network, ChurnProcess* churn,
                         StatsRegistry* stats, Rng rng, ScenarioScript script,
                         ChaosHooks hooks)
    : ChaosEngine(sim, network, churn, stats, rng, std::move(script),
                  std::move(hooks), Params{}) {}

ChaosEngine::~ChaosEngine() {
  if (installed_) network_->SetFaultHook(nullptr);
}

void ChaosEngine::Start() {
  FLOWERCDN_CHECK(!started_) << "ChaosEngine::Start called twice";
  started_ = true;

  injector_.SetBaseFaults(script_.loss_rate, script_.delay_jitter_ms,
                          script_.duplicate_rate);
  // Loss ramps are pure functions of the clock; configure them up front
  // (several ramps: the last one in the timeline wins).
  for (const ScenarioAction& a : script_.actions) {
    if (a.type == ScenarioAction::Type::kLossRamp) {
      injector_.SetLossRamp(a.rate, a.t, a.t + a.duration);
    }
  }
  network_->SetFaultHook(&injector_);
  installed_ = true;

  SimTime now = sim_->now();
  for (size_t i = 0; i < script_.actions.size(); ++i) {
    const ScenarioAction& a = script_.actions[i];
    SimDuration delay = a.t > now ? a.t - now : 0;
    sim_->Schedule(delay, [this, i]() {
      ExecuteAction(script_.actions[i], i);
    });
  }
  SampleProbe();
}

void ChaosEngine::CaptureTotals(uint64_t& queries, uint64_t& hits) const {
  queries = 0;
  hits = 0;
  if (hooks_.query_totals) hooks_.query_totals(queries, hits);
}

void ChaosEngine::SampleProbe() {
  uint64_t queries = 0, hits = 0;
  CaptureTotals(queries, hits);
  probe_.AddSample(sim_->now(), queries, hits);
  stats_->Set("chaos.windowed_hit_ratio", probe_.WindowedRatio());
  stats_->Set("chaos.effective_loss_rate",
              injector_.EffectiveLossRate(sim_->now()));
  sim_->Schedule(kProbePeriod, [this]() { SampleProbe(); });
}

void ChaosEngine::ExecuteAction(const ScenarioAction& action, size_t index) {
  (void)index;
  SimTime now = sim_->now();
  probe_.MarkEventStart(now);
  stats_->Add("chaos.actions_executed");

  switch (action.type) {
    case ScenarioAction::Type::kKillDirectory: {
      ChaosReport::DirectoryKill kill;
      kill.website = action.website;
      kill.locality = action.loc_a;
      kill.kill_time = now;
      kill.had_directory =
          hooks_.kill_directory &&
          hooks_.kill_directory(action.website, action.loc_a);
      size_t kill_index = directory_kills_.size();
      directory_kills_.push_back(kill);
      if (kill.had_directory && hooks_.directory_alive) {
        sim_->Schedule(params_.replacement_poll_period, [this, kill_index]() {
          PollDirectoryReplacement(kill_index);
        });
      }
      break;
    }
    case ScenarioAction::Type::kPartition: {
      injector_.AddPartition(action.loc_a, action.loc_b);
      size_t part_index = partitions_.size();
      PartitionTracking tracking;
      tracking.window.loc_a = action.loc_a;
      tracking.window.loc_b = action.loc_b;
      tracking.window.start = now;
      tracking.window.end = now + action.duration;
      CaptureTotals(tracking.queries_at_start, tracking.hits_at_start);
      partitions_.push_back(tracking);
      sim_->Schedule(action.duration, [this, part_index, action]() {
        injector_.RemovePartition(action.loc_a, action.loc_b);
        PartitionTracking& t = partitions_[part_index];
        CaptureTotals(t.queries_at_end, t.hits_at_end);
        t.window.queries_during = t.queries_at_end - t.queries_at_start;
        t.window.hits_during = t.hits_at_end - t.hits_at_start;
        t.during_captured = true;
        // The post-heal comparison window is as long as the cut itself.
        sim_->Schedule(action.duration, [this, part_index]() {
          PartitionTracking& tt = partitions_[part_index];
          uint64_t queries = 0, hits = 0;
          CaptureTotals(queries, hits);
          tt.window.queries_after = queries - tt.queries_at_end;
          tt.window.hits_after = hits - tt.hits_at_end;
          tt.after_captured = true;
        });
      });
      break;
    }
    case ScenarioAction::Type::kChurnSpike: {
      if (churn_ == nullptr) break;
      churn_->SetRateMultiplier(churn_->rate_multiplier() * action.factor);
      sim_->Schedule(action.duration, [this, action]() {
        churn_->SetRateMultiplier(churn_->rate_multiplier() / action.factor);
      });
      break;
    }
    case ScenarioAction::Type::kFlashCrowd: {
      if (!hooks_.set_query_rate) break;
      hooks_.set_query_rate(action.website, action.factor);
      if (action.duration > 0) {
        sim_->Schedule(action.duration, [this, action]() {
          hooks_.set_query_rate(action.website, 1.0);
        });
      }
      break;
    }
    case ScenarioAction::Type::kLossRamp:
      // Configured in Start(); the scheduled event just marks the probe
      // baseline and counts the action.
      break;
  }
}

void ChaosEngine::PollDirectoryReplacement(size_t kill_index) {
  ChaosReport::DirectoryKill& kill = directory_kills_[kill_index];
  if (kill.replacement_latency_ms >= 0) return;
  if (hooks_.directory_alive(kill.website, kill.locality)) {
    kill.replacement_latency_ms =
        static_cast<double>(sim_->now() - kill.kill_time);
    stats_->Add("chaos.directories_replaced");
    return;
  }
  sim_->Schedule(params_.replacement_poll_period,
                 [this, kill_index]() { PollDirectoryReplacement(kill_index); });
}

ChaosReport ChaosEngine::Finish() {
  FLOWERCDN_CHECK(started_) << "ChaosEngine::Finish without Start";
  if (installed_) {
    network_->SetFaultHook(nullptr);
    installed_ = false;
  }

  ChaosReport report;
  report.enabled = true;
  report.scenario = script_.name;
  report.actions_executed = stats_->Total("chaos.actions_executed");
  report.faults = injector_.counts();
  report.directory_kills = directory_kills_;

  uint64_t queries_now = 0, hits_now = 0;
  CaptureTotals(queries_now, hits_now);
  for (PartitionTracking& t : partitions_) {
    if (!t.during_captured) {
      // Run ended while the cut was still active: the "during" window is
      // truncated at the end of the run and no post-heal window exists.
      t.window.queries_during = queries_now - t.queries_at_start;
      t.window.hits_during = hits_now - t.hits_at_start;
      t.window.end = sim_->now();
    } else if (!t.after_captured) {
      // Post-heal window truncated at the end of the run.
      t.window.queries_after = queries_now - t.queries_at_end;
      t.window.hits_after = hits_now - t.hits_at_end;
    }
    report.partition_windows.push_back(t.window);
  }

  if (probe_.event_marked()) {
    report.baseline_hit_ratio = probe_.baseline();
    report.dip_min_hit_ratio = probe_.dip_min();
    report.dip_min_time = probe_.dip_min_time();
    report.hit_ratio_recovery_ms = probe_.recovery_ms();
  } else {
    // No timeline action fired before the run ended (or the scenario is
    // base-faults-only): there is no fault event to measure a dip
    // against, so report a flat "no dip" story instead of the probe's
    // pre-event sentinels.
    report.baseline_hit_ratio = probe_.WindowedRatio();
    report.dip_min_hit_ratio = report.baseline_hit_ratio;
    report.dip_min_time = 0;
    report.hit_ratio_recovery_ms = 0;
  }
  return report;
}

}  // namespace flowercdn
