#include "runner/aggregate.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace flowercdn {

double StudentT95(size_t df) {
  // Two-sided 95% critical values, df = 1..30 (standard table).
  static constexpr double kTable[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.960;
}

MetricSummary MetricSummary::FromSamples(const std::vector<double>& samples) {
  MetricSummary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  s.min = s.max = samples[0];
  double sum = 0;
  for (double x : samples) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(s.n);
  if (s.n > 1) {
    double sq = 0;
    for (double x : samples) sq += (x - s.mean) * (x - s.mean);
    s.stddev = std::sqrt(sq / static_cast<double>(s.n - 1));
    s.ci95_half =
        StudentT95(s.n - 1) * s.stddev / std::sqrt(static_cast<double>(s.n));
  }
  return s;
}

namespace {

/// Summarizes `get(trial)` across all trials.
template <typename Fn>
MetricSummary Summarize(const std::vector<ExperimentResult>& trials, Fn get) {
  std::vector<double> samples;
  samples.reserve(trials.size());
  for (const ExperimentResult& r : trials) {
    samples.push_back(static_cast<double>(get(r)));
  }
  return MetricSummary::FromSamples(samples);
}

}  // namespace

AggregateResult Aggregate(const std::vector<ExperimentResult>& trials) {
  FLOWERCDN_CHECK(!trials.empty()) << "Aggregate() over zero trials";
  AggregateResult agg;
  agg.system = trials[0].system;
  agg.target_population = trials[0].target_population;
  agg.trials = trials.size();

  using R = ExperimentResult;
  agg.hit_ratio = Summarize(trials, [](const R& r) { return r.hit_ratio; });
  agg.mean_lookup_ms =
      Summarize(trials, [](const R& r) { return r.mean_lookup_ms; });
  agg.mean_lookup_hits_ms =
      Summarize(trials, [](const R& r) { return r.lookup_hits.Mean(); });
  agg.mean_transfer_hits_ms =
      Summarize(trials, [](const R& r) { return r.mean_transfer_hits_ms; });
  agg.mean_transfer_all_ms =
      Summarize(trials, [](const R& r) { return r.mean_transfer_all_ms; });
  agg.total_queries =
      Summarize(trials, [](const R& r) { return r.total_queries; });
  agg.new_client_lookup_ms =
      Summarize(trials, [](const R& r) { return r.mean_new_client_lookup_ms; });
  agg.established_lookup_ms = Summarize(
      trials, [](const R& r) { return r.mean_established_lookup_ms; });

  agg.messages_sent =
      Summarize(trials, [](const R& r) { return r.messages_sent; });
  agg.bytes_sent = Summarize(trials, [](const R& r) { return r.bytes_sent; });
  agg.churn_arrivals =
      Summarize(trials, [](const R& r) { return r.churn_arrivals; });
  agg.churn_failures =
      Summarize(trials, [](const R& r) { return r.churn_failures; });
  agg.final_population =
      Summarize(trials, [](const R& r) { return r.final_population; });
  agg.events_processed =
      Summarize(trials, [](const R& r) { return r.events_processed; });

  agg.dir_failures_detected = Summarize(
      trials, [](const R& r) { return r.flower_stats.dir_failures_detected; });
  agg.promotions_triggered = Summarize(
      trials, [](const R& r) { return r.flower_stats.promotions_triggered; });
  agg.live_directories = Summarize(
      trials, [](const R& r) { return r.flower_stats.live_directories; });
  agg.max_directory_load = Summarize(trials, [](const R& r) {
    return r.flower_stats.max_observed_directory_load;
  });
  agg.max_instance = Summarize(trials, [](const R& r) {
    return r.flower_stats.max_observed_instance;
  });
  agg.final_mean_directory_load = Summarize(trials, [](const R& r) {
    return r.load_samples.empty() ? 0.0 : r.load_samples.back().mean_load;
  });

  agg.chaos_enabled = trials[0].chaos.enabled;
  if (agg.chaos_enabled) {
    // Only trials where at least one killed directory was observed replaced
    // contribute a sample. A trial with no replacements (Squirrel runs, or
    // kills of petals that never had a directory) must not fake a 0 ms
    // latency; with zero samples the summary exports n == 0 and JSON null.
    {
      std::vector<double> replacement_samples;
      replacement_samples.reserve(trials.size());
      for (const ExperimentResult& r : trials) {
        double sum = 0;
        size_t replaced = 0;
        for (const auto& kill : r.chaos.directory_kills) {
          if (kill.replacement_latency_ms >= 0) {
            sum += kill.replacement_latency_ms;
            ++replaced;
          } else if (kill.had_directory) {
            ++agg.chaos_kills_unreplaced;
          }
        }
        agg.chaos_kills_replaced += replaced;
        if (replaced > 0) {
          replacement_samples.push_back(sum / static_cast<double>(replaced));
        }
      }
      agg.chaos_replacement_latency_ms =
          MetricSummary::FromSamples(replacement_samples);
    }
    agg.chaos_hit_ratio_dip = Summarize(trials, [](const R& r) {
      return r.chaos.baseline_hit_ratio - r.chaos.dip_min_hit_ratio;
    });
    agg.chaos_recovery_ms = Summarize(
        trials, [](const R& r) { return r.chaos.hit_ratio_recovery_ms; });
    agg.chaos_success_during_partition = Summarize(trials, [](const R& r) {
      uint64_t queries = 0, hits = 0;
      for (const auto& p : r.chaos.partition_windows) {
        queries += p.queries_during;
        hits += p.hits_during;
      }
      return queries ? static_cast<double>(hits) / queries : 0.0;
    });
    agg.chaos_success_after_partition = Summarize(trials, [](const R& r) {
      uint64_t queries = 0, hits = 0;
      for (const auto& p : r.chaos.partition_windows) {
        queries += p.queries_after;
        hits += p.hits_after;
      }
      return queries ? static_cast<double>(hits) / queries : 0.0;
    });
    agg.chaos_injected_drops = Summarize(trials, [](const R& r) {
      return r.chaos.faults.loss_drops + r.chaos.faults.partition_drops;
    });
  }

  // Pool the distributions: reshape to the first trial's geometry, then sum
  // bucket counts trial by trial (in vector order, for bit-stable output).
  agg.lookup_all = trials[0].lookup_all;
  agg.lookup_hits = trials[0].lookup_hits;
  agg.transfer_all = trials[0].transfer_all;
  agg.transfer_hits = trials[0].transfer_hits;
  for (size_t i = 1; i < trials.size(); ++i) {
    FLOWERCDN_CHECK(agg.lookup_all.Merge(trials[i].lookup_all))
        << "trial histogram geometry mismatch";
    FLOWERCDN_CHECK(agg.lookup_hits.Merge(trials[i].lookup_hits));
    FLOWERCDN_CHECK(agg.transfer_all.Merge(trials[i].transfer_all));
    FLOWERCDN_CHECK(agg.transfer_hits.Merge(trials[i].transfer_hits));
  }

  // Pointwise time-series merge: hour h summarizes every trial that reached
  // it (trials always share a duration in practice, but be permissive).
  size_t hours = 0;
  for (const ExperimentResult& r : trials) {
    hours = std::max(hours, r.cumulative_hit_ratio.size());
  }
  agg.cumulative_hit_ratio.reserve(hours);
  for (size_t h = 0; h < hours; ++h) {
    std::vector<double> at;
    at.reserve(trials.size());
    for (const ExperimentResult& r : trials) {
      if (h < r.cumulative_hit_ratio.size()) {
        at.push_back(r.cumulative_hit_ratio[h]);
      }
    }
    agg.cumulative_hit_ratio.push_back(MetricSummary::FromSamples(at));
  }
  return agg;
}

}  // namespace flowercdn
