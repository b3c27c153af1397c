#ifndef FLOWERCDN_RUNNER_AGGREGATE_H_
#define FLOWERCDN_RUNNER_AGGREGATE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "expt/experiment.h"
#include "util/histogram.h"

namespace flowercdn {

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (table for df <= 30, 1.960 beyond). Used for confidence intervals over
/// small trial counts, where the normal approximation is too tight.
double StudentT95(size_t df);

/// Mean / spread / 95% confidence interval of one metric across trials.
struct MetricSummary {
  size_t n = 0;
  double mean = 0;
  double stddev = 0;    // sample standard deviation (n-1)
  double ci95_half = 0; // t_{.975,n-1} * stddev / sqrt(n); 0 when n < 2
  double min = 0;
  double max = 0;

  static MetricSummary FromSamples(const std::vector<double>& samples);
};

/// Per-trial ExperimentResults of one sweep cell merged into error-barred
/// statistics: a MetricSummary per headline metric, pointwise-merged
/// histograms (bucket counts summed, so CDFs reflect the pooled samples)
/// and a pointwise-merged hit-ratio time series.
struct AggregateResult {
  SystemKind system = SystemKind::kFlowerCdn;
  size_t target_population = 0;
  size_t trials = 0;

  // Headline metrics (Table 2 row, with error bars).
  MetricSummary hit_ratio;
  MetricSummary mean_lookup_ms;
  MetricSummary mean_lookup_hits_ms;
  MetricSummary mean_transfer_hits_ms;
  MetricSummary mean_transfer_all_ms;
  MetricSummary total_queries;
  MetricSummary new_client_lookup_ms;
  MetricSummary established_lookup_ms;

  // Environment accounting.
  MetricSummary messages_sent;
  MetricSummary bytes_sent;
  MetricSummary churn_arrivals;
  MetricSummary churn_failures;
  MetricSummary final_population;
  MetricSummary events_processed;

  // Flower protocol stats (all-zero for Squirrel cells).
  MetricSummary dir_failures_detected;
  MetricSummary promotions_triggered;
  MetricSummary live_directories;
  MetricSummary max_directory_load;
  MetricSummary max_instance;
  MetricSummary final_mean_directory_load;

  // Chaos recovery metrics, summarized across trials. Only meaningful when
  // `chaos_enabled` (the cell ran with a scenario); all-zero otherwise.
  bool chaos_enabled = false;
  /// Per trial: mean replacement latency over the directory kills that were
  /// replaced before the run ended. Trials with no observed replacement
  /// contribute no sample, so n == 0 (JSON null) when nothing was ever
  /// replaced — never a fake 0 ms.
  MetricSummary chaos_replacement_latency_ms;
  /// Kills of a live directory over all trials: replaced before the run
  /// ended, and not. The latency above averages the replaced ones only, so
  /// these counts are reported beside it.
  uint64_t chaos_kills_replaced = 0;
  uint64_t chaos_kills_unreplaced = 0;
  /// Per trial: baseline windowed hit ratio minus the dip minimum.
  MetricSummary chaos_hit_ratio_dip;
  /// Per trial: hit-ratio recovery time (-1 = dipped but never recovered).
  MetricSummary chaos_recovery_ms;
  /// Per trial: pooled hit ratio during / after partition windows.
  MetricSummary chaos_success_during_partition;
  MetricSummary chaos_success_after_partition;
  /// Per trial: messages lost to the fault layer (loss + partitions).
  MetricSummary chaos_injected_drops;

  // Pooled distributions (Figs. 4, 5): bucket counts summed across trials.
  Histogram lookup_all{kLookupBucketMs, kLookupBuckets};
  Histogram lookup_hits{kLookupBucketMs, kLookupBuckets};
  Histogram transfer_all{kTransferBucketMs, kTransferBuckets};
  Histogram transfer_hits{kTransferBucketMs, kTransferBuckets};

  // Fig. 3 with error bars: cumulative hit ratio per hour, summarized
  // pointwise across trials (entry h covers hour h+1).
  std::vector<MetricSummary> cumulative_hit_ratio;
};

/// Merges the per-trial results of one (config, system) cell. `trials` must
/// be non-empty and homogeneous (same system/population/histogram shape);
/// iteration order is fixed by the vector, so the output is bit-identical
/// for any scheduling of the trials.
AggregateResult Aggregate(const std::vector<ExperimentResult>& trials);

}  // namespace flowercdn

#endif  // FLOWERCDN_RUNNER_AGGREGATE_H_
