#ifndef FLOWERCDN_OBS_LATENCY_HISTOGRAM_H_
#define FLOWERCDN_OBS_LATENCY_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>

namespace flowercdn {

/// HdrHistogram-style log-linear latency recorder: 32 linear sub-buckets
/// per power-of-two decade of microseconds. A quantile reports the upper
/// bound of the bucket holding the ranked sample (capped at the max), so it
/// never under-reports, and over-reports by at most 1/32 (~3%) from 32 us
/// up (by at most 1 us below that). Constant memory, no per-sample
/// allocation — fit for tens of thousands of recordings per second (load
/// generator, gateway request path, event-loop poll instrumentation).
///
/// Copyable on purpose: interval reporting snapshots the histogram and
/// diffs it against the previous snapshot (DeltaSince) to get per-interval
/// quantiles out of a cumulative recorder.
class LatencyHistogram {
 public:
  static constexpr int kDecades = 28;     // up to 2^32 us =~ 71 min
  static constexpr int kSubBuckets = 32;

  void Record(uint64_t micros);
  void Merge(const LatencyHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t max_micros() const { return max_; }
  uint64_t sum_micros() const { return sum_; }
  double mean_micros() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) /
                                   static_cast<double>(count_);
  }
  /// Quantile in microseconds (q in [0,1]); 0 when empty.
  uint64_t QuantileMicros(double q) const;

  /// The samples recorded since `prev` was snapshotted from this histogram:
  /// bucket-wise difference, valid only when `prev` is an earlier copy of
  /// *this. The delta's max is capped at the cumulative max (the true
  /// interval max is not reconstructible from two snapshots).
  LatencyHistogram DeltaSince(const LatencyHistogram& prev) const;

 private:
  static size_t BucketOf(uint64_t micros);
  static uint64_t BucketUpperBound(size_t bucket);

  uint64_t buckets_[kDecades * kSubBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_OBS_LATENCY_HISTOGRAM_H_
