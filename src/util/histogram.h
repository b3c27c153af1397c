#ifndef FLOWERCDN_UTIL_HISTOGRAM_H_
#define FLOWERCDN_UTIL_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace flowercdn {

/// Fixed-width bucketed histogram over [0, max); values >= max land in an
/// overflow bucket. Used for the paper's lookup-latency and
/// transfer-distance distributions (Figs. 4 and 5).
class Histogram {
 public:
  /// Buckets of width `bucket_width` covering [0, bucket_width*num_buckets).
  Histogram(double bucket_width, size_t num_buckets);

  void Add(double value);

  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const;
  double Min() const;
  double Max() const;

  /// Fraction of samples with value <= x (exact at bucket upper edges,
  /// linearly interpolated inside a bucket).
  double CdfAt(double x) const;

  /// Approximate p-quantile (q in [0,1]) by interpolating within buckets.
  double Quantile(double q) const;

  size_t num_buckets() const { return counts_.size(); }
  double bucket_width() const { return bucket_width_; }
  /// Raw count of bucket b (the last bucket is the overflow bucket).
  size_t bucket_count(size_t b) const { return counts_[b]; }
  /// Inclusive-exclusive bounds [lo, hi) of bucket b.
  double bucket_lower(size_t b) const { return bucket_width_ * b; }

  /// Rows of "upper_edge fraction_of_samples_at_or_below" suitable for
  /// plotting a CDF (what Figs. 4 and 5 show).
  struct CdfPoint {
    double upper_edge;
    double cumulative_fraction;
  };
  std::vector<CdfPoint> Cdf() const;

  void Clear();

  /// Adds every sample of `other` into this histogram, bucket-pointwise.
  /// Requires identical geometry (bucket width and count); returns false —
  /// leaving this histogram untouched — otherwise. Merging preserves
  /// count/sum/min/max exactly, so aggregate means equal the mean of the
  /// pooled samples.
  bool Merge(const Histogram& other);

 private:
  double bucket_width_;
  std::vector<size_t> counts_;  // last slot = overflow
  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_UTIL_HISTOGRAM_H_
