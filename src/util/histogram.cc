#include "util/histogram.h"

#include <algorithm>
#include <cassert>

namespace flowercdn {

Histogram::Histogram(double bucket_width, size_t num_buckets)
    : bucket_width_(bucket_width), counts_(num_buckets + 1, 0) {
  assert(bucket_width > 0);
  assert(num_buckets > 0);
}

void Histogram::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  double b = value / bucket_width_;
  size_t idx = (value < 0) ? 0 : static_cast<size_t>(b);
  if (idx >= counts_.size() - 1) idx = counts_.size() - 1;  // overflow
  ++counts_[idx];
}

double Histogram::Mean() const { return count_ ? sum_ / count_ : 0.0; }
double Histogram::Min() const { return count_ ? min_ : 0.0; }
double Histogram::Max() const { return count_ ? max_ : 0.0; }

double Histogram::CdfAt(double x) const {
  if (count_ == 0) return 0.0;
  if (x < 0) return 0.0;
  size_t cum = 0;
  for (size_t b = 0; b + 1 < counts_.size(); ++b) {
    double lo = bucket_lower(b);
    double hi = lo + bucket_width_;
    if (x >= hi) {
      cum += counts_[b];
      continue;
    }
    // Interpolate within this bucket.
    double frac = (x - lo) / bucket_width_;
    return (static_cast<double>(cum) + frac * counts_[b]) / count_;
  }
  // x beyond the last regular bucket: count everything except the part of
  // the overflow bucket we cannot localize; treat overflow as "above x"
  // only if x is below max_.
  if (x >= max_) return 1.0;
  return static_cast<double>(count_ - counts_.back()) / count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  double cum = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    double next = cum + counts_[b];
    if (next >= target && counts_[b] > 0) {
      if (b + 1 == counts_.size()) return max_;  // overflow bucket
      double lo = bucket_lower(b);
      double frac = (target - cum) / counts_[b];
      return lo + frac * bucket_width_;
    }
    cum = next;
  }
  return max_;
}

std::vector<Histogram::CdfPoint> Histogram::Cdf() const {
  std::vector<CdfPoint> out;
  out.reserve(counts_.size());
  size_t cum = 0;
  for (size_t b = 0; b + 1 < counts_.size(); ++b) {
    cum += counts_[b];
    out.push_back({bucket_lower(b) + bucket_width_,
                   count_ ? static_cast<double>(cum) / count_ : 0.0});
  }
  cum += counts_.back();
  out.push_back({max_, count_ ? static_cast<double>(cum) / count_ : 0.0});
  return out;
}

bool Histogram::Merge(const Histogram& other) {
  if (bucket_width_ != other.bucket_width_ ||
      counts_.size() != other.counts_.size()) {
    return false;
  }
  if (other.count_ == 0) return true;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  return true;
}

void Histogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = max_ = 0;
}

}  // namespace flowercdn
