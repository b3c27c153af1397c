#include "obs/latency_histogram.h"

#include <algorithm>
#include <iterator>

namespace flowercdn {

size_t LatencyHistogram::BucketOf(uint64_t micros) {
  if (micros < kSubBuckets) return static_cast<size_t>(micros);
  // Decade d >= 1 holds [2^(d+4), 2^(d+5)) split into kSubBuckets linear
  // slots, so a sample with highest set bit `bits` lands in decade
  // bits - 4 (2^5 == kSubBuckets) at base 2^bits.
  const int bits = 63 - __builtin_clzll(micros);
  const int decade = bits - 4;
  if (decade >= kDecades) return kDecades * kSubBuckets - 1;  // saturate
  const uint64_t base = uint64_t{1} << bits;
  const uint64_t width = base / kSubBuckets;
  const size_t sub = static_cast<size_t>((micros - base) / width);
  return static_cast<size_t>(decade) * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketUpperBound(size_t bucket) {
  size_t decade = bucket / kSubBuckets;
  size_t sub = bucket % kSubBuckets;
  if (decade == 0) return sub + 1;
  uint64_t base = uint64_t{1} << (decade + 4);
  uint64_t width = base / kSubBuckets;
  return base + (sub + 1) * width;
}

void LatencyHistogram::Record(uint64_t micros) {
  ++buckets_[BucketOf(micros)];
  ++count_;
  sum_ += micros;
  max_ = std::max(max_, micros);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kDecades * kSubBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::Reset() {
  std::fill(std::begin(buckets_), std::end(buckets_), uint64_t{0});
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

uint64_t LatencyHistogram::QuantileMicros(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < kDecades * kSubBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) return std::min(BucketUpperBound(i), max_);
  }
  return max_;
}

LatencyHistogram LatencyHistogram::DeltaSince(
    const LatencyHistogram& prev) const {
  LatencyHistogram delta;
  for (size_t i = 0; i < kDecades * kSubBuckets; ++i) {
    delta.buckets_[i] =
        buckets_[i] >= prev.buckets_[i] ? buckets_[i] - prev.buckets_[i] : 0;
  }
  delta.count_ = count_ >= prev.count_ ? count_ - prev.count_ : 0;
  delta.sum_ = sum_ >= prev.sum_ ? sum_ - prev.sum_ : 0;
  delta.max_ = max_;
  return delta;
}

}  // namespace flowercdn
