#include "metrics/metrics.h"

namespace flowercdn {

void MetricsCollector::RecordQuery(const QueryRecord& record) {
  ++total_queries_;
  if (record.from_new_client) {
    ++new_client_queries_;
    if (record.hit) ++new_client_hits_;
    new_client_lookup_sum_ += record.lookup_latency_ms;
  }
  lookup_all_.Add(record.lookup_latency_ms);
  transfer_all_.Add(record.transfer_distance_ms);
  if (record.hit) {
    ++hits_;
    lookup_hits_.Add(record.lookup_latency_ms);
    transfer_hits_.Add(record.transfer_distance_ms);
  }
  size_t idx = static_cast<size_t>(record.issued_at / kHitRatioWindow);
  if (idx >= buckets_.size()) {
    size_t old = buckets_.size();
    buckets_.resize(idx + 1);
    for (size_t i = old; i < buckets_.size(); ++i) {
      buckets_[i].bucket_start = static_cast<SimTime>(i) * kHitRatioWindow;
    }
  }
  ++buckets_[idx].queries;
  if (record.hit) ++buckets_[idx].hits;
}

double MetricsCollector::MeanNewClientLookupMs() const {
  return new_client_queries_
             ? new_client_lookup_sum_ / static_cast<double>(new_client_queries_)
             : 0.0;
}

double MetricsCollector::MeanEstablishedLookupMs() const {
  uint64_t established = total_queries_ - new_client_queries_;
  return established ? (lookup_all_.sum() - new_client_lookup_sum_) /
                           static_cast<double>(established)
                     : 0.0;
}

double MetricsCollector::HitRatio() const {
  return total_queries_ ? static_cast<double>(hits_) / total_queries_ : 0.0;
}

std::vector<MetricsCollector::TimePoint> MetricsCollector::TimeSeries()
    const {
  return buckets_;
}

std::vector<double> MetricsCollector::CumulativeHitRatioSeries() const {
  std::vector<double> out;
  out.reserve(buckets_.size());
  uint64_t q = 0, h = 0;
  for (const TimePoint& b : buckets_) {
    q += b.queries;
    h += b.hits;
    out.push_back(q ? static_cast<double>(h) / q : 0.0);
  }
  return out;
}

}  // namespace flowercdn
