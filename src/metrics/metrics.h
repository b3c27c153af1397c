#ifndef FLOWERCDN_METRICS_METRICS_H_
#define FLOWERCDN_METRICS_METRICS_H_

#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "util/histogram.h"

namespace flowercdn {

/// Everything the paper measures about one resolved client query.
struct QueryRecord {
  SimTime issued_at = 0;
  /// True when the object was served from the P2P system (a peer cache);
  /// false when the origin web server had to serve it. The paper's metric
  /// (1): hit ratio = fraction of queries served from the P2P system.
  bool hit = false;
  /// Metric (2): latency from query submission until the destination that
  /// will provide the object is known, in ms.
  double lookup_latency_ms = 0;
  /// Metric (3): network distance (one-way latency) from the querying peer
  /// to the provider — a content peer on a hit, the origin on a miss.
  double transfer_distance_ms = 0;
  /// True when the query came from a new client routed over the DHT (vs. a
  /// content peer resolving inside its petal).
  bool from_new_client = false;
};

/// Window of the hit-ratio time series (Fig. 3).
constexpr SimDuration kHitRatioWindow = kHour;
/// Lookup-latency histogram geometry (Fig. 4): 60 buckets of 50 ms cover
/// 0..3000 ms, plus overflow.
constexpr double kLookupBucketMs = 50.0;
constexpr size_t kLookupBuckets = 60;
/// Transfer-distance histogram geometry (Fig. 5): 30 buckets of 20 ms
/// cover 0..600 ms, plus overflow.
constexpr double kTransferBucketMs = 20.0;
constexpr size_t kTransferBuckets = 30;

/// Accumulates query records into the paper's three metrics: overall and
/// windowed hit ratio (Fig. 3), lookup-latency distribution (Fig. 4) and
/// transfer-distance distribution (Fig. 5), plus the Table 2 summary row.
class MetricsCollector {
 public:
  void RecordQuery(const QueryRecord& record);

  // --- Aggregates ----------------------------------------------------------
  uint64_t total_queries() const { return total_queries_; }
  uint64_t hits() const { return hits_; }
  double HitRatio() const;
  double MeanLookupMs() const { return lookup_all_.Mean(); }
  double MeanTransferMs() const { return transfer_all_.Mean(); }
  double MeanTransferHitsMs() const { return transfer_hits_.Mean(); }

  /// Split by query source: new clients routed over the DHT vs established
  /// peers resolving locally. Explains where latency comes from.
  uint64_t new_client_queries() const { return new_client_queries_; }
  uint64_t new_client_hits() const { return new_client_hits_; }
  double MeanNewClientLookupMs() const;
  double MeanEstablishedLookupMs() const;

  // --- Distributions ---------------------------------------------------------
  const Histogram& lookup_all() const { return lookup_all_; }
  const Histogram& lookup_hits() const { return lookup_hits_; }
  const Histogram& transfer_all() const { return transfer_all_; }
  const Histogram& transfer_hits() const { return transfer_hits_; }

  // --- Hit ratio over time (Fig. 3) ----------------------------------------
  struct TimePoint {
    SimTime bucket_start = 0;
    uint64_t queries = 0;
    uint64_t hits = 0;
    /// Hit ratio of queries inside this window.
    double WindowRatio() const {
      return queries ? static_cast<double>(hits) / queries : 0.0;
    }
  };

  /// Per-window counts, ordered by time (empty windows included).
  std::vector<TimePoint> TimeSeries() const;

  /// Cumulative hit ratio at the end of each window — the curve shape the
  /// paper's Fig. 3 plots.
  std::vector<double> CumulativeHitRatioSeries() const;

 private:
  uint64_t total_queries_ = 0;
  uint64_t hits_ = 0;
  uint64_t new_client_queries_ = 0;
  uint64_t new_client_hits_ = 0;
  double new_client_lookup_sum_ = 0;
  Histogram lookup_all_{kLookupBucketMs, kLookupBuckets};
  Histogram lookup_hits_{kLookupBucketMs, kLookupBuckets};
  Histogram transfer_all_{kTransferBucketMs, kTransferBuckets};
  Histogram transfer_hits_{kTransferBucketMs, kTransferBuckets};
  std::vector<TimePoint> buckets_;  // indexed by issued_at / kHitRatioWindow
};

}  // namespace flowercdn

#endif  // FLOWERCDN_METRICS_METRICS_H_
