#ifndef FLOWERCDN_STORAGE_WORKLOAD_H_
#define FLOWERCDN_STORAGE_WORKLOAD_H_

#include <optional>
#include <unordered_map>

#include "sim/types.h"
#include "storage/content_store.h"
#include "storage/website.h"
#include "util/random.h"

namespace flowercdn {

/// Query workload of the paper's evaluation (§6.1): a peer interested in an
/// active website submits one query every `kMeanQueryGap` on average from
/// arrival until failure, always for an object it does not hold locally
/// ("a peer only poses queries for objects unavailable in its local
/// storage; it never issues the same query more than once").
class QueryWorkload {
 public:
  /// Mean gap between two queries of one peer (Table 1: 1 query / 6 min).
  static constexpr SimDuration kMeanQueryGap = 6 * kMinute;

  explicit QueryWorkload(const WebsiteCatalog* catalog);

  /// Draws the next query of a peer interested in `ws`, skipping objects in
  /// `store`. Returns nullopt when the peer's interest set is (practically)
  /// exhausted.
  std::optional<ObjectId> NextQuery(WebsiteId ws, const ContentStore& store,
                                    Rng& rng) const;

  /// Exponential gap until the peer's next query for `ws`. A flash-crowd
  /// multiplier > 1 shrinks the gap (more queries per peer per hour). The
  /// multiplier is applied after drawing, so a multiplier of 1.0 consumes
  /// the RNG stream exactly as a run without chaos would.
  SimDuration NextQueryGap(WebsiteId ws, Rng& rng) const;

  /// Sets the query-rate multiplier for one website (chaos `flash_crowd`
  /// action). 1.0 restores the baseline rate.
  void SetRateMultiplier(WebsiteId ws, double m);
  double rate_multiplier(WebsiteId ws) const;

 private:
  const WebsiteCatalog* catalog_;
  std::unordered_map<WebsiteId, double> rate_multiplier_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_STORAGE_WORKLOAD_H_
