#include "storage/workload.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace flowercdn {

namespace {

/// Attempts at drawing an object absent from the local store before
/// concluding the peer has nothing left to ask for.
constexpr int kMaxSampleAttempts = 64;

}  // namespace

QueryWorkload::QueryWorkload(const WebsiteCatalog* catalog)
    : catalog_(catalog) {
  FLOWERCDN_CHECK(catalog != nullptr);
}

std::optional<ObjectId> QueryWorkload::NextQuery(WebsiteId ws,
                                                 const ContentStore& store,
                                                 Rng& rng) const {
  // Rejection-sample the Zipf law against the local cache. The cache is
  // tiny relative to the 500-object site in all paper configurations, so
  // this nearly always succeeds in a few draws.
  for (int attempt = 0; attempt < kMaxSampleAttempts; ++attempt) {
    ObjectId candidate = catalog_->SampleObject(ws, rng);
    if (!store.Contains(candidate)) return candidate;
  }
  // Heavily saturated cache: scan for any missing object (keeps the
  // workload well-defined even in extreme long runs).
  for (int object = 0; object < catalog_->objects_per_website(); ++object) {
    ObjectId candidate{ws, static_cast<uint32_t>(object)};
    if (!store.Contains(candidate)) return candidate;
  }
  return std::nullopt;
}

SimDuration QueryWorkload::NextQueryGap(WebsiteId ws, Rng& rng) const {
  double gap = rng.Exponential(static_cast<double>(kMeanQueryGap));
  auto it = rate_multiplier_.find(ws);
  if (it != rate_multiplier_.end()) gap /= it->second;
  return std::max<SimDuration>(static_cast<SimDuration>(std::llround(gap)),
                               1);
}

void QueryWorkload::SetRateMultiplier(WebsiteId ws, double m) {
  FLOWERCDN_CHECK(m > 0) << "query rate multiplier must be positive";
  if (m == 1.0) {
    rate_multiplier_.erase(ws);
  } else {
    rate_multiplier_[ws] = m;
  }
}

double QueryWorkload::rate_multiplier(WebsiteId ws) const {
  auto it = rate_multiplier_.find(ws);
  return it == rate_multiplier_.end() ? 1.0 : it->second;
}

}  // namespace flowercdn
