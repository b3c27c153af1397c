#ifndef FLOWERCDN_FLOWER_DRING_H_
#define FLOWERCDN_FLOWER_DRING_H_

#include <optional>

#include "chord/id.h"
#include "chord/lookup.h"
#include "sim/topology.h"
#include "sim/types.h"
#include "storage/object_id.h"

namespace flowercdn {

/// The D-ring's novel key management service (paper §3.2): every directory
/// position is a *deterministic* ring id derived from (website, locality,
/// instance), laid out so that
///  * all directory peers of one website occupy successive ids (ring
///    neighbors — enabling the §3.2 same-website collaboration), and
///  * PetalUp instances d^0..d^{2^m - 1} of one (website, locality) are
///    themselves consecutive (paper §4).
///
/// Positions are spread uniformly over the 64-bit circle so Chord finger
/// routing stays O(log n).
class DRingKeyspace {
 public:
  DRingKeyspace(int num_websites, int num_localities, int max_instances);

  /// Ring id of directory position d^instance(ws, loc).
  ChordId IdOf(WebsiteId ws, LocalityId loc, int instance) const;

  struct Position {
    WebsiteId website = 0;
    LocalityId locality = 0;
    int instance = 0;
  };

  /// Decodes an exact directory-position id; nullopt if `id` is not one of
  /// the deterministic positions.
  std::optional<Position> PositionOf(ChordId id) const;

  int num_websites() const { return num_websites_; }
  int num_localities() const { return num_localities_; }
  int max_instances() const { return max_instances_; }
  /// Total number of addressable directory positions.
  uint64_t num_positions() const { return total_; }

 private:
  int num_websites_;
  int num_localities_;
  int max_instances_;
  uint64_t total_;
};

/// Deadline of a bootstrap's ack: a dead bootstrap fails a resolution at
/// once instead of after the lookup deadline.
constexpr SimDuration kDRingAckTimeout = 1500 * kMillisecond;

/// How a peer outside the D-ring resolves a key (paper §3.2: "a client
/// submits its query to D-ring"): one attempt, delegated to member `via`.
inline LookupRoute DRingRoute(PeerId via, SimDuration deadline) {
  return {.via = via,
          .attempt_timeout = deadline,
          .ack_timeout = kDRingAckTimeout,
          .max_attempts = 1};
}

}  // namespace flowercdn

#endif  // FLOWERCDN_FLOWER_DRING_H_
