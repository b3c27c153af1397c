#ifndef FLOWERCDN_FLOWER_PARAMS_H_
#define FLOWERCDN_FLOWER_PARAMS_H_

#include <cstddef>

#include "chord/chord_node.h"
#include "sim/types.h"

namespace flowercdn {

/// A content peer pushes updates to its directory peer when the fraction
/// of new changes in its store reaches this threshold (Table 1: 0.5).
constexpr double kPushThreshold = 0.5;

/// Maximum directory instances per (website, locality) — the paper's 2^m.
constexpr int kMaxDirectoryInstances = 16;

/// Delay between retries when a client cannot reach any directory.
constexpr SimDuration kJoinRetryDelay = 30 * kSecond;

/// The settable protocol parameters of Flower-CDN / PetalUp-CDN: the ones
/// a flag, a sweep key, flowercdn-node or a test sets to a value other
/// than its default. Defaults follow Table 1 of the paper where it
/// specifies a value, and conservative engineering choices elsewhere (each
/// documented). The fixed constants live next to the code that reads them
/// (above, and at the top of flower_peer.cc).
struct FlowerParams {
  /// Periodicity of gossip and keepalive messages sent by a content peer
  /// (Table 1: 1 hour, "calibrated based on Flower-CDN requirements").
  SimDuration gossip_period = kHour;

  /// Directory load limit: number of content peers one directory instance
  /// manages before PetalUp splits it (the paper's petals "never surpass
  /// 30" in the Flower-CDN configuration).
  size_t max_directory_load = 30;

  /// Timeout of one application RPC (query, fetch, push, keepalive...).
  SimDuration rpc_timeout = 800 * kMillisecond;

  /// §3.2: "directory peers of the same website may collaborate to provide
  /// content of ws" — on a local miss, consult the ring neighbor directory
  /// of the same website (adjacent D-ring id). Off by default: it trades
  /// extra hit ratio for slower misses and blurs the paper's
  /// locality-aware latency profile; see EXPERIMENTS.md "Ablations".
  bool enable_dir_collaboration = false;

  /// PetalUp-CDN: allow spawning additional directory instances when the
  /// first is overloaded. With false, the system degenerates to plain
  /// Flower-CDN behavior (fixed one directory per petal).
  bool petalup_enabled = true;

  /// Total copies of each directory-index, primary included. 1 (the
  /// paper-faithful default) disables replication entirely — no replica
  /// state, messages or counters exist, keeping runs byte-identical to the
  /// unreplicated protocol. With k >= 2 every directory peer syncs its
  /// index to its k-1 nearest distinct D-ring successors and a replica
  /// holder hands the state to a petal member within seconds of the
  /// primary's death.
  int replication = 1;

  /// Parameters of the D-ring DHT substrate.
  ChordNode::Params chord;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_FLOWER_PARAMS_H_
