#ifndef FLOWERCDN_FLOWER_PARAMS_H_
#define FLOWERCDN_FLOWER_PARAMS_H_

#include <cstddef>

#include "chord/chord_node.h"
#include "sim/types.h"

namespace flowercdn {

/// Protocol constants of Flower-CDN / PetalUp-CDN. Defaults follow Table 1
/// of the paper where it specifies a value, and conservative engineering
/// choices elsewhere (each documented).
struct FlowerParams {
  /// Periodicity of gossip and keepalive messages sent by a content peer
  /// (Table 1: 1 hour, "calibrated based on Flower-CDN requirements").
  SimDuration gossip_period = kHour;

  /// A content peer pushes updates to its directory peer when the fraction
  /// of new changes in its store reaches this threshold (Table 1: 0.5).
  double push_threshold = 0.5;

  /// Directory-view entries whose age exceeds this many gossip rounds
  /// without a keepalive/push/gossip touch are treated as expired.
  uint32_t view_entry_expiry_rounds = 2;

  /// Contacts shipped per petal gossip exchange.
  size_t gossip_fanout = 4;

  /// View subset a directory peer hands to a newly admitted content peer so
  /// it can bootstrap its own petal view (paper §4).
  size_t view_seed_size = 8;

  /// Directory load limit: number of content peers one directory instance
  /// manages before PetalUp splits it (the paper's petals "never surpass
  /// 30" in the Flower-CDN configuration).
  size_t max_directory_load = 30;

  /// Maximum directory instances per (website, locality) — the paper's 2^m.
  int max_instances = 16;

  /// Safety bound on the PetalUp sequential scan of directory instances.
  int max_scan_hops = 16;

  /// Contacts probed (sequentially) per query based on gossip summaries
  /// before falling back to the directory.
  int max_summary_probes = 2;

  /// False-positive rate of the Bloom content summaries.
  double summary_fp_rate = 0.02;

  /// Timeout of one application RPC (query, fetch, push, keepalive...).
  SimDuration rpc_timeout = 800 * kMillisecond;

  /// Delay between retries when a client cannot reach any directory.
  SimDuration join_retry_delay = 30 * kSecond;

  /// D-ring lookup attempts of a new client before giving up on the P2P
  /// system for this query.
  int max_client_lookup_attempts = 3;

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

  /// Cadence of replica-sync messages (delta or full snapshot) from a
  /// directory primary to its successor replicas. Only meaningful with
  /// replication >= 2.
  SimDuration replica_sync_period = 15 * kSecond;

  /// A replica holder presumes its primary dead after this many missed
  /// sync periods (plus its 0-based replica rank, staggering failover so
  /// the first live successor acts first).
  int replica_failover_misses = 2;

  /// Cap on buffered index-delta operations per primary. A replica whose
  /// acknowledged version falls behind the trimmed log is resynced with a
  /// full snapshot (anti-entropy) instead of deltas.
  size_t replica_max_delta_ops = 256;

  /// Parameters of the D-ring DHT substrate.
  ChordNode::Params chord;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_FLOWER_PARAMS_H_
