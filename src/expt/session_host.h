#ifndef FLOWERCDN_EXPT_SESSION_HOST_H_
#define FLOWERCDN_EXPT_SESSION_HOST_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "expt/env.h"
#include "util/logging.h"
#include "util/random.h"

namespace flowercdn {

/// Filter that accepts every peer.
inline bool AnyPeer(PeerId) { return true; }

/// `bootstrap` as a Start argument: empty when no peer is known.
inline std::optional<PeerId> KnownPeer(PeerId bootstrap) {
  if (bootstrap == kInvalidPeer) return std::nullopt;
  return bootstrap;
}

/// Gap between consecutive initial directory-peer launches (bounds the
/// join storm while the initial D-ring assembles).
constexpr SimDuration kInitialJoinStagger = 20;

/// The live sessions of one driver over an ExperimentEnv's identity
/// universe (paper §6.1), at most one per identity. FlowerSystem,
/// SquirrelSystem and NodeHost each own one; churn, bootstrap choice and
/// rank ownership stay with the driver.
template <typename Peer>
class SessionHost {
 public:
  explicit SessionHost(ExperimentEnv* env)
      : env_(env), sessions_(env->universe_size() + 1) {}

  /// Constructs `peer`'s session as Peer(args...), not yet started. The
  /// peer must be offline.
  template <typename... Args>
  Peer* Create(PeerId peer, Args&&... args) {
    FLOWERCDN_CHECK(peer != kInvalidPeer && peer < sessions_.size())
        << "peer " << peer << " outside the identity universe";
    std::unique_ptr<Peer>& slot = sessions_[peer];
    FLOWERCDN_CHECK(slot == nullptr) << "peer " << peer << " already online";
    slot = std::make_unique<Peer>(std::forward<Args>(args)...);
    ++live_;
    return slot.get();
  }

  /// Detaches `peer` (so its guarded timers never fire) and frees its
  /// session. No-op when the peer is offline.
  void Destroy(PeerId peer) {
    if (Get(peer) == nullptr) return;
    if (env_->network().IsAlive(peer)) env_->network().Detach(peer);
    sessions_[peer].reset();
    --live_;
  }

  /// Null when `peer` is offline.
  Peer* Get(PeerId peer) const {
    return peer < sessions_.size() ? sessions_[peer].get() : nullptr;
  }
  size_t live() const { return live_; }

  /// Calls fn(Peer&) for every live session, in id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::unique_ptr<Peer>& session : sessions_) {
      if (session != nullptr) fn(*session);
    }
  }

  /// Schedules launch(peer, create_ring) for identity i+1 at
  /// i * kInitialJoinStagger, for each of the first k*|W| identities that
  /// `owned` accepts; create_ring is true only for identity 1. Skipped
  /// identities keep their slot, so every cluster rank agrees on launch
  /// times. Returns k*|W|.
  template <typename Owned, typename Launch>
  size_t ScheduleInitialLaunch(Owned owned, Launch launch) {
    const ExperimentConfig& config = env_->config();
    const size_t initial = static_cast<size_t>(config.catalog.num_websites) *
                           static_cast<size_t>(config.topology.num_localities);
    for (size_t i = 0; i < initial; ++i) {
      PeerId peer = static_cast<PeerId>(i + 1);
      if (!owned(peer)) continue;
      bool create_ring = i == 0;
      env_->sim().Schedule(
          static_cast<SimDuration>(i) * kInitialJoinStagger,
          [launch, peer, create_ring]() { launch(peer, create_ring); });
    }
    return initial;
  }

 private:
  ExperimentEnv* env_;
  std::vector<std::unique_ptr<Peer>> sessions_;  // by PeerId; null: offline
  size_t live_ = 0;
};

/// A bootstrap registry: a set of peers with O(1) add, remove and random
/// pick. Removal swaps the last entry into the hole, so which peer a draw
/// picks depends only on the sequence of adds and removes.
class PeerSet {
 public:
  explicit PeerSet(const Network* network) : network_(network) {}

  void Add(PeerId peer) {
    if (!index_.emplace(peer, peers_.size()).second) return;
    peers_.push_back(peer);
  }
  void Remove(PeerId peer) {
    auto it = index_.find(peer);
    if (it == index_.end()) return;
    size_t idx = it->second;
    index_.erase(it);
    peers_[idx] = peers_.back();
    peers_.pop_back();
    if (idx < peers_.size()) index_[peers_[idx]] = idx;
  }
  const std::vector<PeerId>& peers() const { return peers_; }
  bool empty() const { return peers_.empty(); }

  /// A random member that is not `self`, is alive and satisfies `accept`,
  /// or kInvalidPeer when kPickAttempts draws find none (members leave the
  /// set as they die, so only same-event races and `accept` miss).
  template <typename Accept>
  PeerId Pick(Rng& rng, PeerId self, Accept accept) const {
    for (int i = 0; i < kPickAttempts && !peers_.empty(); ++i) {
      PeerId candidate = peers_[rng.Index(peers_.size())];
      if (candidate != self && network_->IsAlive(candidate) &&
          accept(candidate)) {
        return candidate;
      }
    }
    return kInvalidPeer;
  }
  static constexpr int kPickAttempts = 5;

 private:
  const Network* network_;
  std::vector<PeerId> peers_;
  std::unordered_map<PeerId, size_t> index_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_EXPT_SESSION_HOST_H_
