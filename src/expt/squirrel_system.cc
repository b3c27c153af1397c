#include "expt/squirrel_system.h"

#include <utility>

#include "util/logging.h"

namespace flowercdn {

SquirrelSystem::SquirrelSystem(ExperimentEnv* env,
                               const SquirrelPeer::Params& params)
    : env_(env), params_(params), rng_(env->MakeRng("squirrel-system")) {
  FLOWERCDN_CHECK(env != nullptr);
  ctx_.network = &env_->network();
  ctx_.metrics = &env_->metrics();
  ctx_.catalog = &env_->catalog();
  ctx_.workload = &env_->workload();
  ctx_.origins = &env_->origins();
  ctx_.stats = &env_->stats();
  ctx_.pick_bootstrap = [this](PeerId self) { return PickBootstrap(self); };
}

void SquirrelSystem::Setup() {
  ChurnProcess& churn = env_->churn();
  churn.SetHandlers([this](PeerId peer) { OnArrival(peer); },
                    [this](PeerId peer) { OnFailure(peer); });

  // The same k*|W| identities that seed Flower-CDN's D-ring start online
  // here too (as plain ring members), keeping both systems' initial
  // populations identical.
  const size_t initial = static_cast<size_t>(
                             env_->config().catalog.num_websites) *
                         env_->config().topology.num_localities;
  for (size_t i = 0; i < initial && i < env_->universe_size(); ++i) {
    PeerId peer = static_cast<PeerId>(i + 1);
    SimDuration at = static_cast<SimDuration>(i) *
                     env_->config().initial_join_stagger;
    bool create_ring = i == 0;
    env_->sim().Schedule(at, [this, peer, create_ring]() {
      env_->churn().StartSession(peer);
      StartSessionFor(peer, create_ring);
    });
  }
  for (size_t i = initial; i < env_->universe_size(); ++i) {
    env_->churn().AddOfflineIdentity(static_cast<PeerId>(i + 1));
  }
  churn.Start();
}

void SquirrelSystem::StartSessionFor(PeerId peer, bool create_ring) {
  const ExperimentEnv::Identity& identity = env_->identity(peer);
  auto session = std::make_unique<SquirrelPeer>(
      ctx_, peer, identity.website, &env_->identity(peer).store,
      env_->MakePeerRng(peer), params_);
  SquirrelPeer* raw = session.get();
  sessions_.emplace(peer, std::move(session));
  if (create_ring) {
    raw->Start(std::nullopt);
  } else {
    PeerId bootstrap = PickBootstrap(peer);
    raw->Start(bootstrap == kInvalidPeer ? std::nullopt
                                         : std::optional<PeerId>(bootstrap));
  }
  TrackAlive(peer);
}

void SquirrelSystem::OnArrival(PeerId peer) {
  if (!env_->config().retain_cache_on_rejoin) {
    env_->identity(peer).store = ContentStore();
  }
  StartSessionFor(peer, /*create_ring=*/alive_.empty());
}

void SquirrelSystem::OnFailure(PeerId peer) { DestroySession(peer); }

void SquirrelSystem::DestroySession(PeerId peer) {
  auto it = sessions_.find(peer);
  if (it == sessions_.end()) return;
  UntrackAlive(peer);
  if (env_->network().IsAlive(peer)) env_->network().Detach(peer);
  sessions_.erase(it);
}

PeerId SquirrelSystem::PickBootstrap(PeerId self) {
  for (int attempt = 0; attempt < 5 && !alive_.empty(); ++attempt) {
    PeerId candidate = alive_[rng_.Index(alive_.size())];
    if (candidate != self && env_->network().IsAlive(candidate)) {
      // Prefer bootstraps that actually made it into the ring.
      auto it = sessions_.find(candidate);
      if (it != sessions_.end() && it->second->joined()) return candidate;
    }
  }
  return kInvalidPeer;
}

void SquirrelSystem::TrackAlive(PeerId peer) {
  if (alive_index_.count(peer) > 0) return;
  alive_index_[peer] = alive_.size();
  alive_.push_back(peer);
}

void SquirrelSystem::UntrackAlive(PeerId peer) {
  auto it = alive_index_.find(peer);
  if (it == alive_index_.end()) return;
  size_t idx = it->second;
  PeerId moved = alive_.back();
  alive_[idx] = moved;
  alive_index_[moved] = idx;
  alive_.pop_back();
  alive_index_.erase(peer);
}

SquirrelSystem::Stats SquirrelSystem::ComputeStats() const {
  const StatsRegistry& registry = env_->stats();
  Stats stats;
  stats.queries_issued = registry.Total("squirrel.queries_issued");
  stats.home_redirects = registry.Total("squirrel.home_redirects");
  stats.home_empty = registry.Total("squirrel.home_empty");
  stats.delegate_failures = registry.Total("squirrel.delegate_failures");
  stats.lookup_failures = registry.Total("squirrel.lookup_failures");
  stats.live_sessions = sessions_.size();
  for (const auto& [peer, session] : sessions_) {
    if (session->joined()) ++stats.joined_sessions;
  }
  return stats;
}

SquirrelPeer* SquirrelSystem::session(PeerId peer) {
  auto it = sessions_.find(peer);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void SquirrelSystem::InjectFailure(PeerId peer) { DestroySession(peer); }

}  // namespace flowercdn
