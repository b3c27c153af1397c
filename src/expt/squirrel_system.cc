#include "expt/squirrel_system.h"

namespace flowercdn {

SquirrelSystem::SquirrelSystem(ExperimentEnv* env,
                               const SquirrelPeer::Params& params)
    : env_(env),
      params_(params),
      rng_(env->MakeRng("squirrel-system")),
      sessions_(env),
      alive_(&env->network()) {
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
                    [this](PeerId peer) { DestroySession(peer); });

  // The same k*|W| identities that seed Flower-CDN's D-ring start online
  // here too (as plain ring members), keeping both systems' initial
  // populations identical.
  const size_t initial = sessions_.ScheduleInitialLaunch(
      AnyPeer, [this](PeerId peer, bool create_ring) {
        env_->churn().StartSession(peer);
        StartSessionFor(peer, create_ring);
      });
  for (size_t i = initial; i < env_->universe_size(); ++i) {
    env_->churn().AddOfflineIdentity(static_cast<PeerId>(i + 1));
  }
  churn.Start();
}

void SquirrelSystem::StartSessionFor(PeerId peer, bool create_ring) {
  ExperimentEnv::Identity& identity = env_->identity(peer);
  SquirrelPeer* session =
      sessions_.Create(peer, ctx_, peer, identity.website, &identity.store,
                       env_->MakePeerRng(peer), params_);
  session->Start(create_ring ? std::nullopt : KnownPeer(PickBootstrap(peer)));
  alive_.Add(peer);
}

void SquirrelSystem::OnArrival(PeerId peer) {
  if (!env_->config().retain_cache_on_rejoin) {
    env_->identity(peer).store = ContentStore();
  }
  StartSessionFor(peer, /*create_ring=*/alive_.empty());
}

void SquirrelSystem::DestroySession(PeerId peer) {
  alive_.Remove(peer);
  sessions_.Destroy(peer);
}

PeerId SquirrelSystem::PickBootstrap(PeerId self) {
  // Prefer bootstraps that actually made it into the ring.
  return alive_.Pick(rng_, self, [this](PeerId candidate) {
    SquirrelPeer* session = sessions_.Get(candidate);
    return session != nullptr && session->joined();
  });
}

SquirrelSystem::Stats SquirrelSystem::ComputeStats() const {
  const StatsRegistry& registry = env_->stats();
  Stats stats;
  stats.queries_issued = registry.Total("squirrel.queries_issued");
  stats.home_redirects = registry.Total("squirrel.home_redirects");
  stats.home_empty = registry.Total("squirrel.home_empty");
  stats.delegate_failures = registry.Total("squirrel.delegate_failures");
  stats.lookup_failures = registry.Total("squirrel.lookup_failures");
  stats.live_sessions = sessions_.live();
  sessions_.ForEach([&](const SquirrelPeer& session) {
    if (session.joined()) ++stats.joined_sessions;
  });
  return stats;
}

void SquirrelSystem::InjectFailure(PeerId peer) { DestroySession(peer); }

}  // namespace flowercdn
