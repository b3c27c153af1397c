#include "expt/flower_system.h"

#include <algorithm>
#include <map>
#include <utility>

namespace flowercdn {

FlowerContext MakeFlowerContext(ExperimentEnv* env,
                                const DRingKeyspace* keyspace,
                                const FlowerParams* params) {
  FlowerContext ctx;
  ctx.network = &env->network();
  ctx.metrics = &env->metrics();
  ctx.catalog = &env->catalog();
  ctx.workload = &env->workload();
  ctx.origins = &env->origins();
  ctx.keyspace = keyspace;
  ctx.params = params;
  ctx.trace = env->trace_ptr();
  ctx.stats = &env->stats();
  return ctx;
}

FlowerSystem::FlowerSystem(ExperimentEnv* env, const FlowerParams& params)
    : env_(env),
      params_(params),
      keyspace_(env->config().catalog.num_websites,
                env->config().topology.num_localities,
                kMaxDirectoryInstances),
      ctx_(MakeFlowerContext(env, &keyspace_, &params_)),
      rng_(env->MakeRng("flower-system")),
      sessions_(env),
      dir_registry_(&env->network()) {
  ctx_.pick_dring_bootstrap = [this](PeerId self) {
    return PickDirectoryBootstrap(self);
  };
  ctx_.on_role_change = [this](PeerId peer, FlowerRole role) {
    OnRoleChange(peer, role);
  };
}

void FlowerSystem::Setup() {
  ChurnProcess& churn = env_->churn();
  churn.SetHandlers([this](PeerId peer) { OnArrival(peer); },
                    [this](PeerId peer) { DestroySession(peer); });

  // Launch the initial D-ring: identity ws*k + loc + 1 is the directory
  // peer of (ws, loc), staggered slightly so the ring assembles without a
  // join storm. Their sessions have regular (limited) uptimes, per §6.1.
  const size_t initial = sessions_.ScheduleInitialLaunch(
      AnyPeer, [this](PeerId peer, bool create_ring) {
        FlowerPeer* raw = CreateSession(peer);
        env_->churn().StartSession(peer);
        raw->StartAsDirectory(
            0, create_ring ? std::nullopt
                           : KnownPeer(PickDirectoryBootstrap(peer)));
      });

  // Everyone else starts in the offline pool, joining through churn
  // arrivals.
  for (size_t i = initial; i < env_->universe_size(); ++i) {
    env_->churn().AddOfflineIdentity(static_cast<PeerId>(i + 1));
  }
  churn.Start();
  ScheduleLoadSampling();
  overlay_sampler_ = std::make_unique<OverlaySampler>(
      &env_->sim(), env_->config().stats_interval);
  overlay_sampler_->Start([this] { return ProbeOverlay(); });
}

const std::vector<OverlaySample>& FlowerSystem::overlay_samples() const {
  static const std::vector<OverlaySample> kEmpty;
  return overlay_sampler_ != nullptr ? overlay_sampler_->samples() : kEmpty;
}

OverlaySample FlowerSystem::ProbeOverlay() const {
  OverlaySample sample;
  sample.alive_peers = sessions_.live();
  std::vector<uint64_t> dir_loads;
  // Petal sizes keyed by (website, locality); an ordered map is not needed
  // for determinism (DistSummary sorts the values), but costs nothing.
  std::map<std::pair<WebsiteId, LocalityId>, uint64_t> petal_sizes;
  sessions_.ForEach([&](const FlowerPeer& session) {
    switch (session.role()) {
      case FlowerRole::kClient:
        ++sample.clients;
        break;
      case FlowerRole::kContentPeer:
        ++sample.content_peers;
        ++petal_sizes[{session.website(), session.locality()}];
        break;
      case FlowerRole::kDirectoryPeer:
        ++sample.directory_peers;
        dir_loads.push_back(session.view().size());
        sample.max_instance = std::max(sample.max_instance, session.instance());
        break;
    }
  });
  std::vector<uint64_t> petals;
  petals.reserve(petal_sizes.size());
  for (const auto& [key, size] : petal_sizes) petals.push_back(size);
  sample.directory_load = DistSummary::FromValues(std::move(dir_loads));
  sample.petal_size = DistSummary::FromValues(std::move(petals));
  return sample;
}

FlowerPeer* FlowerSystem::CreateSession(PeerId peer) {
  ExperimentEnv::Identity& identity = env_->identity(peer);
  return sessions_.Create(peer, ctx_, peer, identity.website,
                          identity.locality, &identity.store,
                          env_->MakePeerRng(peer));
}

void FlowerSystem::OnArrival(PeerId peer) {
  if (!env_->config().retain_cache_on_rejoin) {
    env_->identity(peer).store = ContentStore();
  }
  CreateSession(peer)->StartAsClient();
}

void FlowerSystem::DestroySession(PeerId peer) {
  FlowerPeer* session = sessions_.Get(peer);
  if (session == nullptr) return;
  if (session->role() == FlowerRole::kDirectoryPeer) {
    max_observed_directory_load_ =
        std::max(max_observed_directory_load_, session->view().size());
    max_observed_instance_ =
        std::max(max_observed_instance_, session->instance());
  }
  dir_registry_.Remove(peer);
  sessions_.Destroy(peer);
}

PeerId FlowerSystem::PickDirectoryBootstrap(PeerId self) {
  return dir_registry_.Pick(rng_, self, AnyPeer);
}

void FlowerSystem::OnRoleChange(PeerId peer, FlowerRole role) {
  if (role == FlowerRole::kDirectoryPeer) {
    dir_registry_.Add(peer);
  } else {
    dir_registry_.Remove(peer);
  }
}

void FlowerSystem::ScheduleLoadSampling() {
  env_->sim().Schedule(load_sample_period_, [this]() {
    LoadSample sample;
    sample.time = env_->sim().now();
    size_t total_load = 0;
    sessions_.ForEach([&](const FlowerPeer& session) {
      if (session.role() != FlowerRole::kDirectoryPeer) return;
      ++sample.directory_count;
      size_t load = session.view().size();
      total_load += load;
      sample.max_load = std::max(sample.max_load, load);
      sample.max_instance = std::max(sample.max_instance, session.instance());
    });
    if (sample.directory_count > 0) {
      sample.mean_load = static_cast<double>(total_load) /
                         static_cast<double>(sample.directory_count);
    }
    max_observed_directory_load_ =
        std::max(max_observed_directory_load_, sample.max_load);
    max_observed_instance_ =
        std::max(max_observed_instance_, sample.max_instance);
    load_samples_.push_back(sample);
    ScheduleLoadSampling();
  });
}

FlowerSystem::Stats FlowerSystem::ComputeStats() const {
  const StatsRegistry& registry = env_->stats();
  Stats stats;
  stats.queries_issued = registry.Total("flower.queries_issued");
  stats.dring_resolve_failures =
      registry.Total("flower.dring_resolve_failures");
  stats.dir_reply_vacant = registry.Total("flower.dir_reply_vacant");
  stats.dir_query_timeouts = registry.Total("flower.dir_query_timeouts");
  stats.dir_failures_detected = registry.Total("flower.dir_failures_detected");
  stats.promotions_triggered = registry.Total("flower.promotions");
  stats.summary_hits = registry.Total("flower.summary_hits");
  stats.collaboration_hits = registry.Total("flower.collaboration_hits");
  stats.live_sessions = sessions_.live();
  stats.max_observed_directory_load = max_observed_directory_load_;
  stats.max_observed_instance = max_observed_instance_;
  sessions_.ForEach([&](const FlowerPeer& session) {
    if (session.role() != FlowerRole::kDirectoryPeer) return;
    ++stats.live_directories;
    stats.max_observed_directory_load =
        std::max(stats.max_observed_directory_load, session.view().size());
    stats.max_observed_instance =
        std::max(stats.max_observed_instance, session.instance());
  });
  return stats;
}

FlowerPeer* FlowerSystem::FindDirectory(WebsiteId ws, LocalityId loc,
                                        int instance) {
  for (PeerId peer : dir_registry_.peers()) {
    FlowerPeer* s = sessions_.Get(peer);
    if (s == nullptr) continue;
    if (s->role() == FlowerRole::kDirectoryPeer && s->website() == ws &&
        s->locality() == loc && s->instance() == instance) {
      return s;
    }
  }
  return nullptr;
}

void FlowerSystem::InjectFailure(PeerId peer) { DestroySession(peer); }

bool FlowerSystem::HasDirectory(WebsiteId ws, LocalityId loc) {
  return FindDirectory(ws, loc) != nullptr;
}

bool FlowerSystem::KillDirectory(WebsiteId ws, LocalityId loc) {
  FlowerPeer* dir = FindDirectory(ws, loc);
  if (dir == nullptr) return false;
  InjectFailure(dir->self());
  return true;
}

void FlowerSystem::InjectGracefulLeave(PeerId peer) {
  FlowerPeer* leaving = sessions_.Get(peer);
  if (leaving == nullptr) return;
  leaving->LeaveGracefully();
  DestroySession(peer);
}

}  // namespace flowercdn
