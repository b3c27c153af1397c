#include "expt/flower_system.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/logging.h"

namespace flowercdn {

FlowerSystem::FlowerSystem(ExperimentEnv* env, const FlowerParams& params)
    : env_(env),
      params_(params),
      keyspace_(env->config().catalog.num_websites,
                env->config().topology.num_localities,
                params.max_instances),
      rng_(env->MakeRng("flower-system")),
      sessions_(env->universe_size() + 1) {
  FLOWERCDN_CHECK(env != nullptr);
  ctx_.network = &env_->network();
  ctx_.metrics = &env_->metrics();
  ctx_.catalog = &env_->catalog();
  ctx_.workload = &env_->workload();
  ctx_.origins = &env_->origins();
  ctx_.keyspace = &keyspace_;
  ctx_.params = &params_;
  ctx_.trace = env_->trace_ptr();
  ctx_.stats = &env_->stats();
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
                    [this](PeerId peer) { OnFailure(peer); });

  const int k = env_->config().topology.num_localities;
  const int num_websites = env_->config().catalog.num_websites;
  const size_t initial = static_cast<size_t>(num_websites) * k;

  // Launch the initial D-ring: one directory peer per (website, locality),
  // staggered slightly so the ring assembles without a join storm. Their
  // sessions have regular (limited) uptimes, per §6.1.
  size_t launched = 0;
  for (int ws = 0; ws < num_websites; ++ws) {
    for (int loc = 0; loc < k; ++loc) {
      PeerId peer = env_->InitialDirectoryIdentity(
          static_cast<WebsiteId>(ws), static_cast<LocalityId>(loc));
      SimDuration at = static_cast<SimDuration>(launched) *
                       env_->config().initial_join_stagger;
      bool create_ring = launched == 0;
      env_->sim().Schedule(at, [this, peer, create_ring]() {
        FlowerPeer* raw = CreateSession(peer);
        env_->churn().StartSession(peer);
        if (create_ring) {
          raw->StartAsDirectory(0, std::nullopt);
        } else {
          PeerId bootstrap = PickDirectoryBootstrap(peer);
          raw->StartAsDirectory(0, bootstrap == kInvalidPeer
                                       ? std::nullopt
                                       : std::optional<PeerId>(bootstrap));
        }
      });
      ++launched;
    }
  }

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
  sample.alive_peers = live_sessions_;
  std::vector<uint64_t> dir_loads;
  // Petal sizes keyed by (website, locality); an ordered map is not needed
  // for determinism (DistSummary sorts the values), but costs nothing.
  std::map<std::pair<WebsiteId, LocalityId>, uint64_t> petal_sizes;
  for (const auto& session : sessions_) {
    if (session == nullptr) continue;
    switch (session->role()) {
      case FlowerRole::kClient:
        ++sample.clients;
        break;
      case FlowerRole::kContentPeer:
        ++sample.content_peers;
        ++petal_sizes[{session->website(), session->locality()}];
        break;
      case FlowerRole::kDirectoryPeer:
        ++sample.directory_peers;
        dir_loads.push_back(session->view().size());
        sample.max_instance =
            std::max(sample.max_instance, session->instance());
        break;
    }
  }
  std::vector<uint64_t> petals;
  petals.reserve(petal_sizes.size());
  for (const auto& [key, size] : petal_sizes) petals.push_back(size);
  sample.directory_load = DistSummary::FromValues(std::move(dir_loads));
  sample.petal_size = DistSummary::FromValues(std::move(petals));
  return sample;
}

FlowerPeer* FlowerSystem::CreateSession(PeerId peer) {
  ExperimentEnv::Identity& identity = env_->identity(peer);
  std::unique_ptr<FlowerPeer>& slot = sessions_[peer];
  FLOWERCDN_CHECK(slot == nullptr) << "peer " << peer << " already online";
  slot = std::make_unique<FlowerPeer>(ctx_, peer, identity.website,
                                      identity.locality, &identity.store,
                                      env_->MakePeerRng(peer));
  ++live_sessions_;
  return slot.get();
}

void FlowerSystem::OnArrival(PeerId peer) {
  if (!env_->config().retain_cache_on_rejoin) {
    env_->identity(peer).store = ContentStore();
  }
  CreateSession(peer)->StartAsClient();
}

void FlowerSystem::OnFailure(PeerId peer) { DestroySession(peer); }

void FlowerSystem::DestroySession(PeerId peer) {
  FlowerPeer* session = this->session(peer);
  if (session == nullptr) return;
  if (session->role() == FlowerRole::kDirectoryPeer) {
    max_observed_directory_load_ =
        std::max(max_observed_directory_load_, session->view().size());
    max_observed_instance_ =
        std::max(max_observed_instance_, session->instance());
  }
  RegistryRemove(peer);
  if (env_->network().IsAlive(peer)) env_->network().Detach(peer);
  sessions_[peer].reset();
  --live_sessions_;
}

PeerId FlowerSystem::PickDirectoryBootstrap(PeerId self) {
  // Up to a few tries: the registry is pruned lazily on failures, so every
  // entry should be alive, but protect against same-event races.
  for (int attempt = 0; attempt < 5 && !dir_registry_.empty(); ++attempt) {
    PeerId candidate = dir_registry_[rng_.Index(dir_registry_.size())];
    if (candidate != self && env_->network().IsAlive(candidate)) {
      return candidate;
    }
  }
  return kInvalidPeer;
}

void FlowerSystem::OnRoleChange(PeerId peer, FlowerRole role) {
  if (role == FlowerRole::kDirectoryPeer) {
    RegistryAdd(peer);
  } else {
    RegistryRemove(peer);
  }
}

void FlowerSystem::RegistryAdd(PeerId peer) {
  if (dir_registry_index_.count(peer) > 0) return;
  dir_registry_index_[peer] = dir_registry_.size();
  dir_registry_.push_back(peer);
}

void FlowerSystem::RegistryRemove(PeerId peer) {
  auto it = dir_registry_index_.find(peer);
  if (it == dir_registry_index_.end()) return;
  size_t idx = it->second;
  PeerId moved = dir_registry_.back();
  dir_registry_[idx] = moved;
  dir_registry_index_[moved] = idx;
  dir_registry_.pop_back();
  dir_registry_index_.erase(peer);
}

void FlowerSystem::ScheduleLoadSampling() {
  env_->sim().Schedule(load_sample_period_, [this]() {
    LoadSample sample;
    sample.time = env_->sim().now();
    size_t total_load = 0;
    for (const auto& session : sessions_) {
      if (session == nullptr ||
          session->role() != FlowerRole::kDirectoryPeer) {
        continue;
      }
      ++sample.directory_count;
      size_t load = session->view().size();
      total_load += load;
      sample.max_load = std::max(sample.max_load, load);
      sample.max_instance = std::max(sample.max_instance,
                                     session->instance());
    }
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
  stats.live_sessions = live_sessions_;
  stats.max_observed_directory_load = max_observed_directory_load_;
  stats.max_observed_instance = max_observed_instance_;
  for (const auto& session : sessions_) {
    if (session != nullptr && session->role() == FlowerRole::kDirectoryPeer) {
      ++stats.live_directories;
      stats.max_observed_directory_load = std::max(
          stats.max_observed_directory_load, session->view().size());
      stats.max_observed_instance =
          std::max(stats.max_observed_instance, session->instance());
    }
  }
  return stats;
}

FlowerPeer* FlowerSystem::FindDirectory(WebsiteId ws, LocalityId loc,
                                        int instance) {
  for (PeerId peer : dir_registry_) {
    FlowerPeer* s = session(peer);
    if (s == nullptr) continue;
    if (s->role() == FlowerRole::kDirectoryPeer && s->website() == ws &&
        s->locality() == loc && s->instance() == instance) {
      return s;
    }
  }
  return nullptr;
}

FlowerPeer* FlowerSystem::session(PeerId peer) {
  return peer < sessions_.size() ? sessions_[peer].get() : nullptr;
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
  FlowerPeer* leaving = session(peer);
  if (leaving == nullptr) return;
  leaving->LeaveGracefully();
  DestroySession(peer);
}

}  // namespace flowercdn
