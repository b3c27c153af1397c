#include "flower/flower_peer.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace flowercdn {

const char* FlowerRoleName(FlowerRole role) {
  switch (role) {
    case FlowerRole::kClient:
      return "client";
    case FlowerRole::kContentPeer:
      return "content-peer";
    case FlowerRole::kDirectoryPeer:
      return "directory-peer";
  }
  return "?";
}

const char* ServedSourceName(ServedSource source) {
  switch (source) {
    case ServedSource::kOrigin:
      return "origin";
    case ServedSource::kPetal:
      return "petal";
    case ServedSource::kDirectory:
      return "directory";
  }
  return "?";
}

FlowerPeer::FlowerPeer(const FlowerContext& ctx, PeerId self,
                       WebsiteId website, LocalityId locality,
                       ContentStore* store, Rng rng)
    : ctx_(&ctx),
      self_(self),
      website_(website),
      locality_(locality),
      store_(store),
      rng_(rng),
      rpc_(ctx.network, self),
      resolver_(ctx.network, self),
      view_(/*capacity=*/0) {
  FLOWERCDN_CHECK(ctx.network != nullptr);
  FLOWERCDN_CHECK(ctx.params != nullptr);
  FLOWERCDN_CHECK(ctx.keyspace != nullptr);
  FLOWERCDN_CHECK(store != nullptr);
  FLOWERCDN_CHECK(ctx.stats != nullptr);
  // The round counters export a zero before the first round fires.
  for (std::string_view round :
       {"flower.gossip.rounds", "flower.keepalive.rounds",
        "flower.push.rounds"}) {
    ctx_->stats->counter(round);
  }
}

// --- Common plumbing ---------------------------------------------------------

void FlowerPeer::Attach() {
  incarnation_ = ctx_->network->Attach(self_, this);
  rpc_.Bind(incarnation_);
  resolver_.Bind(incarnation_);
}

ChordNode* FlowerPeer::EnsureChord(ChordId ring_id) {
  if (chord_ != nullptr) {
    if (chord_->id() == ring_id) return chord_.get();
    if (chord_->state() != ChordNode::State::kIdle) {
      FLOWERCDN_LOG(kWarning) << "peer " << self_
                              << ": chord busy, cannot retarget ring id";
      return nullptr;
    }
  }
  chord_ = std::make_unique<ChordNode>(ctx_->network, self_, ring_id,
                                       ctx_->params->chord);
  chord_->Bind(incarnation_);
  chord_->on_duplicate_id = [this]() { DemoteToContentPeer(); };
  chord_->on_ring_broken = [this]() {
    // All successor candidates lost: rebuild membership asynchronously
    // (we may be deep inside chord internals right now).
    ctx_->network->SchedulePeer(self_, incarnation_, 1, [this]() {
      // Only the first of several reports rebuilds: a second join while
      // the first is in flight would leave its lookup behind, and the next
      // Leave would fail it and demote a peer that is back in the ring.
      if (role_ != FlowerRole::kDirectoryPeer || chord_ == nullptr ||
          !chord_->active()) {
        return;
      }
      PeerId bootstrap = PickBootstrap();
      chord_->Leave();
      if (bootstrap == kInvalidPeer) {
        DemoteToContentPeer();
        return;
      }
      chord_->Join(bootstrap, [this](const Status& status) {
        if (!status.ok()) DemoteToContentPeer();
      });
    });
  };
  return chord_.get();
}

PeerId FlowerPeer::PickBootstrap() {
  return ctx_->pick_dring_bootstrap ? ctx_->pick_dring_bootstrap(self_)
                                   : kInvalidPeer;
}

void FlowerPeer::TraceSpan(uint64_t trace_id, QueryPhase phase, SimTime start,
                           PeerId target, int hops, bool ok) {
  if (ctx_->trace == nullptr || trace_id == 0) return;
  ctx_->trace->AddSpan(trace_id, phase, start, ctx_->network->sim()->now(),
                      target, hops, ok);
}

// --- Session entry points ------------------------------------------------------

void FlowerPeer::StartAsClient() {
  Attach();
  role_ = FlowerRole::kClient;
  if (ctx_->on_role_change) ctx_->on_role_change(self_, role_);
  if (ctx_->catalog->IsActive(website_)) {
    // The first query doubles as the petal-admission request.
    StartQueryingIfActive();
  } else {
    // Non-active websites still join their petal right away ("a peer
    // belonging to a non-active website is simply added to its petal upon
    // its arrival", §6.1) and take part in maintenance.
    SimDuration delay = 1 + static_cast<SimDuration>(
                                rng_.NextBounded(30 * kSecond));
    ctx_->network->SchedulePeer(self_, incarnation_, delay, [this]() {
      if (role_ != FlowerRole::kClient) return;
      QueryState join_only;
      join_only.has_object = false;
      join_only.via_dring = true;
      join_only.t0 = ctx_->network->sim()->now();
      ResolveViaDRing(join_only);
    });
  }
}

void FlowerPeer::StartAsDirectory(int instance,
                                  std::optional<PeerId> bootstrap) {
  Attach();
  role_ = FlowerRole::kDirectoryPeer;  // provisional until the ring accepts
  instance_ = instance;
  EnsureDirectoryState();
  ChordNode* chord =
      EnsureChord(ctx_->keyspace->IdOf(website_, locality_, instance));
  FLOWERCDN_CHECK(chord != nullptr);
  if (!bootstrap.has_value()) {
    chord->CreateRing();
    BecomeDirectory(instance);
    StartQueryingIfActive();
    return;
  }
  chord->Join(*bootstrap, [this, instance](const Status& status) {
    if (status.ok()) {
      BecomeDirectory(instance);
      StartQueryingIfActive();
      return;
    }
    // Initial setup should not race; retry through any live member.
    ctx_->network->SchedulePeer(
        self_, incarnation_, ctx_->params->join_retry_delay,
        [this, instance]() {
          PeerId next = PickBootstrap();
          if (next == kInvalidPeer) return;
          StartAsDirectoryRetry(instance, next);
        });
  });
}

void FlowerPeer::StartAsDirectoryRetry(int instance, PeerId bootstrap) {
  ChordNode* chord =
      EnsureChord(ctx_->keyspace->IdOf(website_, locality_, instance));
  if (chord == nullptr) return;
  chord->Join(bootstrap, [this, instance](const Status& status) {
    if (status.ok()) {
      BecomeDirectory(instance);
      StartQueryingIfActive();
    }
  });
}

void FlowerPeer::LeaveGracefully() {
  if (role_ == FlowerRole::kDirectoryPeer) {
    // §5.2.2: transfer a copy of view and directory-index to the successor
    // content peer before departing.
    std::optional<Contact> heir;
    for (const Contact& c : view_.contacts()) {
      if (!heir.has_value() || c.age < heir->age) heir = c;
    }
    if (heir.has_value()) {
      auto handoff = std::make_unique<FlowerDirHandoffMsg>();
      handoff->website = website_;
      handoff->locality = locality_;
      handoff->instance = instance_;
      handoff->view = view_.contacts();
      handoff->index = dir_->index.TakeSnapshot();
      ctx_->network->Send(self_, heir->peer, std::move(handoff));
    }
    if (chord_ != nullptr) chord_->Leave();
  }
  // Content peers leave silently; gossip ages them out of the petal.
}

// --- Query client machinery ------------------------------------------------

void FlowerPeer::StartQueryingIfActive() {
  if (querying_) return;
  if (!ctx_->catalog->IsActive(website_)) return;
  querying_ = true;
  ScheduleNextQuery();
}

void FlowerPeer::ScheduleNextQuery() {
  SimDuration gap = ctx_->workload->NextQueryGap(website_, rng_);
  ctx_->network->SchedulePeer(self_, incarnation_, gap,
                             [this]() { IssueQuery(); });
}

void FlowerPeer::IssueQuery() {
  std::optional<ObjectId> object =
      ctx_->workload->NextQuery(website_, *store_, rng_);
  if (!object.has_value()) return;  // interest set exhausted
  ctx_->stats->Add("flower.queries_issued");
  QueryState q;
  q.object = *object;
  q.has_object = true;
  q.t0 = ctx_->network->sim()->now();
  if (ctx_->trace != nullptr) {
    q.trace_id =
        ctx_->trace->BeginQuery(self_, q.object.website, q.object.object, q.t0,
                               /*from_new_client=*/role_ ==
                                   FlowerRole::kClient);
    q.tctx.trace_id = ctx_->trace->DistributedIdOf(q.trace_id);
    q.tctx.span_id = q.tctx.trace_id;
  }
  switch (role_) {
    case FlowerRole::kClient:
      q.via_dring = true;
      ResolveViaDRing(q);
      break;
    case FlowerRole::kContentPeer:
      ResolveAsContentPeer(q);
      break;
    case FlowerRole::kDirectoryPeer:
      ResolveAsDirectory(q);
      break;
  }
}

void FlowerPeer::QueryExternal(const ObjectId& object,
                               ExternalQueryCallback cb) {
  if (store_->Contains(object)) {
    // The surrogate itself caches the object: a petal hit with no protocol
    // traffic at all — the common case for hot objects once warmed up, and
    // what keeps a loaded gateway off the overlay's hot path.
    QueryRecord record;
    record.issued_at = ctx_->network->sim()->now();
    record.hit = true;
    record.lookup_latency_ms = 0;
    record.transfer_distance_ms = 0;
    record.from_new_client = false;
    if (ctx_->metrics != nullptr) ctx_->metrics->RecordQuery(record);
    cb(/*hit=*/true, ServedSource::kPetal, /*latency_ms=*/0);
    return;
  }
  ctx_->stats->Add("flower.queries_issued");
  QueryState q;
  q.object = object;
  q.has_object = true;
  q.t0 = ctx_->network->sim()->now();
  q.external_id = next_external_id_++;
  external_queries_.emplace(q.external_id, std::move(cb));
  if (ctx_->trace != nullptr) {
    q.trace_id = ctx_->trace->BeginQuery(self_, object.website, object.object,
                                        q.t0, /*from_new_client=*/role_ ==
                                            FlowerRole::kClient);
    q.tctx.trace_id = ctx_->trace->DistributedIdOf(q.trace_id);
    q.tctx.span_id = q.tctx.trace_id;
  }
  switch (role_) {
    case FlowerRole::kClient:
      q.via_dring = true;
      ResolveViaDRing(q);
      break;
    case FlowerRole::kContentPeer:
      ResolveAsContentPeer(q);
      break;
    case FlowerRole::kDirectoryPeer:
      ResolveAsDirectory(q);
      break;
  }
}

void FlowerPeer::ResolveViaDRing(QueryState q) {
  // Messages issued below (Chord resolve steps, retries from timeout
  // callbacks) carry the query's distributed trace context.
  NetworkTraceScope trace_scope(ctx_->network, q.tctx);
  ++q.dring_attempts;
  PeerId bootstrap = PickBootstrap();
  if (bootstrap == kInvalidPeer) {
    // Nobody reachable on the D-ring at all: serve from origin and retry
    // petal admission later.
    if (q.has_object) ResolveAtOrigin(q);
    if (role_ == FlowerRole::kClient) {
      ctx_->network->SchedulePeer(self_, incarnation_,
                                 ctx_->params->join_retry_delay, [this]() {
                                   if (role_ != FlowerRole::kClient) return;
                                   QueryState join_only;
                                   join_only.has_object = false;
                                   join_only.via_dring = true;
                                   join_only.t0 = ctx_->network->sim()->now();
                                   ResolveViaDRing(join_only);
                                 });
    }
    return;
  }
  ChordId target = ctx_->keyspace->IdOf(website_, locality_, 0);
  SimTime span_start = ctx_->network->sim()->now();
  resolver_.Resolve(
      bootstrap, target, ctx_->params->chord.lookup_timeout,
      [this, q, bootstrap, span_start](const Status& status, RingPeer owner,
                                       int hops) mutable {
        TraceSpan(q.trace_id, QueryPhase::kDRingResolve, span_start,
                  status.ok() ? owner.peer : bootstrap, hops, status.ok());
        if (!status.ok()) {
          ctx_->stats->Add("flower.dring_resolve_failures");
          if (q.dring_attempts < ctx_->params->max_client_lookup_attempts) {
            ResolveViaDRing(q);
          } else if (q.has_object) {
            ResolveAtOrigin(q);
          }
          return;
        }
        SendDirQuery(owner.peer, q, /*wants_join=*/role_ ==
                                        FlowerRole::kClient);
      });
}

void FlowerPeer::SendDirQuery(PeerId dir, QueryState q, bool wants_join) {
  NetworkTraceScope trace_scope(ctx_->network, q.tctx);
  auto msg = std::make_unique<FlowerDirQueryMsg>();
  msg->website = website_;
  msg->locality = locality_;
  msg->has_object = q.has_object;
  if (q.has_object) msg->object = q.object;
  msg->wants_join = wants_join;
  msg->scan_hops = q.scan_hops;
  SimTime span_start = ctx_->network->sim()->now();
  rpc_.Call(dir, std::move(msg), ctx_->params->rpc_timeout,
            [this, dir, q, wants_join, span_start](const Status& status,
                                                   MessagePtr resp) mutable {
              TraceSpan(q.trace_id, QueryPhase::kDirQuery, span_start, dir,
                        /*hops=*/-1, status.ok());
              if (!status.ok()) {
                ctx_->stats->Add("flower.dir_query_timeouts");
                if (role_ == FlowerRole::kClient) {
                  if (q.dring_attempts <
                      ctx_->params->max_client_lookup_attempts) {
                    ResolveViaDRing(q);
                  } else if (q.has_object) {
                    ResolveAtOrigin(q);
                  }
                } else {
                  // Our own directory stopped answering: first-detector
                  // replacement (§5.2.1).
                  if (dir == dir_info_.dir) OnDirectoryUnreachable();
                  if (q.has_object) ResolveAtOrigin(q);
                }
                return;
              }
              PeerId responder = resp->src;
              HandleDirReply(q, dir, responder,
                             MessageCast<FlowerDirQueryReplyMsg>(*resp),
                             wants_join);
            });
}

void FlowerPeer::HandleDirReply(QueryState q, PeerId dir, PeerId responder,
                                const FlowerDirQueryReplyMsg& reply,
                                bool wants_join) {
  if (reply.admitted && role_ == FlowerRole::kClient) {
    DirInfo info;
    info.dir = dir;
    info.instance = reply.instance;
    info.age = 0;
    BecomeContentPeer(info, reply.view_seed);
  }
  switch (reply.result) {
    case DirQueryResult::kProvider:
      if (!q.has_object) return;
      if (responder == reply.provider) {
        // The provider itself confirmed possession (directory forwarding,
        // §3.2): the object is already on its way — done.
        q.source = ServedSource::kDirectory;
        FinishQuery(q, /*hit=*/true, ctx_->network->sim()->now(),
                    ctx_->network->LatencyMs(self_, reply.provider));
        return;
      }
      FetchFrom(reply.provider, q);
      return;
    case DirQueryResult::kMiss:
      if (!q.has_object) return;
      ResolveAtOrigin(q);
      return;
    case DirQueryResult::kForward:
      ++q.scan_hops;
      if (reply.forward_to == kInvalidPeer ||
          q.scan_hops > ctx_->params->max_scan_hops) {
        if (q.has_object) ResolveAtOrigin(q);
        return;
      }
      SendDirQuery(reply.forward_to, q, wants_join);
      return;
    case DirQueryResult::kVacant:
      ctx_->stats->Add("flower.dir_reply_vacant");
      if (role_ == FlowerRole::kClient) {
        // First participant for this petal (or all directories died):
        // claim the position ourselves (§5.2.2 case 2).
        AttemptDirectoryClaim(0);
      } else if (role_ == FlowerRole::kContentPeer &&
                 dir == dir_info_.dir) {
        dir_info_.dir = kInvalidPeer;
        AttemptDirectoryClaim(dir_info_.instance);
      }
      if (q.has_object) ResolveAtOrigin(q);
      return;
  }
}

void FlowerPeer::ResolveAsContentPeer(QueryState q) {
  // Stage 1 (§3.1): gossip-learned content summaries point at close-by
  // providers inside the petal.
  uint64_t packed = q.object.Packed();
  std::vector<PeerId> candidates;
  for (const Contact& c : view_.contacts()) {
    auto it = summaries_.find(c.peer);
    if (it != summaries_.end() && it->second.MayContain(packed)) {
      candidates.push_back(c.peer);
    }
  }
  rng_.Shuffle(candidates);
  if (candidates.size() >
      static_cast<size_t>(ctx_->params->max_summary_probes)) {
    candidates.resize(ctx_->params->max_summary_probes);
  }
  TrySummaryCandidates(std::move(q), std::move(candidates), 0);
}

void FlowerPeer::TrySummaryCandidates(QueryState q,
                                      std::vector<PeerId> candidates,
                                      size_t index) {
  if (index >= candidates.size()) {
    AskOwnDirectory(q);
    return;
  }
  PeerId provider = candidates[index];
  NetworkTraceScope trace_scope(ctx_->network, q.tctx);
  auto msg = std::make_unique<FlowerFetchMsg>();
  msg->object = q.object;
  SimTime span_start = ctx_->network->sim()->now();
  rpc_.Call(provider, std::move(msg), ctx_->params->rpc_timeout,
            [this, q, candidates = std::move(candidates), index, provider,
             span_start](const Status& status, MessagePtr resp) mutable {
              bool served = status.ok() &&
                            MessageCast<FlowerFetchReplyMsg>(*resp)
                                .has_object;
              TraceSpan(q.trace_id, QueryPhase::kSummaryProbe, span_start,
                        provider, /*hops=*/-1, served);
              if (served) {
                ctx_->stats->Add("flower.summary_hits");
                q.source = ServedSource::kPetal;
                FinishQuery(q, /*hit=*/true, ctx_->network->sim()->now(),
                            ctx_->network->LatencyMs(self_, provider));
                return;
              }
              if (!status.ok()) {
                // Unavailable contact: expel it (bounds the view, §6.1).
                view_.Remove(provider);
                summaries_.erase(provider);
              }
              TrySummaryCandidates(std::move(q), std::move(candidates),
                                   index + 1);
            });
}

void FlowerPeer::AskOwnDirectory(QueryState q) {
  if (dir_info_.dir == kInvalidPeer) {
    AttemptDirectoryClaim(dir_info_.instance);
    if (q.has_object) ResolveAtOrigin(q);
    return;
  }
  SendDirQuery(dir_info_.dir, q, /*wants_join=*/false);
}

void FlowerPeer::ResolveAsDirectory(QueryState q) {
  NetworkTraceScope trace_scope(ctx_->network, q.tctx);
  std::optional<PeerId> provider = FindProviderLocally(q.object, self_);
  if (provider.has_value() && *provider != self_) {
    FetchFrom(*provider, q);
    return;
  }
  if (ctx_->params->enable_dir_collaboration) {
    std::optional<PeerId> neighbor = SameWebsiteNeighborDir();
    if (neighbor.has_value()) {
      auto probe = std::make_unique<FlowerDirProbeMsg>();
      probe->object = q.object;
      PeerId probed = *neighbor;
      SimTime span_start = ctx_->network->sim()->now();
      rpc_.Call(*neighbor, std::move(probe), ctx_->params->rpc_timeout,
                [this, q, probed, span_start](const Status& status,
                                              MessagePtr resp) mutable {
                  TraceSpan(q.trace_id, QueryPhase::kDirQuery, span_start,
                            probed, /*hops=*/-1, status.ok());
                  if (status.ok()) {
                    const auto& reply =
                        MessageCast<FlowerDirProbeReplyMsg>(*resp);
                    if (reply.has_provider && reply.provider != self_) {
                      ctx_->stats->Add("flower.collaboration_hits");
                      FetchFrom(reply.provider, q);
                      return;
                    }
                  }
                  ResolveAtOrigin(q);
                });
      return;
    }
  }
  ResolveAtOrigin(q);
}

void FlowerPeer::FetchFrom(PeerId provider, QueryState q) {
  if (provider == kInvalidPeer || provider == self_) {
    ResolveAtOrigin(q);
    return;
  }
  NetworkTraceScope trace_scope(ctx_->network, q.tctx);
  auto msg = std::make_unique<FlowerFetchMsg>();
  msg->object = q.object;
  SimTime span_start = ctx_->network->sim()->now();
  rpc_.Call(provider, std::move(msg), ctx_->params->rpc_timeout,
            [this, q, provider, span_start](const Status& status,
                                            MessagePtr resp) mutable {
              bool served = status.ok() &&
                            MessageCast<FlowerFetchReplyMsg>(*resp)
                                .has_object;
              TraceSpan(q.trace_id, QueryPhase::kFetch, span_start, provider,
                        /*hops=*/-1, served);
              if (served) {
                q.source = ServedSource::kDirectory;
                FinishQuery(q, /*hit=*/true, ctx_->network->sim()->now(),
                            ctx_->network->LatencyMs(self_, provider));
              } else {
                ResolveAtOrigin(q);
              }
            });
}

void FlowerPeer::ResolveAtOrigin(QueryState q) {
  if (!q.has_object) return;
  Coord here = ctx_->network->CoordOf(self_);
  double distance = ctx_->origins->DistanceMs(here, q.object.website);
  // Origin fetch is modeled as pure distance, not simulated time — the span
  // is zero-length and marks when the overlay gave up.
  TraceSpan(q.trace_id, QueryPhase::kOrigin, ctx_->network->sim()->now(),
            kInvalidPeer);
  FinishQuery(q, /*hit=*/false, ctx_->network->sim()->now(), distance);
}

void FlowerPeer::FinishQuery(const QueryState& q, bool hit,
                             SimTime resolved_at,
                             double transfer_distance_ms) {
  if (!q.has_object) return;
  QueryRecord record;
  record.issued_at = q.t0;
  record.hit = hit;
  record.lookup_latency_ms = static_cast<double>(resolved_at - q.t0);
  record.transfer_distance_ms = transfer_distance_ms;
  record.from_new_client = q.via_dring;
  if (ctx_->metrics != nullptr) ctx_->metrics->RecordQuery(record);
  if (ctx_->trace != nullptr && q.trace_id != 0) {
    ctx_->trace->EndQuery(q.trace_id, resolved_at, hit);
  }
  store_->Insert(q.object);
  MaybePush();
  if (q.external_id != 0) {
    // Externally submitted (gateway) query: report the outcome to the
    // driver instead of pacing the workload loop.
    auto it = external_queries_.find(q.external_id);
    if (it != external_queries_.end()) {
      ExternalQueryCallback cb = std::move(it->second);
      external_queries_.erase(it);
      cb(hit, hit ? q.source : ServedSource::kOrigin,
         record.lookup_latency_ms);
    }
    return;
  }
  ScheduleNextQuery();
}

// --- Content-peer machinery ----------------------------------------------------

void FlowerPeer::BecomeContentPeer(const DirInfo& info,
                                   const std::vector<Contact>& view_seed) {
  role_ = FlowerRole::kContentPeer;
  dir_info_ = info;
  dir_info_.age = 0;
  view_.Merge(view_seed, self_);
  if (ctx_->on_role_change) ctx_->on_role_change(self_, role_);
  // Desynchronize periodic rounds across the petal.
  SimDuration period = ctx_->params->gossip_period;
  ScheduleGossip(period / 2 +
                 static_cast<SimDuration>(rng_.NextBounded(period / 2 + 1)));
  ScheduleKeepalive(period / 2 +
                    static_cast<SimDuration>(rng_.NextBounded(period / 2 + 1)));
  // Register retained cache content with the directory right away — this is
  // what lets a replacement directory rebuild its index quickly.
  if (!store_->empty()) {
    DoPush();
  }
}

void FlowerPeer::ScheduleGossip(SimDuration delay) {
  if (gossip_scheduled_) return;
  gossip_scheduled_ = true;
  ctx_->network->SchedulePeer(self_, incarnation_, delay, [this]() {
    gossip_scheduled_ = false;
    if (role_ != FlowerRole::kContentPeer) return;
    GossipRound();
    ScheduleGossip(ctx_->params->gossip_period);
  });
}

void FlowerPeer::GossipRound() {
  ctx_->stats->Add("flower.gossip.rounds");
  view_.AgeAll();
  ++dir_info_.age;
  std::optional<Contact> partner = view_.Oldest();
  if (!partner.has_value()) return;
  PeerId q = partner->peer;
  auto msg = std::make_unique<FlowerGossipMsg>();
  msg->contacts = view_.RandomSubset(ctx_->params->gossip_fanout - 1, rng_, q);
  msg->contacts.push_back(Contact{self_, 0});
  msg->summary = store_->BuildSummary(ctx_->params->summary_fp_rate);
  msg->dir_info = dir_info_;
  rpc_.Call(q, std::move(msg), ctx_->params->rpc_timeout,
            [this, q](const Status& status, MessagePtr resp) {
              if (!status.ok()) {
                // Unavailable gossip partner: drop it from the view.
                view_.Remove(q);
                summaries_.erase(q);
                return;
              }
              const auto& reply = MessageCast<FlowerGossipReplyMsg>(*resp);
              MergeGossip(q, reply.contacts, reply.summary, reply.dir_info);
            });
}

void FlowerPeer::ScheduleKeepalive(SimDuration delay) {
  if (keepalive_scheduled_) return;
  keepalive_scheduled_ = true;
  ctx_->network->SchedulePeer(self_, incarnation_, delay, [this]() {
    keepalive_scheduled_ = false;
    if (role_ != FlowerRole::kContentPeer) return;
    KeepaliveRound();
    ScheduleKeepalive(ctx_->params->gossip_period);
  });
}

void FlowerPeer::KeepaliveRound() {
  ctx_->stats->Add("flower.keepalive.rounds");
  if (dir_info_.dir == kInvalidPeer) {
    AttemptDirectoryClaim(dir_info_.instance);
    return;
  }
  auto msg = std::make_unique<FlowerKeepaliveMsg>();
  rpc_.Call(dir_info_.dir, std::move(msg), ctx_->params->rpc_timeout,
            [this](const Status& status, MessagePtr resp) {
              if (!status.ok()) {
                OnDirectoryUnreachable();
                return;
              }
              const auto& reply =
                  MessageCast<FlowerKeepaliveReplyMsg>(*resp);
              if (!reply.accepted) {
                dir_info_.dir = kInvalidPeer;
                AttemptDirectoryClaim(dir_info_.instance);
                return;
              }
              dir_info_.age = 0;
              dir_info_.instance = reply.instance;
              MaybePush();
            });
}

void FlowerPeer::MaybePush() {
  if (role_ != FlowerRole::kContentPeer) return;
  if (push_in_flight_) return;
  if (store_->ChangeFraction() < ctx_->params->push_threshold) return;
  DoPush();
}

void FlowerPeer::DoPush() {
  if (role_ != FlowerRole::kContentPeer) return;
  if (dir_info_.dir == kInvalidPeer || push_in_flight_) return;
  push_in_flight_ = true;
  ctx_->stats->Add("flower.push.rounds");
  auto msg = std::make_unique<FlowerPushMsg>();
  msg->objects = store_->ObjectList();
  rpc_.Call(dir_info_.dir, std::move(msg), ctx_->params->rpc_timeout,
            [this](const Status& status, MessagePtr resp) {
              push_in_flight_ = false;
              if (!status.ok()) {
                OnDirectoryUnreachable();
                return;
              }
              const auto& reply = MessageCast<FlowerPushReplyMsg>(*resp);
              if (!reply.accepted) {
                dir_info_.dir = kInvalidPeer;
                AttemptDirectoryClaim(dir_info_.instance);
                return;
              }
              dir_info_.age = 0;
              dir_info_.instance = reply.instance;
              store_->MarkPushed();
            });
}

void FlowerPeer::MergeGossip(PeerId from, const std::vector<Contact>& contacts,
                             const BloomFilter& summary,
                             const DirInfo& their_info) {
  if (role_ == FlowerRole::kContentPeer) {
    view_.Merge(contacts, self_);
    view_.Upsert(Contact{from, 0});
  } else if (view_.Contains(from)) {
    view_.Upsert(Contact{from, 0});
  }
  summaries_[from] = summary;
  ReconcileDirInfo(their_info);
}

void FlowerPeer::ReconcileDirInfo(const DirInfo& theirs) {
  // §5.1: exchanged dir-info is only comparable between content peers bound
  // to the same directory instance; the fresher (smaller age) wins.
  if (role_ != FlowerRole::kContentPeer) return;
  if (theirs.dir == kInvalidPeer) return;
  if (theirs.instance != dir_info_.instance) return;
  if (theirs.dir == dir_info_.dir) {
    dir_info_.age = std::min(dir_info_.age, theirs.age);
  } else if (dir_info_.dir == kInvalidPeer || theirs.age < dir_info_.age) {
    dir_info_ = theirs;
  }
}

void FlowerPeer::OnDirectoryUnreachable() {
  ctx_->stats->Add("flower.dir_failures_detected");
  dir_info_.dir = kInvalidPeer;
  if (ReplicationActive()) {
    // Give the replica failover a head start: a cold vacancy-claim that
    // wins the race installs an empty index at the position, and the warm
    // heir then merely adopts it — the replicated state is lost. Defer the
    // claim past the failover window; if no heir appeared by then (petal
    // had no live replica), the classic claim still repairs the petal.
    SimDuration grace =
        static_cast<SimDuration>(ctx_->params->replica_failover_misses + 2) *
        ctx_->params->replica_sync_period;
    int instance = dir_info_.instance;
    ctx_->network->SchedulePeer(
        self_, incarnation_, grace, [this, instance]() {
          if (role_ == FlowerRole::kDirectoryPeer) return;
          if (dir_info_.dir != kInvalidPeer) return;  // repaired meanwhile
          AttemptDirectoryClaim(instance);
        });
    return;
  }
  AttemptDirectoryClaim(dir_info_.instance);
}

void FlowerPeer::AttemptDirectoryClaim(
    int instance, std::optional<FlowerDirHandoffMsg> handoff) {
  if (claim_in_progress_ || role_ == FlowerRole::kDirectoryPeer) return;
  if (instance < 0 || instance >= ctx_->keyspace->max_instances()) return;
  PeerId bootstrap = PickBootstrap();
  if (bootstrap == kInvalidPeer) {
    // The bootstrap service knows no live D-ring member: the whole ring is
    // gone. Re-create it — this peer becomes the first directory again.
    ChordId target = ctx_->keyspace->IdOf(website_, locality_, instance);
    ChordNode* chord = EnsureChord(target);
    if (chord == nullptr) return;
    chord->CreateRing();
    BecomeDirectory(instance);
    if (handoff.has_value()) {
      dir_->index.Restore(handoff->index);
      view_.Merge(handoff->view, self_);
    }
    return;
  }
  claim_in_progress_ = true;
  ChordId target = ctx_->keyspace->IdOf(website_, locality_, instance);
  resolver_.Resolve(
      bootstrap, target, ctx_->params->chord.lookup_timeout,
      [this, instance, target, handoff = std::move(handoff)](
          const Status& status, RingPeer owner, int /*hops*/) {
        if (!status.ok()) {
          claim_in_progress_ = false;
          return;  // retried at the next keepalive round
        }
        if (owner.id == target && owner.peer != self_) {
          // Somebody already replaced the directory: adopt it and
          // re-register our content.
          claim_in_progress_ = false;
          if (role_ == FlowerRole::kContentPeer) {
            dir_info_.dir = owner.peer;
            dir_info_.instance = instance;
            dir_info_.age = 0;
            DoPush();
          } else if (role_ == FlowerRole::kClient) {
            QueryState join_only;
            join_only.has_object = false;
            join_only.via_dring = true;
            join_only.t0 = ctx_->network->sim()->now();
            SendDirQuery(owner.peer, join_only, /*wants_join=*/true);
          }
          return;
        }
        // Vacant: join the D-ring at the deterministic position, using the
        // answering (live) directory peer as bootstrap.
        ChordNode* chord = EnsureChord(target);
        if (chord == nullptr || owner.peer == self_ ||
            owner.peer == kInvalidPeer) {
          claim_in_progress_ = false;
          return;
        }
        chord->Join(owner.peer, [this, instance, handoff = std::move(handoff)](
                                    const Status& join_status) {
          claim_in_progress_ = false;
          if (!join_status.ok()) {
            // Lost the race (§5.2.2): the winner is discovered through the
            // next keepalive/query resolution.
            return;
          }
          BecomeDirectory(instance);
          if (handoff.has_value()) {
            dir_->index.Restore(handoff->index);
            view_.Merge(handoff->view, self_);
          }
        });
      });
}

void FlowerPeer::DemoteToContentPeer() {
  if (role_ != FlowerRole::kDirectoryPeer) return;
  role_ = FlowerRole::kContentPeer;
  dir_->index.Clear();
  ResetReplicaSource();
  dir_info_.dir = kInvalidPeer;
  dir_info_.age = 0;
  if (ctx_->on_role_change) ctx_->on_role_change(self_, role_);
  ScheduleGossip(ctx_->params->gossip_period);
  ScheduleKeepalive(ctx_->params->gossip_period / 2);
}

// --- Directory-peer machinery ----------------------------------------------------

void FlowerPeer::BecomeDirectory(int instance) {
  role_ = FlowerRole::kDirectoryPeer;
  instance_ = instance;
  dir_info_.dir = self_;
  dir_info_.instance = instance;
  dir_info_.age = 0;
  EnsureDirectoryState().index.Clear();
  promotion_triggered_at_ = -1;
  // The old content-peer view and summaries are deliberately retained: a
  // fresh directory answers its first queries from gossip-learned summaries
  // while pushes rebuild the index (§5.2.2, §4).
  ScheduleDirectoryMaintenance();
  if (ReplicationActive()) {
    ResetReplicaSource();
    SimDuration period = ctx_->params->replica_sync_period;
    ScheduleReplicaSync(period / 2 +
                        static_cast<SimDuration>(rng_.NextBounded(period / 2 +
                                                                  1)));
  }
  if (ctx_->on_role_change) ctx_->on_role_change(self_, role_);
}

void FlowerPeer::ScheduleDirectoryMaintenance() {
  if (dir_maintenance_scheduled_) return;
  dir_maintenance_scheduled_ = true;
  ctx_->network->SchedulePeer(self_, incarnation_, ctx_->params->gossip_period,
                             [this]() {
                               dir_maintenance_scheduled_ = false;
                               if (role_ != FlowerRole::kDirectoryPeer) return;
                               DirectoryMaintenanceRound();
                               ScheduleDirectoryMaintenance();
                             });
}

void FlowerPeer::DirectoryMaintenanceRound() {
  view_.AgeAll();
  // Expire content peers that stopped sending keepalives/pushes (§5.1).
  std::vector<PeerId> expired;
  for (const Contact& c : view_.contacts()) {
    if (c.age > ctx_->params->view_entry_expiry_rounds) {
      expired.push_back(c.peer);
    }
  }
  for (PeerId peer : expired) {
    view_.Remove(peer);
    summaries_.erase(peer);
    dir_->index.RemovePeer(peer);
    ReplicaRecordRemove(peer);
  }
}

void FlowerPeer::OnDirQuery(MessagePtr msg) {
  std::shared_ptr<FlowerDirQueryMsg> req(
      static_cast<FlowerDirQueryMsg*>(msg.release()));
  AnswerDirQuery(std::move(req));
}

void FlowerPeer::AnswerDirQuery(std::shared_ptr<FlowerDirQueryMsg> req) {
  auto reply = std::make_unique<FlowerDirQueryReplyMsg>();
  reply->instance = instance_;
  if (role_ != FlowerRole::kDirectoryPeer || req->website != website_ ||
      req->locality != locality_) {
    // A fresh replica of the queried petal answers in the primary's stead
    // while a promotion is underway — kVacant here would invite racing
    // vacancy claims that restart with an empty index.
    if (TryAnswerFromReplica(*req, reply.get())) {
      rpc_.Respond(*req, std::move(reply));
      return;
    }
    reply->result = DirQueryResult::kVacant;
    rpc_.Respond(*req, std::move(reply));
    return;
  }
  bool member = view_.Contains(req->src) || dir_->index.ContainsPeer(req->src);
  bool overloaded = view_.size() >= ctx_->params->max_directory_load;
  if (overloaded && !member && ctx_->params->petalup_enabled) {
    std::optional<PeerId> next = NextInstancePeer();
    if (next.has_value() && req->scan_hops < ctx_->params->max_scan_hops) {
      reply->result = DirQueryResult::kForward;
      reply->forward_to = *next;
      rpc_.Respond(*req, std::move(reply));
      return;
    }
    if (instance_ + 1 < ctx_->keyspace->max_instances()) {
      // Final overloaded instance: spawn d^{i+1} (§4) and still process
      // this query ourselves.
      TriggerPromotion();
    }
  }
  if (req->wants_join) {
    // Idempotent admission: re-admitting an already-known peer just
    // refreshes its entry and re-sends the seed (covers clients whose
    // first admission reply raced or was lost).
    AdmitContentPeer(req->src,
                     req->has_object ? std::optional<ObjectId>(req->object)
                                     : std::nullopt);
    reply->admitted = true;
    reply->view_seed =
        view_.RandomSubset(ctx_->params->view_seed_size, rng_, req->src);
  } else if (member) {
    view_.Upsert(Contact{req->src, 0});
    if (req->has_object) {
      dir_->index.Add(req->src, req->object);
      ReplicaRecordAdd(req->src, req->object);
    }
  }
  if (!req->has_object) {
    reply->result = DirQueryResult::kMiss;  // pure admission request
    rpc_.Respond(*req, std::move(reply));
    return;
  }
  std::optional<PeerId> provider = FindProviderLocally(req->object, req->src);
  if (provider.has_value()) {
    if (*provider == self_) {
      // We hold the object ourselves: confirm possession directly.
      reply->result = DirQueryResult::kProvider;
      reply->provider = self_;
      rpc_.Respond(*req, std::move(reply));
      return;
    }
    // §3.2: forward the query to the provider; it answers the client
    // directly (the forwarded message carries the client's correlation and
    // return address).
    auto fwd = std::make_unique<FlowerForwardedQueryMsg>();
    fwd->object = req->object;
    fwd->admitted = reply->admitted;
    fwd->instance = reply->instance;
    fwd->view_seed = reply->view_seed;
    fwd->rpc_id = req->rpc_id;
    ctx_->network->Send(req->src, *provider, std::move(fwd));
    return;
  }
  if (ctx_->params->enable_dir_collaboration) {
    std::optional<PeerId> neighbor = SameWebsiteNeighborDir();
    if (neighbor.has_value()) {
      auto probe = std::make_unique<FlowerDirProbeMsg>();
      probe->object = req->object;
      // The final answer must keep the admission fields intact.
      auto deferred = std::make_shared<FlowerDirQueryReplyMsg>();
      deferred->instance = reply->instance;
      deferred->admitted = reply->admitted;
      deferred->view_seed = reply->view_seed;
      rpc_.Call(*neighbor, std::move(probe), ctx_->params->rpc_timeout,
                [this, req, deferred](const Status& status, MessagePtr resp) {
                  auto reply2 = std::make_unique<FlowerDirQueryReplyMsg>();
                  reply2->instance = deferred->instance;
                  reply2->admitted = deferred->admitted;
                  reply2->view_seed = deferred->view_seed;
                  reply2->result = DirQueryResult::kMiss;
                  if (status.ok()) {
                    const auto& probe_reply =
                        MessageCast<FlowerDirProbeReplyMsg>(*resp);
                    if (probe_reply.has_provider &&
                        probe_reply.provider != req->src) {
                      reply2->result = DirQueryResult::kProvider;
                      reply2->provider = probe_reply.provider;
                      ctx_->stats->Add("flower.collaboration_hits");
                    }
                  }
                  rpc_.Respond(*req, std::move(reply2));
                });
      return;
    }
  }
  reply->result = DirQueryResult::kMiss;
  rpc_.Respond(*req, std::move(reply));
}

std::optional<PeerId> FlowerPeer::FindProviderLocally(const ObjectId& object,
                                                      PeerId exclude) {
  if (store_->Contains(object) && self_ != exclude) {
    // Directory peers cache content like everyone else and may serve it.
    return self_;
  }
  const std::vector<PeerId>& providers = dir_->index.Providers(object);
  std::vector<PeerId> eligible;
  eligible.reserve(providers.size());
  for (PeerId p : providers) {
    if (p != exclude && p != self_) eligible.push_back(p);
  }
  if (!eligible.empty()) return eligible[rng_.Index(eligible.size())];
  // A freshly promoted/replacement directory can still answer from the
  // content summaries it gossiped as a content peer (§5.2.2).
  uint64_t packed = object.Packed();
  for (const auto& [peer, summary] : summaries_) {
    if (peer != exclude && summary.MayContain(packed)) return peer;
  }
  return std::nullopt;
}

void FlowerPeer::AdmitContentPeer(PeerId peer,
                                  std::optional<ObjectId> first_object) {
  view_.Upsert(Contact{peer, 0});
  if (first_object.has_value()) {
    dir_->index.Add(peer, *first_object);
    ReplicaRecordAdd(peer, *first_object);
  }
}

std::optional<PeerId> FlowerPeer::NextInstancePeer() const {
  if (chord_ == nullptr || instance_ + 1 >= ctx_->keyspace->max_instances()) {
    return std::nullopt;
  }
  std::optional<RingPeer> succ = chord_->successor();
  if (!succ.has_value() || succ->peer == self_) return std::nullopt;
  if (succ->id != ctx_->keyspace->IdOf(website_, locality_, instance_ + 1)) {
    return std::nullopt;
  }
  return succ->peer;
}

std::optional<PeerId> FlowerPeer::SameWebsiteNeighborDir() const {
  if (chord_ == nullptr) return std::nullopt;
  auto is_same_site_dir = [this](const std::optional<RingPeer>& p) {
    if (!p.has_value() || p->peer == self_ || p->peer == kInvalidPeer) {
      return false;
    }
    std::optional<DRingKeyspace::Position> pos =
        ctx_->keyspace->PositionOf(p->id);
    return pos.has_value() && pos->website == website_;
  };
  if (is_same_site_dir(chord_->successor())) return chord_->successor()->peer;
  if (is_same_site_dir(chord_->predecessor())) {
    return chord_->predecessor()->peer;
  }
  return std::nullopt;
}

void FlowerPeer::TriggerPromotion() {
  SimTime now = ctx_->network->sim()->now();
  if (promotion_triggered_at_ >= 0 &&
      now - promotion_triggered_at_ < ctx_->params->gossip_period) {
    return;  // a promotion is already underway
  }
  std::optional<Contact> candidate = view_.Random(rng_);
  if (!candidate.has_value()) return;
  promotion_triggered_at_ = now;
  ctx_->stats->Add("flower.promotions");
  auto msg = std::make_unique<FlowerPromoteMsg>();
  msg->website = website_;
  msg->locality = locality_;
  msg->new_instance = instance_ + 1;
  ctx_->network->Send(self_, candidate->peer, std::move(msg));
  // §4: "the replacing content peer is removed from the directory-index."
  dir_->index.RemovePeer(candidate->peer);
  ReplicaRecordRemove(candidate->peer);
  view_.Remove(candidate->peer);
  summaries_.erase(candidate->peer);
}

void FlowerPeer::OnPromote(const FlowerPromoteMsg& msg) {
  if (role_ != FlowerRole::kContentPeer) return;
  if (msg.website != website_ || msg.locality != locality_) return;
  AttemptDirectoryClaim(msg.new_instance);
}

void FlowerPeer::OnPush(const Message& req) {
  const auto& m = MessageCast<FlowerPushMsg>(req);
  auto reply = std::make_unique<FlowerPushReplyMsg>();
  reply->instance = instance_;
  if (role_ == FlowerRole::kDirectoryPeer) {
    reply->accepted = true;
    dir_->index.ReplacePeerObjects(m.src, m.objects);
    ReplicaRecordReplace(m.src, m.objects);
    view_.Upsert(Contact{m.src, 0});
  }
  rpc_.Respond(req, std::move(reply));
}

void FlowerPeer::OnKeepalive(const Message& req) {
  auto reply = std::make_unique<FlowerKeepaliveReplyMsg>();
  reply->instance = instance_;
  if (role_ == FlowerRole::kDirectoryPeer) {
    reply->accepted = true;
    view_.Upsert(Contact{req.src, 0});
  }
  rpc_.Respond(req, std::move(reply));
}

void FlowerPeer::OnGossip(const Message& req) {
  const auto& m = MessageCast<FlowerGossipMsg>(req);
  auto reply = std::make_unique<FlowerGossipReplyMsg>();
  reply->contacts =
      view_.RandomSubset(ctx_->params->gossip_fanout, rng_, m.src);
  reply->summary = store_->BuildSummary(ctx_->params->summary_fp_rate);
  reply->dir_info = dir_info_;
  rpc_.Respond(req, std::move(reply));
  MergeGossip(m.src, m.contacts, m.summary, m.dir_info);
}

void FlowerPeer::OnFetch(const Message& req) {
  const auto& m = MessageCast<FlowerFetchMsg>(req);
  auto reply = std::make_unique<FlowerFetchReplyMsg>();
  reply->has_object = store_->Contains(m.object);
  rpc_.Respond(req, std::move(reply));
}

void FlowerPeer::OnForwardedQuery(const Message& req) {
  const auto& m = MessageCast<FlowerForwardedQueryMsg>(req);
  // Answer the client (the message's nominal sender) directly, confirming
  // or denying possession; relay the directory's admission decision.
  auto reply = std::make_unique<FlowerDirQueryReplyMsg>();
  reply->admitted = m.admitted;
  reply->instance = m.instance;
  reply->view_seed = m.view_seed;
  if (store_->Contains(m.object)) {
    reply->result = DirQueryResult::kProvider;
    reply->provider = self_;
  } else {
    reply->result = DirQueryResult::kMiss;  // stale index entry
  }
  rpc_.Respond(req, std::move(reply));
}

// --- Semantic search extension -------------------------------------------------

std::vector<FlowerPeer::KeywordMatch> FlowerPeer::ResolveKeywordLocally(
    KeywordId keyword, uint32_t max_results) {
  std::vector<KeywordMatch> matches;
  index().ForEachObject([&](const ObjectId& object,
                           const std::vector<PeerId>& providers) {
    if (matches.size() >= max_results) return;
    if (providers.empty()) return;
    if (!ctx_->keywords.Matches(object, keyword)) return;
    KeywordMatch match;
    match.object = object;
    match.provider = providers[rng_.Index(providers.size())];
    matches.push_back(match);
  });
  // The directory's own cache also answers searches.
  if (matches.size() < max_results) {
    for (const ObjectId& object : store_->ObjectsOfWebsite(website_)) {
      if (matches.size() >= max_results) break;
      if (!ctx_->keywords.Matches(object, keyword)) continue;
      bool already = false;
      for (const KeywordMatch& m : matches) {
        if (m.object == object) {
          already = true;
          break;
        }
      }
      if (!already) matches.push_back(KeywordMatch{object, self_});
    }
  }
  return matches;
}

void FlowerPeer::SearchByKeyword(KeywordId keyword, KeywordSearchCallback cb) {
  if (role_ == FlowerRole::kDirectoryPeer) {
    cb(Status::OK(), ResolveKeywordLocally(keyword, 16));
    return;
  }
  if (role_ != FlowerRole::kContentPeer ||
      dir_info_.dir == kInvalidPeer) {
    cb(Status::FailedPrecondition("not attached to a directory peer"), {});
    return;
  }
  auto msg = std::make_unique<FlowerKeywordQueryMsg>();
  msg->website = website_;
  msg->keyword = keyword;
  rpc_.Call(dir_info_.dir, std::move(msg), ctx_->params->rpc_timeout,
            [this, cb = std::move(cb)](const Status& status,
                                       MessagePtr resp) {
              if (!status.ok()) {
                OnDirectoryUnreachable();
                cb(status, {});
                return;
              }
              const auto& reply = MessageCast<FlowerKeywordReplyMsg>(*resp);
              if (!reply.accepted) {
                cb(Status::Unavailable("directory role moved"), {});
                return;
              }
              cb(Status::OK(), reply.matches);
            });
}

void FlowerPeer::OnKeywordQuery(const Message& req) {
  const auto& m = MessageCast<FlowerKeywordQueryMsg>(req);
  auto reply = std::make_unique<FlowerKeywordReplyMsg>();
  if (role_ == FlowerRole::kDirectoryPeer && m.website == website_) {
    reply->accepted = true;
    reply->matches = ResolveKeywordLocally(m.keyword, m.max_results);
  }
  rpc_.Respond(req, std::move(reply));
}

void FlowerPeer::OnDirProbe(const Message& req) {
  const auto& m = MessageCast<FlowerDirProbeMsg>(req);
  auto reply = std::make_unique<FlowerDirProbeReplyMsg>();
  if (role_ == FlowerRole::kDirectoryPeer) {
    std::optional<PeerId> provider = FindProviderLocally(m.object, m.src);
    if (provider.has_value()) {
      reply->has_provider = true;
      reply->provider = *provider;
    }
  }
  rpc_.Respond(req, std::move(reply));
}

void FlowerPeer::OnDirHandoff(const Message& msg) {
  const auto& m = MessageCast<FlowerDirHandoffMsg>(msg);
  // Replica failover may pick an heir that is still in the client role
  // (admitted but not yet serving content); a client can claim a vacant
  // position just like it does on kVacant, so let it. Gated on replication
  // so graceful-leave handoffs behave exactly as before at k=1.
  bool eligible_role =
      role_ == FlowerRole::kContentPeer ||
      (ReplicationActive() && role_ == FlowerRole::kClient);
  if (!eligible_role) return;
  if (m.website != website_ || m.locality != locality_) return;
  FlowerDirHandoffMsg copy;
  copy.website = m.website;
  copy.locality = m.locality;
  copy.instance = m.instance;
  copy.view = m.view;
  copy.index = m.index;
  AttemptDirectoryClaim(m.instance, std::move(copy));
}

// --- Directory replication -----------------------------------------------------

bool FlowerPeer::ReplicationActive() const {
  return ctx_->params->replication >= 2;
}

FlowerPeer::DirectoryState& FlowerPeer::EnsureDirectoryState() {
  if (dir_ == nullptr) dir_ = std::make_unique<DirectoryState>();
  return *dir_;
}

const DirectoryIndex& FlowerPeer::index() const {
  static const DirectoryIndex kEmpty;
  return dir_ != nullptr ? dir_->index : kEmpty;
}

size_t FlowerPeer::replica_petals_held() const {
  return dir_ != nullptr ? dir_->replicas.size() : 0;
}

const DirectoryIndex* FlowerPeer::ReplicaIndex(WebsiteId website,
                                               LocalityId locality,
                                               int instance) const {
  if (dir_ == nullptr) return nullptr;
  auto it =
      dir_->replicas.find(ctx_->keyspace->IdOf(website, locality, instance));
  return it == dir_->replicas.end() ? nullptr : &it->second.index;
}

void FlowerPeer::ReplicaRecordReplace(PeerId peer,
                                      const std::vector<ObjectId>& objects) {
  if (!ReplicationActive() || role_ != FlowerRole::kDirectoryPeer) return;
  FlowerReplicaSyncMsg::Op op;
  op.kind = FlowerReplicaSyncMsg::kReplaceObjects;
  op.peer = peer;
  op.objects = objects;
  AppendReplicaOp(std::move(op));
}

void FlowerPeer::ReplicaRecordAdd(PeerId peer, const ObjectId& object) {
  if (!ReplicationActive() || role_ != FlowerRole::kDirectoryPeer) return;
  FlowerReplicaSyncMsg::Op op;
  op.kind = FlowerReplicaSyncMsg::kAddObject;
  op.peer = peer;
  op.objects.push_back(object);
  AppendReplicaOp(std::move(op));
}

void FlowerPeer::ReplicaRecordRemove(PeerId peer) {
  if (!ReplicationActive() || role_ != FlowerRole::kDirectoryPeer) return;
  FlowerReplicaSyncMsg::Op op;
  op.kind = FlowerReplicaSyncMsg::kRemovePeer;
  op.peer = peer;
  AppendReplicaOp(std::move(op));
}

void FlowerPeer::AppendReplicaOp(FlowerReplicaSyncMsg::Op op) {
  std::deque<ReplicaOp>& ops = dir_->replica_ops;
  ++dir_->replica_version;
  ops.push_back(ReplicaOp{dir_->replica_version, std::move(op)});
  // Bounded log: replicas that fall further behind than the cap resync
  // with a full snapshot instead.
  while (ops.size() > ctx_->params->replica_max_delta_ops) ops.pop_front();
}

void FlowerPeer::ResetReplicaSource() {
  // The replica version is deliberately NOT reset: it stays monotonic across
  // role flaps of this peer, so a replica can never confuse a new
  // directory term with an older one.
  dir_->replica_ops.clear();
  dir_->replica_acks.clear();
}

void FlowerPeer::ScheduleReplicaSync(SimDuration delay) {
  if (dir_->replica_sync_scheduled) return;
  dir_->replica_sync_scheduled = true;
  ctx_->network->SchedulePeer(self_, incarnation_, delay, [this]() {
    dir_->replica_sync_scheduled = false;
    if (role_ != FlowerRole::kDirectoryPeer || !ReplicationActive()) return;
    ReplicaSyncRound();
    ScheduleReplicaSync(ctx_->params->replica_sync_period);
  });
}

void FlowerPeer::ReplicaSyncRound() {
  if (chord_ == nullptr || !chord_->active()) return;
  std::vector<RingPeer> targets = chord_->DistinctSuccessors(
      static_cast<size_t>(ctx_->params->replication - 1));
  if (targets.empty()) return;
  for (size_t i = 0; i < targets.size(); ++i) {
    SendReplicaSync(targets[i].peer, static_cast<uint32_t>(i + 1));
  }
  // Ops acknowledged by every current replica are never needed again.
  DirectoryState& dir = *dir_;
  uint64_t min_acked = dir.replica_version;
  for (const RingPeer& t : targets) {
    auto it = dir.replica_acks.find(t.peer);
    min_acked = std::min(
        min_acked, it == dir.replica_acks.end() ? uint64_t{0} : it->second);
  }
  std::deque<ReplicaOp>& ops = dir.replica_ops;
  while (!ops.empty() && ops.front().version <= min_acked) ops.pop_front();
}

void FlowerPeer::SendReplicaSync(PeerId target, uint32_t rank) {
  auto msg = std::make_unique<FlowerReplicaSyncMsg>();
  msg->website = website_;
  msg->locality = locality_;
  msg->instance = instance_;
  msg->rank = rank;
  const DirectoryState& dir = *dir_;
  msg->version = dir.replica_version;
  msg->view = view_.contacts();
  auto ack_it = dir.replica_acks.find(target);
  // A delta only applies if the replica's acknowledged version is still
  // covered by the op log; otherwise (new replica, missed syncs, log
  // trimmed past it) fall back to full-snapshot anti-entropy.
  bool delta_ok =
      ack_it != dir.replica_acks.end() &&
      ack_it->second <= dir.replica_version &&
      (dir.replica_ops.empty()
           ? ack_it->second == dir.replica_version
           : dir.replica_ops.front().version <= ack_it->second + 1);
  if (delta_ok) {
    msg->base_version = ack_it->second;
    for (const ReplicaOp& logged : dir.replica_ops) {
      if (logged.version > ack_it->second) msg->ops.push_back(logged.op);
    }
  } else {
    msg->full = true;
    msg->index = dir.index.TakeSnapshot();
    ctx_->stats->Add("flower.replica.full_syncs");
  }
  ctx_->stats->Add("flower.replica.syncs");
  rpc_.Call(target, std::move(msg), ctx_->params->rpc_timeout,
            [this, target](const Status& status, MessagePtr resp) {
              if (!status.ok()) {
                // Dead successor: stabilization will rotate it out of the
                // replica set; nothing to do here.
                return;
              }
              const auto& reply =
                  MessageCast<FlowerReplicaSyncReplyMsg>(*resp);
              if (reply.accepted) {
                dir_->replica_acks[target] = reply.acked_version;
              } else {
                // Version gap or primary change on the replica: next round
                // sends a full snapshot.
                dir_->replica_acks.erase(target);
              }
            });
}

void FlowerPeer::OnReplicaSync(const Message& req) {
  const auto& m = MessageCast<FlowerReplicaSyncMsg>(req);
  auto reply = std::make_unique<FlowerReplicaSyncReplyMsg>();
  if (!ReplicationActive()) {
    rpc_.Respond(req, std::move(reply));
    return;
  }
  ChordId key = ctx_->keyspace->IdOf(m.website, m.locality, m.instance);
  if (m.full) {
    ReplicaState& state = EnsureDirectoryState().replicas[key];
    state.primary = m.src;
    state.website = m.website;
    state.locality = m.locality;
    state.instance = m.instance;
    state.rank = m.rank;
    state.version = m.version;
    state.last_sync = ctx_->network->sim()->now();
    state.handover_attempts = 0;
    state.index.Restore(m.index);
    state.view = m.view;
    reply->accepted = true;
    reply->acked_version = state.version;
    rpc_.Respond(req, std::move(reply));
    ScheduleReplicaMonitor();
    return;
  }
  ReplicaState* held = nullptr;
  if (dir_ != nullptr) {
    auto it = dir_->replicas.find(key);
    if (it != dir_->replicas.end()) held = &it->second;
  }
  if (held == nullptr || held->primary != m.src ||
      held->version != m.base_version) {
    // Unknown petal, a different (older) primary's delta, or missed syncs:
    // reject so the live primary resyncs with a snapshot. Never apply a
    // delta onto mismatched state — that is how stale replicas would
    // clobber fresher indexes.
    reply->accepted = false;
    rpc_.Respond(req, std::move(reply));
    return;
  }
  ReplicaState& state = *held;
  for (const FlowerReplicaSyncMsg::Op& op : m.ops) {
    switch (op.kind) {
      case FlowerReplicaSyncMsg::kReplaceObjects:
        state.index.ReplacePeerObjects(op.peer, op.objects);
        break;
      case FlowerReplicaSyncMsg::kAddObject:
        for (const ObjectId& o : op.objects) state.index.Add(op.peer, o);
        break;
      case FlowerReplicaSyncMsg::kRemovePeer:
        state.index.RemovePeer(op.peer);
        break;
      default:
        break;  // decoder rejects unknown kinds; belt and braces
    }
  }
  state.version = m.version;
  state.rank = m.rank;
  state.view = m.view;
  state.last_sync = ctx_->network->sim()->now();
  state.handover_attempts = 0;
  reply->accepted = true;
  reply->acked_version = state.version;
  rpc_.Respond(req, std::move(reply));
  ScheduleReplicaMonitor();
}

void FlowerPeer::ScheduleReplicaMonitor() {
  if (dir_->replica_monitor_scheduled) return;
  dir_->replica_monitor_scheduled = true;
  ctx_->network->SchedulePeer(
      self_, incarnation_, ctx_->params->replica_sync_period, [this]() {
        dir_->replica_monitor_scheduled = false;
        if (!ReplicationActive()) return;
        ReplicaMonitorRound();
        if (!dir_->replicas.empty()) ScheduleReplicaMonitor();
      });
}

void FlowerPeer::ReplicaMonitorRound() {
  SimTime now = ctx_->network->sim()->now();
  SimDuration period = ctx_->params->replica_sync_period;
  // Sorted key pass: handover messages must fire in a deterministic order,
  // and entries may be erased while iterating.
  std::vector<ChordId> keys;
  keys.reserve(dir_->replicas.size());
  for (const auto& [key, state] : dir_->replicas) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (ChordId key : keys) {
    auto it = dir_->replicas.find(key);
    if (it == dir_->replicas.end()) continue;
    ReplicaState& state = it->second;
    // Rank-staggered failover window: rank 1 acts after
    // `replica_failover_misses` silent periods, rank 2 one period later...
    // so replicas do not race each other to install an heir.
    SimDuration timeout =
        (ctx_->params->replica_failover_misses +
         static_cast<SimDuration>(state.rank) - 1) *
        period;
    SimDuration silent = now - state.last_sync;
    if (silent <= timeout) continue;
    if (silent > 4 * timeout) {
      // The petal recovered under a new primary that no longer targets us
      // (or it dissolved entirely): the state is stale, drop it.
      dir_->replicas.erase(it);
      continue;
    }
    if (state.handover_attempts >= 3) continue;
    InitiateReplicaHandover(state);
  }
}

void FlowerPeer::InitiateReplicaHandover(ReplicaState& state) {
  ++state.handover_attempts;
  // Freshest petal member first (smallest gossip age; peer id breaks
  // ties deterministically); retries walk down the list.
  std::vector<Contact> eligible;
  eligible.reserve(state.view.size());
  for (const Contact& c : state.view) {
    if (c.peer == self_ || c.peer == state.primary ||
        c.peer == kInvalidPeer) {
      continue;
    }
    eligible.push_back(c);
  }
  if (eligible.empty()) return;
  std::sort(eligible.begin(), eligible.end(),
            [](const Contact& a, const Contact& b) {
              if (a.age != b.age) return a.age < b.age;
              return a.peer < b.peer;
            });
  const Contact& heir =
      eligible[std::min<size_t>(
          static_cast<size_t>(state.handover_attempts - 1),
          eligible.size() - 1)];
  ctx_->stats->Add("flower.replica.handovers");
  // Reuse the graceful-leave handoff: the heir restores the replicated
  // index and claims the (now vacant) D-ring position — promotion of a
  // replica's state instead of a cold rebuild.
  auto handoff = std::make_unique<FlowerDirHandoffMsg>();
  handoff->website = state.website;
  handoff->locality = state.locality;
  handoff->instance = state.instance;
  handoff->view = state.view;
  handoff->index = state.index.TakeSnapshot();
  ctx_->network->Send(self_, heir.peer, std::move(handoff));
}

bool FlowerPeer::TryAnswerFromReplica(const FlowerDirQueryMsg& req,
                                      FlowerDirQueryReplyMsg* reply) {
  if (!ReplicationActive() || dir_ == nullptr || dir_->replicas.empty()) {
    return false;
  }
  SimTime now = ctx_->network->sim()->now();
  SimDuration period = ctx_->params->replica_sync_period;
  for (int inst = 0; inst < ctx_->keyspace->max_instances(); ++inst) {
    auto it = dir_->replicas.find(
        ctx_->keyspace->IdOf(req.website, req.locality, inst));
    if (it == dir_->replicas.end()) continue;
    const ReplicaState& state = it->second;
    SimDuration timeout =
        (ctx_->params->replica_failover_misses +
         static_cast<SimDuration>(state.rank) - 1) *
        period;
    // Stale replicas must not answer — beyond the failover window a
    // vacancy claim is the right recovery, and an old index would serve
    // expired providers.
    if (now - state.last_sync > 4 * timeout) continue;
    reply->instance = state.instance;
    reply->result = DirQueryResult::kMiss;
    if (req.has_object) {
      const std::vector<PeerId>& providers = state.index.Providers(req.object);
      std::vector<PeerId> eligible;
      eligible.reserve(providers.size());
      for (PeerId p : providers) {
        if (p != req.src && p != self_) eligible.push_back(p);
      }
      if (!eligible.empty()) {
        reply->result = DirQueryResult::kProvider;
        reply->provider = eligible[rng_.Index(eligible.size())];
      }
    }
    ctx_->stats->Add("flower.replica.served_queries");
    return true;
  }
  return false;
}

// --- Dispatch ----------------------------------------------------------------

namespace {

/// Static label for a remote-trace instant: which protocol family's
/// message this peer handled on behalf of a foreign-rank query.
const char* HandleEventName(const Message& msg) {
  if (msg.type == kTransportNack) return "handle_nack";
  if (msg.type >= kChordMessageBase && msg.type < kChordMessageBase + 100) {
    return msg.is_response ? "handle_chord_resp" : "handle_chord";
  }
  if (msg.type >= kGossipMessageBase && msg.type < kGossipMessageBase + 100) {
    return msg.is_response ? "handle_gossip_resp" : "handle_gossip";
  }
  if (msg.type >= kFlowerMessageBase && msg.type < kFlowerMessageBase + 100) {
    return msg.is_response ? "handle_flower_resp" : "handle_flower";
  }
  return msg.is_response ? "handle_other_resp" : "handle_other";
}

}  // namespace

void FlowerPeer::HandleMessage(MessagePtr msg) {
  if (ctx_->trace != nullptr && msg->trace.active() &&
      ctx_->trace->LocalIdOf(msg->trace.trace_id) == 0) {
    // Work done here for a query that began on another rank: record an
    // instant carrying the distributed trace id so the merged cluster
    // trace shows this rank's participation.
    ctx_->trace->AddRemoteSpan(msg->trace.trace_id, HandleEventName(*msg),
                              ctx_->network->sim()->now(), self_, msg->src);
  }
  if (resolver_.HandleMessage(msg)) return;
  if (chord_ != nullptr && chord_->HandleMessage(msg)) return;
  if (msg->is_response) {
    rpc_.HandleResponse(msg);
    return;
  }
  switch (msg->type) {
    case kFlowerDirQuery:
      OnDirQuery(std::move(msg));
      return;
    case kFlowerFetch:
      OnFetch(*msg);
      return;
    case kFlowerGossip:
      OnGossip(*msg);
      return;
    case kFlowerKeepalive:
      OnKeepalive(*msg);
      return;
    case kFlowerPush:
      OnPush(*msg);
      return;
    case kFlowerPromote:
      OnPromote(MessageCast<FlowerPromoteMsg>(*msg));
      return;
    case kFlowerDirProbe:
      OnDirProbe(*msg);
      return;
    case kFlowerForwardedQuery:
      OnForwardedQuery(*msg);
      return;
    case kFlowerKeywordQuery:
      OnKeywordQuery(*msg);
      return;
    case kFlowerDirHandoff:
      OnDirHandoff(*msg);
      return;
    case kFlowerReplicaSync:
      OnReplicaSync(*msg);
      return;
    default:
      return;  // unknown or stale: drop
  }
}

}  // namespace flowercdn
