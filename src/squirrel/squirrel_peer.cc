#include "squirrel/squirrel_peer.h"

#include <algorithm>
#include <utility>

#include "simcore/intern.h"
#include "util/hash.h"
#include "util/logging.h"

namespace flowercdn {

namespace {

/// Directory capacity per object (most recent downloaders).
constexpr size_t kMaxDelegates = 4;
/// Delay between failed bootstrap attempts.
constexpr SimDuration kJoinRetryDelay = 30 * kSecond;
constexpr int kMaxJoinAttempts = 5;
/// Timeout of one home-node query or delegate fetch: the same budget as
/// the ring's control RPCs (ChordNode::Params::rpc_timeout).
constexpr SimDuration kRpcTimeout = 800 * kMillisecond;

/// A peer's ring position is a stable function of its identity, so a
/// re-joining peer reclaims the same position.
ChordId SquirrelRingId(PeerId peer) {
  return ChordHash("squirrel-peer-" + std::to_string(peer));
}

/// HomeKey() builds a synthetic URL string and hashes it; queries revisit a
/// small hot set of objects millions of times per trial, so the pure
/// ObjectId -> ring-key mapping is memoized. Thread-local because trials
/// run on worker threads; the mapping is identical on every thread, so
/// sharing is unnecessary and determinism is unaffected.
ChordId CachedHomeKey(const ObjectId& object) {
  static thread_local U64Memo memo;
  return static_cast<ChordId>(memo.GetOrCompute(
      object.Packed(),
      [&object] { return static_cast<uint64_t>(object.HomeKey()); }));
}

}  // namespace

const char* SquirrelModeName(SquirrelMode mode) {
  switch (mode) {
    case SquirrelMode::kDirectory:
      return "directory";
    case SquirrelMode::kHomeStore:
      return "home-store";
  }
  return "?";
}

SquirrelPeer::SquirrelPeer(const SquirrelContext& ctx, PeerId self,
                           WebsiteId website, ContentStore* store, Rng rng,
                           const Params& params)
    : ctx_(ctx),
      self_(self),
      website_(website),
      store_(store),
      rng_(rng),
      params_(params),
      chord_(ctx.network, self, SquirrelRingId(self), ChordNode::Params{}),
      rpc_(ctx.network, self) {
  FLOWERCDN_CHECK(ctx.stats != nullptr);
  FLOWERCDN_CHECK(store != nullptr);
}

void SquirrelPeer::Start(std::optional<PeerId> bootstrap) {
  incarnation_ = ctx_.network->Attach(self_, this);
  chord_.Bind(incarnation_);
  rpc_.Bind(incarnation_);
  chord_.on_predecessor_changed = [this](const std::optional<RingPeer>& old,
                                         const RingPeer& fresh) {
    HandoffToNewPredecessor(old, fresh);
  };
  if (!bootstrap.has_value()) {
    chord_.CreateRing();
    StartQuerying();
    return;
  }
  TryJoin(*bootstrap);
}

void SquirrelPeer::TryJoin(PeerId bootstrap) {
  ++join_attempts_;
  chord_.Join(bootstrap, [this](const Status& status) {
    if (status.ok()) {
      StartQuerying();
      return;
    }
    if (join_attempts_ >= kMaxJoinAttempts) {
      FLOWERCDN_LOG(kDebug) << "squirrel peer " << self_
                            << " exhausted join attempts";
      return;  // stranded until it churns out
    }
    ctx_.network->SchedulePeer(self_, incarnation_, kJoinRetryDelay,
                               [this]() {
                                 PeerId next = ctx_.pick_bootstrap
                                                   ? ctx_.pick_bootstrap(self_)
                                                   : kInvalidPeer;
                                 if (next == kInvalidPeer) return;
                                 TryJoin(next);
                               });
  });
}

// --- Client side -------------------------------------------------------------

void SquirrelPeer::StartQuerying() {
  if (querying_) return;
  if (!ctx_.catalog->IsActive(website_)) return;
  querying_ = true;
  ScheduleNextQuery();
}

void SquirrelPeer::ScheduleNextQuery() {
  SimDuration gap = ctx_.workload->NextQueryGap(website_, rng_);
  ctx_.network->SchedulePeer(self_, incarnation_, gap,
                             [this]() { IssueQuery(); });
}

void SquirrelPeer::IssueQuery() {
  if (!chord_.active()) {
    ScheduleNextQuery();
    return;
  }
  std::optional<ObjectId> object =
      ctx_.workload->NextQuery(website_, *store_, rng_);
  if (!object.has_value()) return;  // nothing left to ask for
  ctx_.stats->Add("squirrel.queries_issued");
  SimTime t0 = ctx_.network->sim()->now();
  // Squirrel resolves every query through the object's home node, found by
  // routing hash(url) over the whole DHT.
  chord_.Lookup(CachedHomeKey(*object),
                [this, object = *object, t0](const Status& status,
                                             RingPeer home, int /*hops*/) {
                  OnHomeResolved(object, t0, status, home);
                });
}

void SquirrelPeer::OnHomeResolved(const ObjectId& object, SimTime t0,
                                  const Status& status, RingPeer home) {
  if (!status.ok()) {
    // DHT routing failed outright (heavy churn): the origin saves the day.
    ctx_.stats->Add("squirrel.lookup_failures");
    ResolveAtOrigin(object, t0, std::nullopt);
    return;
  }
  if (home.peer == self_) {
    // We are the home node ourselves.
    if (params_.mode == SquirrelMode::kHomeStore) {
      // Degenerate: the workload never re-queries the browser cache, and
      // the home replica lives on this very node — count it as a hit at
      // zero distance only if the replica exists.
      if (home_store_.count(object.Packed()) > 0) {
        ctx_.stats->Add("squirrel.home_redirects");
        FinishQuery(object, t0, /*hit=*/true, ctx_.network->sim()->now(),
                    0.0);
      } else {
        ctx_.stats->Add("squirrel.home_empty");
        ResolveAtOrigin(object, t0, self_);
      }
      return;
    }
    auto it = directory_.find(object.Packed());
    if (it != directory_.end() && !it->second.empty()) {
      ctx_.stats->Add("squirrel.home_redirects");
      PeerId delegate = it->second[rng_.Index(it->second.size())];
      FetchFromDelegate(object, t0, self_, delegate,
                        ctx_.network->sim()->now());
    } else {
      ctx_.stats->Add("squirrel.home_empty");
      ResolveAtOrigin(object, t0, self_);
    }
    return;
  }
  AskHome(object, t0, home);
}

void SquirrelPeer::AskHome(const ObjectId& object, SimTime t0,
                           RingPeer home) {
  auto msg = std::make_unique<SquirrelQueryMsg>();
  msg->object = object;
  rpc_.Call(home.peer, std::move(msg), kRpcTimeout,
            [this, object, t0, home](const Status& status, MessagePtr resp) {
              if (!status.ok()) {
                // Home died between lookup and query.
                ctx_.stats->Add("squirrel.lookup_failures");
                ResolveAtOrigin(object, t0, std::nullopt);
                return;
              }
              const auto& reply = MessageCast<SquirrelQueryReplyMsg>(*resp);
              if (reply.served_directly) {
                // Home-store: the home shipped its replica with the reply.
                ctx_.stats->Add("squirrel.home_redirects");
                FinishQuery(object, t0, /*hit=*/true,
                            ctx_.network->sim()->now(),
                            ctx_.network->LatencyMs(self_, home.peer));
              } else if (reply.has_delegate) {
                ctx_.stats->Add("squirrel.home_redirects");
                FetchFromDelegate(object, t0, home.peer, reply.delegate,
                                  ctx_.network->sim()->now());
              } else {
                ctx_.stats->Add("squirrel.home_empty");
                ResolveAtOrigin(object, t0, home.peer);
              }
            });
}

void SquirrelPeer::FetchFromDelegate(const ObjectId& object, SimTime t0,
                                     PeerId home_peer, PeerId delegate,
                                     SimTime resolved_at) {
  if (delegate == self_) {
    // Degenerate redirect (stale directory); treat as a miss path.
    ResolveAtOrigin(object, t0, home_peer);
    return;
  }
  auto msg = std::make_unique<SquirrelFetchMsg>();
  msg->object = object;
  rpc_.Call(delegate, std::move(msg), kRpcTimeout,
            [this, object, t0, home_peer, delegate, resolved_at](
                const Status& status, MessagePtr resp) {
              bool served = status.ok() &&
                            MessageCast<SquirrelFetchReplyMsg>(*resp)
                                .has_object;
              if (served) {
                FinishQuery(object, t0, /*hit=*/true, resolved_at,
                            ctx_.network->LatencyMs(self_, delegate));
                // Register ourselves as a fresh downloader.
                auto update = std::make_unique<SquirrelUpdateMsg>();
                update->object = object;
                ctx_.network->Send(self_, home_peer, std::move(update));
              } else {
                ctx_.stats->Add("squirrel.delegate_failures");
                ResolveAtOrigin(object, t0, home_peer);
              }
            });
}

void SquirrelPeer::ResolveAtOrigin(const ObjectId& object, SimTime t0,
                                   std::optional<PeerId> home_peer) {
  SimTime resolved_at = ctx_.network->sim()->now();
  Coord here = ctx_.network->CoordOf(self_);
  double distance = ctx_.origins->DistanceMs(here, object.website);
  FinishQuery(object, t0, /*hit=*/false, resolved_at, distance);
  if (home_peer.has_value()) {
    if (*home_peer == self_) {
      if (params_.mode == SquirrelMode::kHomeStore) {
        home_store_.insert(object.Packed());
      } else {
        AddDelegate(object, self_);
      }
    } else {
      auto update = std::make_unique<SquirrelUpdateMsg>();
      update->object = object;
      ctx_.network->Send(self_, *home_peer, std::move(update));
    }
  }
}

void SquirrelPeer::FinishQuery(const ObjectId& object, SimTime t0, bool hit,
                               SimTime resolved_at,
                               double transfer_distance_ms) {
  QueryRecord record;
  record.issued_at = t0;
  record.hit = hit;
  record.lookup_latency_ms = static_cast<double>(resolved_at - t0);
  record.transfer_distance_ms = transfer_distance_ms;
  record.from_new_client = false;  // every Squirrel query rides the DHT
  ctx_.metrics->RecordQuery(record);
  store_->Insert(object);
  ScheduleNextQuery();
}

// --- Home-node side ----------------------------------------------------------

void SquirrelPeer::OnQuery(const Message& req) {
  const auto& m = MessageCast<SquirrelQueryMsg>(req);
  auto reply = std::make_unique<SquirrelQueryReplyMsg>();
  if (params_.mode == SquirrelMode::kHomeStore) {
    reply->served_directly = home_store_.count(m.object.Packed()) > 0 ||
                             store_->Contains(m.object);
    rpc_.Respond(req, std::move(reply));
    return;
  }
  auto it = directory_.find(m.object.Packed());
  if (it != directory_.end() && !it->second.empty()) {
    reply->has_delegate = true;
    reply->delegate = it->second[rng_.Index(it->second.size())];
  } else if (store_->Contains(m.object)) {
    // The home node is itself a client and may hold a copy in its own
    // browser cache.
    reply->has_delegate = true;
    reply->delegate = self_;
  }
  rpc_.Respond(req, std::move(reply));
}

void SquirrelPeer::HandoffToNewPredecessor(
    const std::optional<RingPeer>& /*old_predecessor*/,
    const RingPeer& fresh) {
  if (fresh.peer == self_) return;
  if (directory_.empty() && home_store_.empty()) return;
  // Keys outside (new_pred, self] no longer belong to us (Chord key
  // transfer on join).
  auto msg = std::make_unique<SquirrelHandoffMsg>();
  for (auto it = directory_.begin(); it != directory_.end();) {
    ObjectId object = ObjectId::FromPacked(it->first);
    if (!InIntervalOpenClosed(CachedHomeKey(object), fresh.id,
                              chord_.id())) {
      SquirrelHandoffMsg::Entry entry;
      entry.object = object;
      entry.delegates.assign(it->second.begin(), it->second.end());
      msg->entries.push_back(std::move(entry));
      it = directory_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = home_store_.begin(); it != home_store_.end();) {
    ObjectId object = ObjectId::FromPacked(*it);
    if (!InIntervalOpenClosed(CachedHomeKey(object), fresh.id, chord_.id())) {
      SquirrelHandoffMsg::Entry entry;
      entry.object = object;
      entry.stored_copy = true;
      msg->entries.push_back(std::move(entry));
      it = home_store_.erase(it);
    } else {
      ++it;
    }
  }
  if (msg->entries.empty()) return;
  ctx_.network->Send(self_, fresh.peer, std::move(msg));
}

void SquirrelPeer::OnHandoff(const Message& msg) {
  const auto& m = MessageCast<SquirrelHandoffMsg>(msg);
  for (const SquirrelHandoffMsg::Entry& entry : m.entries) {
    if (entry.stored_copy) {
      home_store_.insert(entry.object.Packed());
      continue;
    }
    std::deque<PeerId>& delegates = directory_[entry.object.Packed()];
    // Append inherited delegates behind any we already learned (ours are
    // fresher).
    for (PeerId p : entry.delegates) {
      if (std::find(delegates.begin(), delegates.end(), p) ==
          delegates.end()) {
        delegates.push_back(p);
      }
    }
    while (delegates.size() > kMaxDelegates) {
      delegates.pop_back();
    }
  }
}

void SquirrelPeer::OnFetch(const Message& req) {
  const auto& m = MessageCast<SquirrelFetchMsg>(req);
  auto reply = std::make_unique<SquirrelFetchReplyMsg>();
  reply->has_object = store_->Contains(m.object);
  rpc_.Respond(req, std::move(reply));
}

void SquirrelPeer::OnUpdate(const Message& msg) {
  const auto& m = MessageCast<SquirrelUpdateMsg>(msg);
  if (params_.mode == SquirrelMode::kHomeStore) {
    // The downloader pushes a replica to the object's home.
    home_store_.insert(m.object.Packed());
    return;
  }
  AddDelegate(m.object, m.src);
}

void SquirrelPeer::AddDelegate(const ObjectId& object, PeerId downloader) {
  std::deque<PeerId>& delegates = directory_[object.Packed()];
  auto it = std::find(delegates.begin(), delegates.end(), downloader);
  if (it != delegates.end()) delegates.erase(it);
  delegates.push_front(downloader);
  while (delegates.size() > kMaxDelegates) {
    delegates.pop_back();
  }
}

// --- Dispatch ----------------------------------------------------------------

void SquirrelPeer::HandleMessage(MessagePtr msg) {
  if (chord_.HandleMessage(msg)) return;
  if (msg == nullptr) return;
  if (msg->is_response) {
    rpc_.HandleResponse(msg);
    return;  // either consumed or stale — both end here
  }
  switch (msg->type) {
    case kSquirrelQuery:
      OnQuery(*msg);
      break;
    case kSquirrelFetch:
      OnFetch(*msg);
      break;
    case kSquirrelUpdate:
      OnUpdate(*msg);
      break;
    case kSquirrelHandoff:
      OnHandoff(*msg);
      break;
    default:
      break;  // unknown: drop
  }
}

}  // namespace flowercdn
