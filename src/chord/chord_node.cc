#include "chord/chord_node.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace flowercdn {

namespace {

/// Lookup attempts before reporting failure to the caller.
constexpr int kMaxLookupAttempts = 3;
/// Re-forward attempts per hop before giving up on a stuck query.
constexpr int kMaxForwardAttempts = 3;
/// Safety valve against routing loops in a corrupted ring.
constexpr int kMaxLookupHops = 96;

}  // namespace

ChordNode::ChordNode(Network* network, PeerId self, ChordId id,
                     const Params& params)
    : network_(network),
      self_(self),
      id_(id),
      params_(params),
      rpc_(network, self),
      fingers_(id, kFingerCount) {
  FLOWERCDN_CHECK(params.successor_list_size >= 1);
}

void ChordNode::Bind(Incarnation incarnation) {
  incarnation_ = incarnation;
  rpc_.Bind(incarnation);
}

std::optional<RingPeer> ChordNode::successor() const {
  if (successors_.empty()) return std::nullopt;
  return successors_.front();
}

std::vector<RingPeer> ChordNode::DistinctSuccessors(size_t limit) const {
  // successors_ is already deduplicated by peer and sorted by clockwise
  // distance; only the single-node-ring self entry needs filtering.
  std::vector<RingPeer> out;
  out.reserve(std::min(limit, successors_.size()));
  for (const RingPeer& s : successors_) {
    if (out.size() >= limit) break;
    if (s.peer == self_ || s.peer == kInvalidPeer) continue;
    out.push_back(s);
  }
  return out;
}

void ChordNode::CreateRing() {
  FLOWERCDN_CHECK(state_ == State::kIdle);
  successors_.assign(1, RingPeer{self_, id_});
  successors_offered_at_ = kNotOffered;
  predecessor_.reset();
  state_ = State::kActive;
  ScheduleStabilize();
}

void ChordNode::Join(PeerId bootstrap, JoinCallback done) {
  FLOWERCDN_CHECK(state_ == State::kIdle);
  FLOWERCDN_CHECK(bootstrap != self_) << "cannot bootstrap from self";
  state_ = State::kJoining;
  LookupVia(bootstrap, id_,
            [this, done = std::move(done)](const Status& status,
                                           RingPeer owner, int /*hops*/) {
              if (state_ != State::kJoining) {
                done(Status::FailedPrecondition("join aborted"));
                return;
              }
              if (!status.ok()) {
                state_ = State::kIdle;
                done(status);
                return;
              }
              if (owner.id == id_) {
                // The deterministic position is already occupied (paper
                // §5.2.2: "the one that first integrates succeeds").
                state_ = State::kIdle;
                done(Status::AlreadyExists(
                    "ring position held by peer " +
                    std::to_string(owner.peer)));
                return;
              }
              successors_.clear();
              successors_offered_at_ = kNotOffered;
              MergeSuccessorCandidates({&owner, 1});
              state_ = State::kActive;
              // Warm-start the finger table from the successor (Chord's
              // join optimization); failures are harmless — periodic
              // fix-fingers repairs everything eventually.
              auto req = std::make_unique<ChordGetFingersMsg>();
              rpc_.Call(owner.peer, std::move(req), params_.rpc_timeout,
                        [this](const Status& s, MessagePtr resp) {
                          if (!s.ok()) return;
                          auto& fingers =
                              MessageCast<ChordFingersReplyMsg>(*resp)
                                  .fingers;
                          // Stable, so equally placed candidates are
                          // offered in the reply's order.
                          std::stable_sort(
                              fingers.begin(), fingers.end(),
                              [this](const RingPeer& a, const RingPeer& b) {
                                return RingDistance(id_, a.id) <
                                       RingDistance(id_, b.id);
                              });
                          fingers_.OfferSorted(fingers, self_);
                        });
              NotifySuccessor();
              ScheduleStabilize();
              ProbeSuccessorSoon();
              done(Status::OK());
            });
}

void ChordNode::Leave() {
  if (state_ != State::kActive) {
    state_ = State::kIdle;
    return;
  }
  auto succ = successor();
  if (succ.has_value() && succ->peer != self_) {
    auto msg = std::make_unique<ChordLeaveMsg>();
    msg->has_predecessor = predecessor_.has_value();
    if (predecessor_.has_value()) msg->predecessor = *predecessor_;
    msg->successors.assign(successors_.begin(), successors_.end());
    network_->Send(self_, succ->peer, std::move(msg));
  }
  if (predecessor_.has_value() && predecessor_->peer != self_ &&
      (!succ.has_value() || predecessor_->peer != succ->peer)) {
    auto msg = std::make_unique<ChordLeaveMsg>();
    msg->successors.assign(successors_.begin(), successors_.end());
    network_->Send(self_, predecessor_->peer, std::move(msg));
  }
  state_ = State::kIdle;
  successors_.clear();
  successors_offered_at_ = kNotOffered;
  predecessor_.reset();
  fingers_.ClearAll();
  // Fail outstanding lookups now instead of letting them time out; the
  // node's other calls run their course.
  rpc_.FailAwaited(Status::Unavailable("node left the ring"));
}

// --- Lookups ---------------------------------------------------------------

void ChordNode::Lookup(ChordId key, LookupCallback cb) {
  FLOWERCDN_CHECK(state_ == State::kActive) << "Lookup on inactive node";
  LookupVia(kInvalidPeer, key, std::move(cb));
}

void ChordNode::LookupVia(PeerId via, ChordId key, LookupCallback cb) {
  ++lookups_started_;
  StartLookup(&rpc_, key,
              {.via = via,
               .router = this,
               .attempt_timeout = params_.lookup_timeout,
               .ack_timeout = params_.rpc_timeout,
               .max_attempts = kMaxLookupAttempts},
              std::move(cb));
}

bool ChordNode::RouteOwnLookup(ChordId key, uint64_t lookup_id) {
  if (state_ != State::kActive) return false;
  ProcessLookupStep(key, self_, lookup_id, 0);
  return true;
}

void ChordNode::ProcessLookupStep(ChordId key, PeerId origin,
                                  uint64_t lookup_id, int hops) {
  if (hops > kMaxLookupHops) {
    FLOWERCDN_LOG(kDebug) << "dropping looping lookup for key " << key;
    return;  // origin recovers via its timeout
  }
  // Do we own the key outright?
  if (predecessor_.has_value() &&
      InIntervalOpenClosed(key, predecessor_->id, id_)) {
    SendLookupResult(origin, lookup_id, RingPeer{self_, id_}, hops);
    return;
  }
  auto succ = successor();
  if (!succ.has_value() || succ->peer == self_) {
    // Alone (or broken): best effort — we are the owner of everything we
    // know about.
    SendLookupResult(origin, lookup_id, RingPeer{self_, id_}, hops);
    return;
  }
  if (InIntervalOpenClosed(key, id_, succ->id)) {
    SendLookupResult(origin, lookup_id, *succ, hops);
    return;
  }
  ForwardLookup(key, origin, lookup_id, hops, /*attempt=*/1);
}

std::optional<RingPeer> ChordNode::NextHop(ChordId key) const {
  std::optional<RingPeer> best = fingers_.ClosestPreceding(key);
  // Successor-list entries can out-precede stale fingers.
  for (const RingPeer& s : successors_) {
    if (s.peer == self_) continue;
    if (!InIntervalOpenOpen(s.id, id_, key)) continue;
    if (!best.has_value() ||
        RingDistance(id_, s.id) > RingDistance(id_, best->id)) {
      best = s;
    }
  }
  return best;
}

void ChordNode::ForwardLookup(ChordId key, PeerId origin, uint64_t lookup_id,
                              int hops, int attempt) {
  std::optional<RingPeer> next = NextHop(key);
  if (!next.has_value()) {
    auto succ = successor();
    if (!succ.has_value() || succ->peer == self_) {
      SendLookupResult(origin, lookup_id, RingPeer{self_, id_}, hops);
      return;
    }
    next = succ;
  }
  PeerId next_peer = next->peer;
  auto req = MakeFindSuccessor(key, origin, lookup_id, hops + 1);
  rpc_.Call(next_peer, std::move(req), params_.rpc_timeout,
            [this, key, origin, lookup_id, hops, attempt, next_peer](
                const Status& status, MessagePtr) {
              if (status.ok()) return;  // hop acked; query is on its way
              RemoveDeadPeer(next_peer);
              if (attempt < kMaxForwardAttempts) {
                ForwardLookup(key, origin, lookup_id, hops, attempt + 1);
              }
            });
}

void ChordNode::SendLookupResult(PeerId origin, uint64_t lookup_id,
                                 RingPeer owner, int hops) {
  auto msg = std::make_unique<ChordLookupResultMsg>();
  msg->lookup_id = lookup_id;
  msg->owner = owner;
  msg->hops = hops;
  if (origin == self_) {
    MessagePtr answer = std::move(msg);
    ClaimLookupResult(&rpc_, answer);  // a late answer is dropped
    return;
  }
  network_->Send(self_, origin, std::move(msg));
}

// --- Stabilization -----------------------------------------------------------

void ChordNode::ScheduleStabilize() {
  if (stabilize_scheduled_) return;
  stabilize_scheduled_ = true;
  network_->SchedulePeer(self_, incarnation_, kStabilizePeriod,
                         [this]() {
                           stabilize_scheduled_ = false;
                           if (state_ != State::kActive) return;
                           StabilizeRound();
                           ScheduleStabilize();
                         });
}

void ChordNode::StabilizeRound() {
  ++stabilize_rounds_;
  ProbeSuccessor();
  if (stabilize_rounds_ % kPredecessorCheckStride == 0) {
    // A predecessor that probed or notified us within the check window is
    // alive; in a converged ring it probes us every round.
    const bool heard =
        predecessor_.has_value() &&
        predecessor_->peer == pred_contact_peer_ &&
        network_->sim()->now() - pred_contact_at_ <
            kPredecessorCheckStride * kStabilizePeriod;
    if (!heard) CheckPredecessor();
  }
  if (stabilize_rounds_ % kFingerFixStride == 0) {
    FixNextFinger();
  }
}

void ChordNode::ProbeSuccessor() {
  if (state_ != State::kActive) return;
  auto succ = successor();
  if (!succ.has_value()) {
    if (predecessor_.has_value() && predecessor_->peer != self_) {
      MergeSuccessorCandidates({&*predecessor_, 1});
    } else if (on_ring_broken) {
      on_ring_broken();
      return;
    }
    succ = successor();
    if (!succ.has_value()) return;
  }
  if (succ->peer == self_) {
    // Single-node ring (or healing a 2-ring through our predecessor).
    if (predecessor_.has_value() && predecessor_->peer != self_) {
      MergeSuccessorCandidates({&*predecessor_, 1});
      NotifySuccessor();
    }
    return;
  }
  RingPeer probed = *succ;
  auto req = std::make_unique<ChordGetNeighborsMsg>();
  rpc_.Call(probed.peer, std::move(req), params_.rpc_timeout,
            [this, probed](const Status& status, MessagePtr resp) {
              if (!status.ok()) {
                RemoveDeadPeer(probed.peer);
                // Try the next successor-list entry promptly.
                ProbeSuccessorSoon();
                return;
              }
              HandleNeighborsReply(
                  MessageCast<ChordNeighborsReplyMsg>(*resp), probed);
            });
}

void ChordNode::ProbeSuccessorSoon() {
  if (probe_soon_pending_ || state_ != State::kActive) return;
  probe_soon_pending_ = true;
  // Small jitter keeps simultaneous joiners from lock-stepping.
  SimDuration delay = 50 + static_cast<SimDuration>(self_ % 97);
  network_->SchedulePeer(self_, incarnation_, delay, [this]() {
    probe_soon_pending_ = false;
    if (state_ != State::kActive) return;
    ProbeSuccessor();
  });
}

void ChordNode::HandleNeighborsReply(const ChordNeighborsReplyMsg& reply,
                                     RingPeer probed) {
  std::optional<RingPeer> before = successor();
  const RingPeer extra[] = {probed, reply.predecessor};
  MergeSuccessorCandidates(reply.successors,
                           {extra, reply.has_predecessor ? 2u : 1u});
  std::optional<RingPeer> after = successor();
  // A successor that already names us as its predecessor would ignore a
  // notify.
  const bool acknowledged = reply.has_predecessor &&
                            reply.predecessor == RingPeer{self_, id_} &&
                            after.has_value() && after->peer == probed.peer;
  if (!acknowledged) NotifySuccessor();
  if (!after.has_value() || after->peer == self_) return;
  if (!before.has_value() || !(*after == *before)) {
    // The successor changed — walk the chain to the true neighbor without
    // waiting a full stabilize period.
    ProbeSuccessorSoon();
  } else if (!reply.has_predecessor || reply.predecessor.peer != self_) {
    // Successor stable but it has not acknowledged us as its predecessor
    // yet (our notify is in flight, or a closer peer is joining between
    // us): probe again shortly until the link is confirmed.
    ProbeSuccessorSoon();
  }
}

void ChordNode::NotifySuccessor() {
  auto succ = successor();
  if (!succ.has_value() || succ->peer == self_) return;
  auto msg = std::make_unique<ChordNotifyMsg>();
  msg->notifier_id = id_;
  PeerId succ_peer = succ->peer;
  rpc_.Call(succ_peer, std::move(msg), params_.rpc_timeout,
            [this, succ_peer](const Status& status, MessagePtr resp) {
              if (!status.ok()) {
                RemoveDeadPeer(succ_peer);
                return;
              }
              const auto& reply = MessageCast<ChordNotifyReplyMsg>(*resp);
              if (!reply.duplicate_id && reply.has_predecessor &&
                  reply.predecessor.peer != self_ &&
                  InIntervalOpenOpen(reply.predecessor.id, id_,
                                     successors_.empty()
                                         ? id_
                                         : successors_.front().id)) {
                // A closer peer sits between us and our successor.
                MergeSuccessorCandidates({&reply.predecessor, 1});
                ProbeSuccessorSoon();
              }
              if (reply.duplicate_id) {
                // We lost a join race for this deterministic position.
                state_ = State::kIdle;
                successors_.clear();
                successors_offered_at_ = kNotOffered;
                predecessor_.reset();
                fingers_.ClearAll();
                if (on_duplicate_id) on_duplicate_id();
              }
            });
}

void ChordNode::NotePredecessorContact(PeerId src) {
  pred_contact_peer_ = src;
  pred_contact_at_ = network_->sim()->now();
}

void ChordNode::CheckPredecessor() {
  if (pred_check_pending_ || !predecessor_.has_value() ||
      predecessor_->peer == self_) {
    return;
  }
  pred_check_pending_ = true;
  PeerId pred = predecessor_->peer;
  rpc_.Call(pred, std::make_unique<ChordPingMsg>(), params_.rpc_timeout,
            [this, pred](const Status& status, MessagePtr) {
              pred_check_pending_ = false;
              if (status.ok()) return;
              if (predecessor_.has_value() && predecessor_->peer == pred) {
                predecessor_.reset();
              }
            });
}

void ChordNode::FixNextFinger() {
  if (state_ != State::kActive) return;
  int j = next_finger_to_fix_;
  next_finger_to_fix_ = (next_finger_to_fix_ + 1) % fingers_.size();
  // A target the successor list covers has its answer in the list, and
  // every merge's OfferSorted keeps that slot right.
  if (!successors_.empty() &&
      RingDistance(id_, fingers_.TargetOf(j)) <=
          RingDistance(id_, successors_.back().id)) {
    return;
  }
  Lookup(fingers_.TargetOf(j),
         [this, j](const Status& status, RingPeer owner, int) {
           if (!status.ok()) return;
           // A self-owned target is stored as a self-entry (harmless for
           // routing — ClosestPreceding never returns it) so the slot does
           // not look permanently broken to the repair loop.
           fingers_.Set(j, owner);
         });
}

void ChordNode::ScheduleFingerRepair() {
  if (finger_repair_pending_ || state_ != State::kActive) return;
  finger_repair_pending_ = true;
  network_->SchedulePeer(self_, incarnation_, 200, [this]() {
    finger_repair_pending_ = false;
    if (state_ != State::kActive) return;
    // Holes the successor list covers need no lookup.
    fingers_.OfferSorted(successors_, self_, /*wrap=*/false);
    for (int j = 0; j < fingers_.size(); ++j) {
      if (fingers_.entry(j).has_value()) continue;
      const ChordId target = fingers_.TargetOf(j);
      Lookup(target,
             [this, j, target](const Status& status, RingPeer owner, int) {
               if (status.ok()) {
                 fingers_.Set(j, owner);
                 fingers_.FillHoles(target, owner);
               }
               // More holes? Keep repairing.
               ScheduleFingerRepair();
             });
      return;  // one targeted repair at a time
    }
  });
}

void ChordNode::MergeSuccessorCandidates(std::span<const RingPeer> candidates,
                                         std::span<const RingPeer> more) {
  // Runs on every stabilization reply, so the merged list is built in a
  // stack buffer; only successor lists far beyond the default 8 spill to
  // the heap.
  constexpr size_t kStackPeers = 32;
  const size_t capacity = successors_.size() + candidates.size() + more.size();
  RingPeer stack_buf[kStackPeers];
  std::vector<RingPeer> spill;
  RingPeer* clean = stack_buf;
  if (capacity > kStackPeers) {
    spill.resize(capacity);
    clean = spill.data();
  }
  size_t count = 0;
  auto consider = [&](const RingPeer& c) {
    if (c.peer == kInvalidPeer) return;
    if (c.peer == self_) return;  // re-added below if the list is empty
    if (c.id == id_) return;      // duplicate-position claimant
    for (size_t i = 0; i < count; ++i) {
      if (clean[i].peer == c.peer) return;
    }
    clean[count++] = c;
  };
  for (const RingPeer& c : successors_) consider(c);
  for (const RingPeer& c : candidates) consider(c);
  for (const RingPeer& c : more) consider(c);
  std::sort(clean, clean + count, [this](const RingPeer& a,
                                         const RingPeer& b) {
    return RingDistance(id_, a.id) < RingDistance(id_, b.id);
  });
  count = std::min(count, static_cast<size_t>(params_.successor_list_size));
  if (count == 0) {
    // Nothing else known: we are our own successor (single-node ring).
    clean[count++] = RingPeer{self_, id_};
  }
  // Offering the list the table already took, with no entry written since,
  // would change nothing.
  if (successors_offered_at_ == fingers_.version() &&
      std::equal(clean, clean + count, successors_.begin(),
                 successors_.end())) {
    return;
  }
  successors_.assign(clean, clean + count);
  // Every live contact is also a finger candidate.
  fingers_.OfferSorted(successors_, self_);
  successors_offered_at_ = fingers_.version();
}

void ChordNode::RemoveDeadPeer(PeerId peer) {
  if (peer == self_) return;
  if (fingers_.RemovePeer(peer) > 0) ScheduleFingerRepair();
  const size_t listed = successors_.size();
  successors_.erase(
      std::remove_if(successors_.begin(), successors_.end(),
                     [peer](const RingPeer& p) { return p.peer == peer; }),
      successors_.end());
  bool ring_neighbor = successors_.size() != listed;
  if (ring_neighbor) successors_offered_at_ = kNotOffered;
  if (predecessor_.has_value() && predecessor_->peer == peer) {
    predecessor_.reset();
    ring_neighbor = true;
  }
  if (successors_.empty()) {
    if (predecessor_.has_value() && predecessor_->peer != self_) {
      successors_.push_back(*predecessor_);
      successors_offered_at_ = kNotOffered;
    } else if (state_ == State::kActive && on_ring_broken) {
      on_ring_broken();
      return;
    }
  }
  // Re-validate the (possibly new) successor promptly. A peer that was
  // only a finger leaves the ring links intact; finger repair covers it.
  if (ring_neighbor && state_ == State::kActive) ProbeSuccessorSoon();
}

// --- Message handling --------------------------------------------------------

bool ChordNode::HandleMessage(MessagePtr& msg) {
  if (msg->is_response) return rpc_.HandleResponse(msg);
  if (!IsChordMessage(msg->type)) return false;
  switch (msg->type) {
    case kChordFindSuccessor:
      OnFindSuccessor(std::move(msg));
      return true;
    case kChordLookupResult:
      ClaimLookupResult(&rpc_, msg);  // late or foreign answers are dropped
      return true;
    case kChordGetNeighbors:
      OnGetNeighbors(*msg);
      return true;
    case kChordNotify:
      OnNotify(*msg);
      return true;
    case kChordGetFingers:
      OnGetFingers(*msg);
      return true;
    case kChordPing:
      // Only a member vouches for its ring position. A pong from a node
      // that left would keep it in its successor's predecessor slot, and
      // every probe of that successor would hand it back to the node
      // before it.
      if (state_ == State::kActive) {
        rpc_.Respond(*msg, std::make_unique<ChordPongMsg>());
      } else {
        rpc_.Refuse(*msg);
      }
      return true;
    case kChordLeave:
      OnLeave(*msg);
      return true;
    default:
      return true;  // unknown chord-range message: consume and drop
  }
}

void ChordNode::OnFindSuccessor(MessagePtr msg) {
  const auto& req = MessageCast<ChordFindSuccessorMsg>(*msg);
  if (state_ != State::kActive) {
    // Not routable (joining or left): refuse, so the sender prunes us and
    // re-routes now rather than after its ack timeout.
    if (req.rpc_id != 0) rpc_.Refuse(req);
    return;
  }
  if (req.rpc_id != 0) {
    rpc_.Respond(req, std::make_unique<ChordForwardAckMsg>());
  }
  ProcessLookupStep(req.key, req.origin, req.lookup_id, req.hops);
}

void ChordNode::OnGetNeighbors(const Message& req) {
  auto reply = std::make_unique<ChordNeighborsReplyMsg>();
  reply->has_predecessor = predecessor_.has_value();
  if (predecessor_.has_value()) reply->predecessor = *predecessor_;
  reply->successors.assign(successors_.begin(), successors_.end());
  rpc_.Respond(req, std::move(reply));
  if (!predecessor_.has_value()) return;
  if (predecessor_->peer == req.src) {
    NotePredecessorContact(req.src);
    return;
  }
  // Only our predecessor should be probing us. Any other prober sits
  // between a predecessor that may have crashed and us, and adopts that
  // predecessor as its successor from the reply; challenge it now rather
  // than at the next periodic ping, which can be two periods away.
  CheckPredecessor();
}

void ChordNode::OnNotify(const Message& req) {
  const auto& m = MessageCast<ChordNotifyMsg>(req);
  auto reply = std::make_unique<ChordNotifyReplyMsg>();
  if (m.notifier_id == id_ && m.src != self_) {
    reply->duplicate_id = true;
  } else if (predecessor_.has_value() && predecessor_->id == m.notifier_id &&
             predecessor_->peer != m.src) {
    // Two distinct peers claim the same ring position; the incumbent wins.
    reply->duplicate_id = true;
  } else if (!predecessor_.has_value() || predecessor_->peer == m.src ||
             InIntervalOpenOpen(m.notifier_id, predecessor_->id, id_)) {
    std::optional<RingPeer> old = predecessor_;
    predecessor_ = RingPeer{m.src, m.notifier_id};
    if ((!old.has_value() || old->peer != m.src) && on_predecessor_changed) {
      on_predecessor_changed(old, *predecessor_);
    }
  }
  if (predecessor_.has_value() && predecessor_->peer == m.src) {
    NotePredecessorContact(m.src);
  }
  reply->has_predecessor = predecessor_.has_value();
  if (predecessor_.has_value()) reply->predecessor = *predecessor_;
  rpc_.Respond(req, std::move(reply));
}

void ChordNode::OnGetFingers(const Message& req) {
  auto reply = std::make_unique<ChordFingersReplyMsg>();
  for (int j = 0; j < fingers_.size(); ++j) {
    if (std::optional<RingPeer> e = fingers_.entry(j)) {
      reply->fingers.push_back(*e);
    }
  }
  for (const RingPeer& s : successors_) reply->fingers.push_back(s);
  rpc_.Respond(req, std::move(reply));
}

void ChordNode::OnLeave(const Message& msg) {
  const auto& m = MessageCast<ChordLeaveMsg>(msg);
  MergeSuccessorCandidates(m.successors,
                           {&m.predecessor, m.has_predecessor ? 1u : 0u});
  if (predecessor_.has_value() && predecessor_->peer == msg.src) {
    if (m.has_predecessor && m.predecessor.peer != self_) {
      predecessor_ = m.predecessor;
    } else {
      predecessor_.reset();
    }
  }
  RemoveDeadPeer(msg.src);
}

}  // namespace flowercdn
