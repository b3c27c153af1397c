#include "sim/rpc.h"

#include <bit>
#include <utility>

#include "sim/network.h"
#include "util/logging.h"

namespace flowercdn {

namespace {

// Failures carry fixed statuses: nothing reads their text, and a string
// built per failure was a heap allocation per timeout and per NACK.
const Status kCallTimedOut = Status::TimedOut("rpc timed out");
const Status kPeerUnreachable = Status::Unavailable("peer unreachable");
const Status kRequestRefused = Status::Unavailable("request refused");
const Status kAwaitTimedOut = Status::TimedOut("awaited answer timed out");

}  // namespace

// --- RpcCallTable ------------------------------------------------------------

size_t RpcCallTable::Home(uint64_t id) const {
  // Fibonacci hashing: rpc ids are consecutive, and the multiply spreads
  // them over the top bits.
  return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> index_shift_);
}

void RpcCallTable::Add(uint64_t id, RpcEndpoint* owner, uint32_t* head,
                       EventId timeout_event, Handler handler,
                       bool awaited) {
  FLOWERCDN_CHECK(id != 0);
  uint32_t slot = free_;
  if (slot != kNone) {
    free_ = slots_[slot].next;
  } else {
    FLOWERCDN_CHECK(slots_.size() < kNone);
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Call& call = slots_[slot];
  call.id = id;
  call.owner = owner;
  call.prev = kNone;
  call.next = *head;
  call.timeout_event = timeout_event;
  call.awaited = awaited;
  call.handler = std::move(handler);
  if (*head != kNone) slots_[*head].prev = slot;
  *head = slot;
  ++live_;
  if (live_ * 2 > index_.size()) {
    GrowIndex();  // re-inserts this call too
  } else {
    IndexInsert(id, slot);
  }
}

uint32_t RpcCallTable::Find(uint64_t id) const {
  if (index_.empty()) return kNone;
  const size_t mask = index_.size() - 1;
  for (size_t b = Home(id);; b = (b + 1) & mask) {
    if (index_[b].id == id) return index_[b].slot;
    if (index_[b].id == 0) return kNone;
  }
}

RpcCallTable::Handler RpcCallTable::Remove(uint32_t slot, uint32_t* head) {
  Call& call = slots_[slot];
  FLOWERCDN_CHECK(call.id != 0) << "removing a free rpc slot";
  IndexErase(call.id);
  if (call.prev != kNone) {
    slots_[call.prev].next = call.next;
  } else {
    *head = call.next;
  }
  if (call.next != kNone) slots_[call.next].prev = call.prev;
  Handler handler = std::move(call.handler);
  call.id = 0;
  call.next = free_;
  free_ = slot;
  --live_;
  return handler;
}

void RpcCallTable::GrowIndex() {
  const size_t size = index_.empty() ? 64 : index_.size() * 2;
  index_.assign(size, IndexEntry{});
  index_shift_ = 64 - std::countr_zero(size);
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].id != 0) IndexInsert(slots_[s].id, static_cast<uint32_t>(s));
  }
}

void RpcCallTable::IndexInsert(uint64_t id, uint32_t slot) {
  const size_t mask = index_.size() - 1;
  size_t b = Home(id);
  while (index_[b].id != 0) b = (b + 1) & mask;
  index_[b] = IndexEntry{id, slot};
}

void RpcCallTable::IndexErase(uint64_t id) {
  const size_t mask = index_.size() - 1;
  size_t hole = Home(id);
  while (index_[hole].id != id) hole = (hole + 1) & mask;
  // Backward shift: pull later entries of the probe run into the hole
  // unless that would move one before its home bucket.
  for (size_t b = (hole + 1) & mask; index_[b].id != 0; b = (b + 1) & mask) {
    const size_t home = Home(index_[b].id);
    const bool stays = hole <= b ? (hole < home && home <= b)
                                 : (hole < home || home <= b);
    if (stays) continue;
    index_[hole] = index_[b];
    hole = b;
  }
  index_[hole] = IndexEntry{};
}

// --- RpcEndpoint -------------------------------------------------------------

RpcEndpoint::RpcEndpoint(Network* network, PeerId self)
    : network_(network), self_(self) {
  FLOWERCDN_CHECK(network != nullptr);
}

uint32_t RpcEndpoint::FindOwn(uint64_t id, bool awaited) const {
  const RpcCallTable& calls = network_->rpc_calls();
  uint32_t slot = calls.Find(id);
  if (slot == RpcCallTable::kNone || calls.at(slot).owner != this ||
      calls.at(slot).awaited != awaited) {
    return RpcCallTable::kNone;
  }
  return slot;
}

RpcEndpoint::ResponseHandler RpcEndpoint::Take(uint32_t slot) {
  RpcCallTable& calls = network_->rpc_calls();
  --(calls.at(slot).awaited ? awaited_ : count_);
  return calls.Remove(slot, &head_);
}

size_t RpcEndpoint::CancelAll() {
  if (head_ == RpcCallTable::kNone) return 0;
  const size_t n = count_;
  RpcCallTable& calls = network_->rpc_calls();
  while (head_ != RpcCallTable::kNone) {
    if (!calls.at(head_).awaited) {
      network_->sim()->Cancel(calls.at(head_).timeout_event);
    }
    Take(head_);  // drops the handler uninvoked
  }
  if (n > 0) network_->NoteRpcCancelled(n);
  return n;
}

uint64_t RpcEndpoint::Call(PeerId dst, MessagePtr request, SimDuration timeout,
                           ResponseHandler handler) {
  FLOWERCDN_CHECK(request != nullptr);
  FLOWERCDN_CHECK(timeout > 0);
  uint64_t id = network_->NextRpcId();
  request->rpc_id = id;
  request->is_response = false;

  EventId timeout_event = network_->SchedulePeer(
      self_, incarnation_, timeout, [this, id]() {
        uint32_t slot = network_->rpc_calls().Find(id);
        if (slot == RpcCallTable::kNone) return;  // answered in time
        ResponseHandler handler = Take(slot);
        handler(kCallTimedOut, nullptr);
      });

  network_->rpc_calls().Add(id, this, &head_, timeout_event,
                            std::move(handler));
  ++count_;
  network_->Send(self_, dst, std::move(request));
  return id;
}

bool RpcEndpoint::HandleResponse(MessagePtr& msg) {
  FLOWERCDN_CHECK(msg != nullptr);
  if (!msg->is_response || msg->rpc_id == 0 || count_ == 0) return false;
  uint32_t slot = FindOwn(msg->rpc_id, /*awaited=*/false);
  if (slot == RpcCallTable::kNone) {
    // Not ours (another endpoint of the host) or late: the caller decides;
    // unclaimed responses are dropped by the host.
    return false;
  }
  network_->sim()->Cancel(network_->rpc_calls().at(slot).timeout_event);
  ResponseHandler handler = Take(slot);
  if (msg->type == kTransportNack) {
    handler(kPeerUnreachable, nullptr);
  } else if (msg->type == kRpcRefused) {
    handler(kRequestRefused, nullptr);
  } else {
    handler(Status::OK(), std::move(msg));
  }
  return true;
}

void RpcEndpoint::Respond(const Message& request, MessagePtr response) {
  FLOWERCDN_CHECK(response != nullptr);
  FLOWERCDN_CHECK(request.rpc_id != 0) << "responding to a one-way message";
  response->rpc_id = request.rpc_id;
  response->is_response = true;
  network_->Send(self_, request.src, std::move(response));
}

void RpcEndpoint::Refuse(const Message& request) {
  Respond(request, std::make_unique<RpcRefusedMsg>());
}

void RpcEndpoint::Await(uint64_t id, SimDuration timeout,
                        ResponseHandler handler) {
  FLOWERCDN_CHECK(id != 0);
  FLOWERCDN_CHECK(timeout > 0);
  FLOWERCDN_CHECK(handler);
  // The timeout outlives CancelAll, so it reaches the endpoint only through
  // an entry that is still in the table.
  EventId timeout_event = network_->SchedulePeer(
      self_, incarnation_, timeout, [network = network_, id]() {
        RpcCallTable& calls = network->rpc_calls();
        uint32_t slot = calls.Find(id);
        if (slot == RpcCallTable::kNone) return;  // answered or dropped
        ResponseHandler handler = calls.at(slot).owner->Take(slot);
        handler(kAwaitTimedOut, nullptr);
      });
  network_->rpc_calls().Add(id, this, &head_, timeout_event,
                            std::move(handler), /*awaited=*/true);
  ++awaited_;
}

bool RpcEndpoint::EndWait(uint64_t id, const Status& status,
                          MessagePtr* msg) {
  if (awaited_ == 0) return false;
  uint32_t slot = FindOwn(id, /*awaited=*/true);
  if (slot == RpcCallTable::kNone) return false;
  network_->sim()->Cancel(network_->rpc_calls().at(slot).timeout_event);
  ResponseHandler handler = Take(slot);
  handler(status, msg != nullptr ? std::move(*msg) : nullptr);
  return true;
}

void RpcEndpoint::FailAwaited(const Status& status) {
  if (awaited_ == 0) return;
  RpcCallTable& calls = network_->rpc_calls();
  // The list runs newest first: find its end, then walk back.
  uint32_t slot = head_;
  while (calls.at(slot).next != RpcCallTable::kNone) slot = calls.at(slot).next;
  std::vector<ResponseHandler> handlers;
  handlers.reserve(awaited_);
  while (slot != RpcCallTable::kNone) {
    const uint32_t prev = calls.at(slot).prev;
    if (calls.at(slot).awaited) {
      network_->sim()->Cancel(calls.at(slot).timeout_event);
      handlers.push_back(Take(slot));
    }
    slot = prev;
  }
  for (ResponseHandler& handler : handlers) handler(status, nullptr);
}

}  // namespace flowercdn
