#include "chord/lookup.h"

#include <memory>
#include <utility>

#include "chord/chord_node.h"
#include "chord/messages.h"
#include "sim/network.h"
#include "simcore/message_pool.h"
#include "util/logging.h"

namespace flowercdn {

namespace {

const Status kDelegateUnreachable =
    Status::Unavailable("lookup delegate unreachable");
// A delegate that does not ack ends its attempt early; like a passed
// deadline, that is retried while attempts remain.
const Status kAttemptAbandoned = Status::TimedOut("lookup attempt abandoned");
const Status kNotInRing = Status::FailedPrecondition("not in ring");

/// A lookup in flight, owned by the handler of its awaited id.
struct InFlightLookup {
  // Lookups come and go at message rates, so their blocks are reused the
  // way messages' are.
  static void* operator new(size_t size) { return PooledAlloc(size); }
  static void operator delete(void* p, size_t size) noexcept {
    PooledFree(p, size);
  }

  RpcEndpoint* rpc = nullptr;
  ChordId key = 0;
  LookupRoute route;
  uint64_t id = 0;
  int attempts = 0;
  LookupCallback done;
};

void Attempt(std::unique_ptr<InFlightLookup> lookup);

/// The end of an attempt: the answer, a timeout, or a failure.
void EndAttempt(std::unique_ptr<InFlightLookup> lookup, const Status& status,
                MessagePtr msg) {
  if (status.code() == StatusCode::kTimedOut &&
      lookup->attempts < lookup->route.max_attempts) {
    Attempt(std::move(lookup));
    return;
  }
  LookupCallback done = std::move(lookup->done);
  lookup.reset();
  if (!status.ok()) return done(status, RingPeer{}, /*hops=*/-1);
  const auto& result = MessageCast<ChordLookupResultMsg>(*msg);
  done(status, result.owner, result.hops);
}

void Attempt(std::unique_ptr<InFlightLookup> lookup) {
  ++lookup->attempts;
  RpcEndpoint* rpc = lookup->rpc;
  const uint64_t id = lookup->id;
  const ChordId key = lookup->key;
  const LookupRoute route = lookup->route;
  const bool last = lookup->attempts >= route.max_attempts;
  // From here on the lookup may end at any call, so only the copies above
  // are used.
  rpc->Await(id, route.attempt_timeout,
             [lookup = std::move(lookup)](const Status& status,
                                          MessagePtr msg) mutable {
               EndAttempt(std::move(lookup), status, std::move(msg));
             });
  if (route.via != kInvalidPeer) {
    rpc->Call(route.via, MakeFindSuccessor(key, rpc->self(), id, /*hops=*/0),
              route.ack_timeout,
              [rpc, id, last](const Status& status, MessagePtr) {
                if (status.ok()) return;  // acked; the answer will be routed
                rpc->EndWait(id, last ? kDelegateUnreachable : kAttemptAbandoned);
              });
    return;
  }
  if (!route.router->RouteOwnLookup(key, id)) rpc->EndWait(id, kNotInRing);
}

}  // namespace

void StartLookup(RpcEndpoint* rpc, ChordId key, const LookupRoute& route,
                 LookupCallback done) {
  FLOWERCDN_CHECK(route.max_attempts >= 1);
  FLOWERCDN_CHECK(route.via != kInvalidPeer || route.router != nullptr);
  auto lookup = std::make_unique<InFlightLookup>();
  lookup->rpc = rpc;
  lookup->key = key;
  lookup->route = route;
  lookup->id = rpc->network()->NextRpcId();
  lookup->done = std::move(done);
  Attempt(std::move(lookup));
}

bool ClaimLookupResult(RpcEndpoint* rpc, MessagePtr& msg) {
  if (msg->type != kChordLookupResult) return false;
  const uint64_t id = MessageCast<ChordLookupResultMsg>(*msg).lookup_id;
  return rpc->EndWait(id, Status::OK(), &msg);
}

}  // namespace flowercdn
