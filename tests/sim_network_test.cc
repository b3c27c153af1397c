#include "sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/rpc.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/random.h"

namespace flowercdn {
namespace {

struct TestMsg : Message {
  explicit TestMsg(int v = 0) : value(v) { type = 900; }
  int value;
};

/// Records everything it receives.
class RecorderNode : public SimNode {
 public:
  void HandleMessage(MessagePtr msg) override {
    received.push_back(std::move(msg));
  }
  std::vector<MessagePtr> received;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : topology_(Topology::Params{}), network_(&sim_, &topology_) {
    Rng rng(1);
    network_.RegisterIdentity(1, topology_.PlaceInLocality(0, rng));
    network_.RegisterIdentity(2, topology_.PlaceInLocality(0, rng));
    network_.RegisterIdentity(3, topology_.PlaceInLocality(3, rng));
  }

  Simulator sim_;
  Topology topology_;
  Network network_;
  RecorderNode a_, b_, c_;
};

TEST_F(NetworkTest, DeliveryTakesTopologyLatency) {
  network_.Attach(1, &a_);
  network_.Attach(2, &b_);
  double latency = network_.LatencyMs(1, 2);
  ASSERT_GT(latency, 0);
  network_.Send(1, 2, std::make_unique<TestMsg>(7));
  sim_.Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(static_cast<const TestMsg&>(*b_.received[0]).value, 7);
  EXPECT_EQ(b_.received[0]->src, 1u);
  EXPECT_EQ(b_.received[0]->dst, 2u);
  EXPECT_EQ(sim_.now(), static_cast<SimTime>(latency));
}

TEST_F(NetworkTest, MessagesToDeadPeersAreDropped) {
  network_.Attach(1, &a_);
  network_.Send(1, 2, std::make_unique<TestMsg>());  // 2 never attached
  sim_.Run();
  EXPECT_EQ(network_.messages_dropped(), 1u);
  EXPECT_TRUE(b_.received.empty());
}

TEST_F(NetworkTest, MessageInFlightWhenReceiverDiesIsDropped) {
  network_.Attach(1, &a_);
  network_.Attach(2, &b_);
  network_.Send(1, 2, std::make_unique<TestMsg>());
  network_.Detach(2);  // dies before delivery
  sim_.Run();
  EXPECT_TRUE(b_.received.empty());
  EXPECT_GE(network_.messages_dropped(), 1u);
}

TEST_F(NetworkTest, RequestToDeadPeerBouncesTransportNack) {
  network_.Attach(1, &a_);
  auto msg = std::make_unique<TestMsg>();
  msg->rpc_id = 77;  // request semantics
  network_.Send(1, 2, std::move(msg));
  sim_.Run();
  ASSERT_EQ(a_.received.size(), 1u);
  EXPECT_EQ(a_.received[0]->type, kTransportNack);
  EXPECT_EQ(a_.received[0]->rpc_id, 77u);
}

TEST_F(NetworkTest, OneWayMessagesAreNotNacked) {
  network_.Attach(1, &a_);
  network_.Send(1, 2, std::make_unique<TestMsg>());  // rpc_id == 0
  sim_.Run();
  EXPECT_TRUE(a_.received.empty());
}

TEST_F(NetworkTest, AttachIncrementsIncarnation) {
  Incarnation i1 = network_.Attach(1, &a_);
  network_.Detach(1);
  Incarnation i2 = network_.Attach(1, &b_);
  EXPECT_EQ(i2, i1 + 1);
  EXPECT_TRUE(network_.IsAlive(1));
  EXPECT_EQ(network_.alive_count(), 1u);
}

TEST_F(NetworkTest, SchedulePeerSuppressedAfterDeath) {
  Incarnation inc = network_.Attach(1, &a_);
  bool fired = false;
  network_.SchedulePeer(1, inc, 100, [&] { fired = true; });
  network_.Detach(1);
  sim_.Run();
  EXPECT_FALSE(fired);
}

TEST_F(NetworkTest, SchedulePeerSuppressedForOldIncarnation) {
  Incarnation inc = network_.Attach(1, &a_);
  bool fired = false;
  network_.SchedulePeer(1, inc, 100, [&] { fired = true; });
  network_.Detach(1);
  network_.Attach(1, &b_);  // new incarnation
  sim_.Run();
  EXPECT_FALSE(fired) << "timer of the old session fired into the new one";
}

TEST_F(NetworkTest, SchedulePeerFiresForCurrentIncarnation) {
  Incarnation inc = network_.Attach(1, &a_);
  bool fired = false;
  network_.SchedulePeer(1, inc, 100, [&] { fired = true; });
  sim_.Run();
  EXPECT_TRUE(fired);
}

TEST_F(NetworkTest, LocalityExposedPerIdentity) {
  EXPECT_EQ(network_.LocalityOf(1), 0);
  EXPECT_EQ(network_.LocalityOf(3), 3);
  EXPECT_EQ(network_.LatencyMs(1, 1), 0.0);
}

// The keys stored at registration give exactly the topology's latency of
// the two coordinates, for a reserved universe and for the fixture's.
TEST(NetworkLatencyTest, IdentityLatencyIsTopologyLatency) {
  Simulator sim;
  Topology topology(Topology::Params{});
  Network network(&sim, &topology);
  constexpr PeerId kIdentities = 200;
  network.ReserveIdentities(kIdentities);
  Rng rng(7);
  for (PeerId p = 1; p <= kIdentities; ++p) {
    network.RegisterIdentity(
        p, topology.PlaceInLocality(static_cast<int>(p % 6), rng));
  }
  for (PeerId p = 1; p <= kIdentities; ++p) {
    EXPECT_EQ(network.LatencyMs(p, p), 0.0);
    for (PeerId q = 1; q <= kIdentities; q += 7) {
      if (q == p) continue;
      double want =
          topology.LatencyMs(network.CoordOf(p), network.CoordOf(q));
      ASSERT_EQ(network.LatencyMs(p, q), want) << p << "->" << q;
      ASSERT_EQ(network.LatencyMs(q, p), want) << q << "->" << p;
    }
  }
}

TEST(NetworkLatencyDeathTest, UnknownIdentityIsFatalAtEitherEnd) {
  Simulator sim;
  Topology topology(Topology::Params{});
  Network network(&sim, &topology);
  Rng rng(1);
  network.RegisterIdentity(1, topology.PlaceInLocality(0, rng));
  EXPECT_DEATH(network.LatencyMs(1, 2), "unknown identity 2");
  EXPECT_DEATH(network.LatencyMs(2, 1), "unknown identity 2");
}

// --- RPC endpoint ------------------------------------------------------------

class EchoNode : public SimNode {
 public:
  EchoNode(Network* network, PeerId self) : rpc_(network, self) {}
  void Start(Network* network) { rpc_.Bind(network->Attach(self(), this)); }
  PeerId self() const { return rpc_.self(); }

  void HandleMessage(MessagePtr msg) override {
    if (msg->is_response) {
      rpc_.HandleResponse(msg);
      return;
    }
    auto reply = std::make_unique<TestMsg>(
        static_cast<const TestMsg&>(*msg).value + 1);
    rpc_.Respond(*msg, std::move(reply));
  }

  RpcEndpoint& rpc() { return rpc_; }

 private:
  RpcEndpoint rpc_;
};

TEST_F(NetworkTest, RpcRoundTrip) {
  EchoNode x(&network_, 1), y(&network_, 2);
  x.Start(&network_);
  y.Start(&network_);
  int answer = 0;
  x.rpc().Call(2, std::make_unique<TestMsg>(41), 5 * kSecond,
               [&](const Status& status, MessagePtr resp) {
                 ASSERT_TRUE(status.ok());
                 answer = static_cast<const TestMsg&>(*resp).value;
               });
  sim_.Run();
  EXPECT_EQ(answer, 42);
  EXPECT_EQ(x.rpc().pending_calls(), 0u);
}

TEST_F(NetworkTest, RpcTimesOutWhenPeerSilent) {
  EchoNode x(&network_, 1);
  x.Start(&network_);
  network_.Attach(2, &b_);  // attached but RecorderNode never responds
  Status result;
  x.rpc().Call(2, std::make_unique<TestMsg>(), 500,
               [&](const Status& status, MessagePtr) { result = status; });
  sim_.Run();
  EXPECT_TRUE(result.IsTimedOut());
}

TEST_F(NetworkTest, RpcFailsFastViaNackForDeadPeer) {
  EchoNode x(&network_, 1);
  x.Start(&network_);
  Status result;
  SimTime completion = 0;
  x.rpc().Call(2, std::make_unique<TestMsg>(), 60 * kSecond,
               [&](const Status& status, MessagePtr) {
                 result = status;
                 completion = sim_.now();
               });
  sim_.Run();
  EXPECT_TRUE(result.IsUnavailable());
  EXPECT_LT(completion, kSecond) << "NACK should beat the timeout";
}

// --- Fault hook --------------------------------------------------------------

/// Scripted fault hook: applies one fixed decision to every send.
class FixedFaultHook : public NetworkFaultHook {
 public:
  FaultDecision OnSend(PeerId, PeerId, const Message&) override {
    ++calls;
    return decision;
  }
  FaultDecision decision;
  int calls = 0;
};

TEST_F(NetworkTest, FaultHookDropIsSilent) {
  network_.Attach(1, &a_);
  network_.Attach(2, &b_);
  FixedFaultHook hook;
  hook.decision.drop = true;
  network_.SetFaultHook(&hook);
  auto msg = std::make_unique<TestMsg>();
  msg->rpc_id = 9;  // request semantics — would NACK if the peer were dead
  network_.Send(1, 2, std::move(msg));
  sim_.Run();
  EXPECT_TRUE(b_.received.empty());
  EXPECT_TRUE(a_.received.empty()) << "injected loss must not NACK";
  EXPECT_EQ(hook.calls, 1);
  EXPECT_EQ(network_.messages_dropped(), 1u);
  EXPECT_EQ(network_.traffic().injected_loss.messages, 1u);
  EXPECT_EQ(network_.traffic().dropped.messages, 0u)
      << "injected loss is accounted separately from dead-peer drops";
}

TEST_F(NetworkTest, FaultHookDelayShiftsDelivery) {
  network_.Attach(1, &a_);
  network_.Attach(2, &b_);
  FixedFaultHook hook;
  hook.decision.extra_delay_ms = 250;
  network_.SetFaultHook(&hook);
  double latency = network_.LatencyMs(1, 2);
  network_.Send(1, 2, std::make_unique<TestMsg>());
  sim_.Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(sim_.now(), static_cast<SimTime>(latency) + 250);
}

TEST_F(NetworkTest, FaultHookDuplicatesCountBandwidthOnly) {
  network_.Attach(1, &a_);
  network_.Attach(2, &b_);
  FixedFaultHook hook;
  hook.decision.duplicates = 1;
  network_.SetFaultHook(&hook);
  network_.Send(1, 2, std::make_unique<TestMsg>());
  sim_.Run();
  ASSERT_EQ(b_.received.size(), 1u)
      << "transport dedup: the payload is delivered once";
  EXPECT_EQ(network_.messages_sent(), 2u) << "the wire carried two copies";
}

TEST_F(NetworkTest, FaultHookUninstallRestoresCleanPath) {
  network_.Attach(1, &a_);
  network_.Attach(2, &b_);
  FixedFaultHook hook;
  hook.decision.drop = true;
  network_.SetFaultHook(&hook);
  network_.SetFaultHook(nullptr);
  network_.Send(1, 2, std::make_unique<TestMsg>());
  sim_.Run();
  EXPECT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(hook.calls, 0);
}

// --- RPC cancellation --------------------------------------------------------

TEST_F(NetworkTest, CancelAllDropsPendingCallsWithoutCallbacks) {
  EchoNode x(&network_, 1);
  x.Start(&network_);
  network_.Attach(2, &b_);  // alive but silent: the call would time out
  int callbacks = 0;
  x.rpc().Call(2, std::make_unique<TestMsg>(), 5 * kSecond,
               [&](const Status&, MessagePtr) { ++callbacks; });
  x.rpc().Call(2, std::make_unique<TestMsg>(), 5 * kSecond,
               [&](const Status&, MessagePtr) { ++callbacks; });
  EXPECT_EQ(x.rpc().pending_calls(), 2u);
  EXPECT_EQ(x.rpc().CancelAll(), 2u);
  EXPECT_EQ(x.rpc().pending_calls(), 0u);
  sim_.Run();
  EXPECT_EQ(callbacks, 0) << "cancelled calls must not fire handlers";
  EXPECT_EQ(network_.traffic().rpc_cancelled, 2u);
}

TEST_F(NetworkTest, EndpointDestructionCancelsPendingCalls) {
  {
    EchoNode x(&network_, 1);
    x.Start(&network_);
    network_.Attach(2, &b_);
    x.rpc().Call(2, std::make_unique<TestMsg>(), 5 * kSecond,
                 [&](const Status&, MessagePtr) { FAIL(); });
    network_.Detach(1);
  }  // endpoint destroyed with one call in flight
  sim_.Run();
  EXPECT_EQ(network_.traffic().rpc_cancelled, 1u);
}

TEST_F(NetworkTest, LateResponseAfterTimeoutIsIgnored) {
  EchoNode x(&network_, 1), y(&network_, 2);
  x.Start(&network_);
  y.Start(&network_);
  int calls = 0;
  // Timeout far below one-way latency: the response arrives late.
  x.rpc().Call(2, std::make_unique<TestMsg>(1), 1,
               [&](const Status& status, MessagePtr) {
                 ++calls;
                 EXPECT_TRUE(status.IsTimedOut());
               });
  sim_.Run();
  EXPECT_EQ(calls, 1) << "handler must run exactly once";
}

// --- Shared call table -------------------------------------------------------

/// A host with two endpoints, as a FlowerPeer holds its own and its Chord
/// node's: a response goes to the first that claims it.
class TwoEndpointHost : public SimNode {
 public:
  TwoEndpointHost(Network* network, PeerId self)
      : first_(network, self),
        second_(std::make_unique<RpcEndpoint>(network, self)) {}
  void Start(Network* network) {
    Incarnation inc = network->Attach(first_.self(), this);
    first_.Bind(inc);
    second_->Bind(inc);
  }
  void HandleMessage(MessagePtr msg) override {
    ASSERT_TRUE(msg->is_response);
    if (first_.HandleResponse(msg)) return;
    if (second_ != nullptr && second_->HandleResponse(msg)) return;
    ++unclaimed;
  }
  RpcEndpoint& first() { return first_; }
  RpcEndpoint& second() { return *second_; }
  void DestroySecond() { second_.reset(); }

  int unclaimed = 0;

 private:
  RpcEndpoint first_;
  std::unique_ptr<RpcEndpoint> second_;
};

TEST_F(NetworkTest, TwoEndpointsOnOneHostEachGetTheirOwnResponses) {
  TwoEndpointHost host(&network_, 1);
  EchoNode echo(&network_, 2);
  host.Start(&network_);
  echo.Start(&network_);
  int first_answer = 0, second_answer = 0;
  // The second endpoint's response arrives first and is offered to the
  // first endpoint while that one still waits for its own.
  host.second().Call(2, std::make_unique<TestMsg>(20), 5 * kSecond,
                     [&](const Status& status, MessagePtr resp) {
                       ASSERT_TRUE(status.ok());
                       second_answer =
                           static_cast<const TestMsg&>(*resp).value;
                     });
  host.first().Call(2, std::make_unique<TestMsg>(10), 5 * kSecond,
                    [&](const Status& status, MessagePtr resp) {
                      ASSERT_TRUE(status.ok());
                      first_answer = static_cast<const TestMsg&>(*resp).value;
                    });
  EXPECT_EQ(host.first().pending_calls(), 1u);
  EXPECT_EQ(host.second().pending_calls(), 1u);
  EXPECT_EQ(network_.rpc_calls().live(), 2u);
  sim_.Run();
  EXPECT_EQ(first_answer, 11);
  EXPECT_EQ(second_answer, 21);
  EXPECT_EQ(host.unclaimed, 0);
  EXPECT_EQ(host.first().pending_calls(), 0u);
  EXPECT_EQ(host.second().pending_calls(), 0u);
  EXPECT_EQ(network_.rpc_calls().live(), 0u);
}

TEST_F(NetworkTest, ResponseForAnotherEndpointsCallIsRefusedIntact) {
  TwoEndpointHost host(&network_, 1);
  host.Start(&network_);
  network_.Attach(2, &b_);  // silent: the response is built by hand
  int answer = 0;
  uint64_t id = host.first().Call(
      2, std::make_unique<TestMsg>(), 5 * kSecond,
      [&](const Status& status, MessagePtr resp) {
        ASSERT_TRUE(status.ok());
        answer = static_cast<const TestMsg&>(*resp).value;
      });
  // The second endpoint waits on a call of its own.
  host.second().Call(2, std::make_unique<TestMsg>(), 5 * kSecond,
                     [](const Status&, MessagePtr) {});
  MessagePtr resp = std::make_unique<TestMsg>(7);
  resp->rpc_id = id;
  resp->is_response = true;
  resp->src = 2;
  EXPECT_FALSE(host.second().HandleResponse(resp));
  ASSERT_NE(resp, nullptr) << "a refused response is left untouched";
  EXPECT_EQ(static_cast<const TestMsg&>(*resp).value, 7);
  EXPECT_EQ(resp->rpc_id, id);
  EXPECT_EQ(host.first().pending_calls(), 1u);
  EXPECT_TRUE(host.first().HandleResponse(resp));
  EXPECT_EQ(answer, 7);
  EXPECT_EQ(host.first().pending_calls(), 0u);
  sim_.Run();  // the cancelled timeout stays silent
  EXPECT_EQ(answer, 7);
}

TEST_F(NetworkTest, DestroyingOneEndpointCancelsOnlyItsCalls) {
  TwoEndpointHost host(&network_, 1);
  EchoNode echo(&network_, 2);
  host.Start(&network_);
  echo.Start(&network_);
  int answered = 0;
  for (int i = 0; i < 2; ++i) {
    host.first().Call(2, std::make_unique<TestMsg>(i), 5 * kSecond,
                      [&, i](const Status& status, MessagePtr resp) {
                        ASSERT_TRUE(status.ok());
                        EXPECT_EQ(static_cast<const TestMsg&>(*resp).value,
                                  i + 1);
                        ++answered;
                      });
  }
  for (int i = 0; i < 3; ++i) {
    host.second().Call(2, std::make_unique<TestMsg>(), 5 * kSecond,
                       [&](const Status&, MessagePtr) { FAIL(); });
  }
  host.DestroySecond();
  EXPECT_EQ(network_.traffic().rpc_cancelled, 3u);
  EXPECT_EQ(host.first().pending_calls(), 2u);
  EXPECT_EQ(network_.rpc_calls().live(), 2u);
  sim_.Run();
  EXPECT_EQ(answered, 2);
  EXPECT_EQ(host.unclaimed, 3) << "the destroyed endpoint's responses";
  EXPECT_EQ(network_.traffic().rpc_cancelled, 3u);
}

TEST(RpcCallTableTest, RandomAddRemoveMatchesReference) {
  // Many endpoints' lists interleaved in one table, through index growth
  // and every removal order: each live id finds its slot, each list holds
  // exactly its endpoint's calls.
  RpcCallTable table;
  constexpr int kOwners = 5;
  RpcEndpoint* owners[kOwners];
  for (int o = 0; o < kOwners; ++o) {
    owners[o] = reinterpret_cast<RpcEndpoint*>(uintptr_t{64} * (o + 1));
  }
  uint32_t heads[kOwners];
  std::fill(heads, heads + kOwners, RpcCallTable::kNone);
  std::vector<std::pair<uint64_t, int>> live;  // (id, owner)
  Rng rng(5);
  uint64_t next_id = 1;
  size_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    // Drift up to a few hundred calls in flight, then back down.
    const bool add = live.empty() || rng.NextBool(step < 10000 ? 0.55 : 0.45);
    if (add) {
      const int o = static_cast<int>(rng.Index(kOwners));
      const uint64_t id = next_id;
      next_id += 1 + rng.Index(3);
      table.Add(id, owners[o], &heads[o], /*timeout_event=*/id,
                [](const Status&, MessagePtr) {});
      live.emplace_back(id, o);
    } else {
      const size_t k = rng.Index(live.size());
      const auto [id, o] = live[k];
      const uint32_t slot = table.Find(id);
      ASSERT_NE(slot, RpcCallTable::kNone) << "step " << step;
      EXPECT_EQ(table.at(slot).owner, owners[o]);
      EXPECT_EQ(table.at(slot).timeout_event, id);
      EXPECT_TRUE(static_cast<bool>(table.Remove(slot, &heads[o])));
      EXPECT_EQ(table.Find(id), RpcCallTable::kNone) << "step " << step;
      live[k] = live.back();
      live.pop_back();
    }
    peak = std::max(peak, live.size());
    ASSERT_EQ(table.live(), live.size());
    if (step % 997 != 0) continue;
    for (const auto& [id, o] : live) {
      const uint32_t slot = table.Find(id);
      ASSERT_NE(slot, RpcCallTable::kNone);
      EXPECT_EQ(table.at(slot).id, id);
    }
    size_t listed = 0;
    for (int o = 0; o < kOwners; ++o) {
      uint32_t prev = RpcCallTable::kNone;
      for (uint32_t s = heads[o]; s != RpcCallTable::kNone;
           s = table.at(s).next) {
        EXPECT_EQ(table.at(s).owner, owners[o]);
        EXPECT_EQ(table.at(s).prev, prev);
        prev = s;
        ++listed;
      }
    }
    EXPECT_EQ(listed, live.size());
  }
  EXPECT_GT(peak, 100u);
  EXPECT_EQ(table.slots(), peak) << "freed slots are reused";
}

}  // namespace
}  // namespace flowercdn
