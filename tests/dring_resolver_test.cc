// D-ring access for peers outside the ring (paper §3.2): a lookup delegated
// to a bootstrap member through StartLookup with Flower's DRingRoute.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chord/chord_node.h"
#include "chord/lookup.h"
#include "chord/messages.h"
#include "flower/dring.h"
#include "sim/network.h"
#include "sim/rpc.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/random.h"

namespace flowercdn {
namespace {

/// Host combining a ChordNode (ring member) for bootstrap duty.
class RingHost : public SimNode {
 public:
  RingHost(Network* network, PeerId self, ChordId id)
      : chord_(network, self, id, ChordNode::Params{}) {}
  void HandleMessage(MessagePtr msg) override { chord_.HandleMessage(msg); }
  ChordNode& chord() { return chord_; }

 private:
  ChordNode chord_;
};

/// Host for a non-ring client: one RpcEndpoint and nothing else, like a
/// Flower client session.
class ClientHost : public SimNode {
 public:
  ClientHost(Network* network, PeerId self) : rpc_(network, self) {}
  void HandleMessage(MessagePtr msg) override {
    if (ClaimLookupResult(&rpc_, msg)) return;
    if (msg->type == kChordLookupResult) ++unclaimed_results_;
    rpc_.HandleResponse(msg);
  }
  void Resolve(PeerId via, ChordId key, SimDuration deadline,
               LookupCallback cb) {
    StartLookup(&rpc_, key, DRingRoute(via, deadline), std::move(cb));
  }
  RpcEndpoint& rpc() { return rpc_; }
  int unclaimed_results() const { return unclaimed_results_; }

 private:
  RpcEndpoint rpc_;
  int unclaimed_results_ = 0;
};

class DRingResolverTest : public ::testing::Test {
 protected:
  DRingResolverTest()
      : topology_(Topology::Params{}), network_(&sim_, &topology_) {}

  void BuildRing(int n) {
    Rng rng(3);
    for (int i = 0; i < n; ++i) {
      PeerId p = static_cast<PeerId>(i + 1);
      network_.RegisterIdentity(p, topology_.PlaceInLocality(i % 6, rng));
      ring_.push_back(std::make_unique<RingHost>(
          &network_, p, ChordHash("n" + std::to_string(i))));
      Incarnation inc = network_.Attach(p, ring_.back().get());
      ring_.back()->chord().Bind(inc);
    }
    ring_[0]->chord().CreateRing();
    for (int i = 1; i < n; ++i) {
      sim_.Schedule(i * 100, [this, i]() {
        ring_[i]->chord().Join(1, [](const Status& s) {
          ASSERT_TRUE(s.ok());
        });
      });
    }
    sim_.RunUntil(sim_.now() + 5 * kMinute);
  }

  ClientHost* MakeClient(PeerId id) {
    Rng rng(id);
    network_.RegisterIdentity(id, topology_.PlaceInLocality(0, rng));
    clients_.push_back(std::make_unique<ClientHost>(&network_, id));
    Incarnation inc = network_.Attach(id, clients_.back().get());
    clients_.back()->rpc().Bind(inc);
    return clients_.back().get();
  }

  /// Ground truth: the ring member clockwise-closest to `key`.
  PeerId ExpectedOwner(ChordId key) const {
    ChordId best = 0;
    PeerId expected = kInvalidPeer;
    for (const auto& h : ring_) {
      ChordId d = RingDistance(key, h->chord().id());
      if (expected == kInvalidPeer || d < best) {
        best = d;
        expected = h->chord().self();
      }
    }
    return expected;
  }

  Simulator sim_;
  Topology topology_;
  Network network_;
  std::vector<std::unique_ptr<RingHost>> ring_;
  std::vector<std::unique_ptr<ClientHost>> clients_;
};

TEST_F(DRingResolverTest, ResolvesThroughBootstrap) {
  BuildRing(12);
  ClientHost* client = MakeClient(100);
  Rng keys(7);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    ChordId key = keys.Next();
    client->Resolve(
        /*via=*/5, key, 6 * kSecond,
        [&, key](const Status& status, RingPeer owner, int hops) {
          ASSERT_TRUE(status.ok()) << status.ToString();
          EXPECT_GE(hops, 0) << "routed answers must report their hop count";
          EXPECT_EQ(owner.peer, ExpectedOwner(key));
          ++completed;
        });
  }
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(client->rpc().awaited(), 0u);
}

TEST_F(DRingResolverTest, DeadBootstrapFailsFast) {
  BuildRing(6);
  ClientHost* client = MakeClient(100);
  network_.Detach(3);
  Status result;
  SimTime started_at = sim_.now();
  SimTime completed_at = 0;
  client->Resolve(3, 12345, 30 * kSecond,
                  [&](const Status& status, RingPeer, int hops) {
                    result = status;
                    completed_at = sim_.now();
                    EXPECT_EQ(hops, -1);
                  });
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_TRUE(result.IsUnavailable()) << result.ToString();
  EXPECT_LT(completed_at - started_at, 3 * kSecond)
      << "should fail via NACK, not timeout";
}

TEST_F(DRingResolverTest, SilentRingTimesOut) {
  BuildRing(6);
  ClientHost* client = MakeClient(100);
  // Kill everyone after the bootstrap acks: the answer never arrives.
  Status result;
  client->Resolve(2, 999, 3 * kSecond,
                  [&](const Status& status, RingPeer, int) {
                    result = status;
                  });
  // Let the request reach peer 2, then kill the whole ring.
  sim_.RunUntil(sim_.now() + 50);
  for (int i = 0; i < 6; ++i) {
    if (network_.IsAlive(static_cast<PeerId>(i + 1))) {
      network_.Detach(static_cast<PeerId>(i + 1));
    }
  }
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_FALSE(result.ok());
}

TEST_F(DRingResolverTest, UnrelatedLookupResultsAreNotClaimed) {
  BuildRing(4);
  ClientHost* client = MakeClient(100);
  // Forge a lookup result with an unknown id; the client must not crash
  // or consume state.
  auto forged = std::make_unique<ChordLookupResultMsg>();
  forged->lookup_id = 424242;
  forged->owner = RingPeer{1, 1};
  network_.Send(1, 100, std::move(forged));
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(client->rpc().awaited(), 0u);
  EXPECT_EQ(client->unclaimed_results(), 1);
}

TEST_F(DRingResolverTest, LookupsInFlightLiveOnlyInTheCallTable) {
  BuildRing(12);
  ClientHost* client = MakeClient(100);
  const RpcCallTable& calls = network_.rpc_calls();
  const size_t before = calls.live();
  Rng keys(11);
  int completed = 0;
  constexpr int kResolves = 25;
  for (int i = 0; i < kResolves; ++i) {
    client->Resolve(/*via=*/5, keys.Next(), 6 * kSecond,
                    [&](const Status& status, RingPeer, int) {
                      EXPECT_TRUE(status.ok()) << status.ToString();
                      ++completed;
                    });
  }
  // Each resolution is one awaited lookup id plus the bootstrap's ack call,
  // both in the Network's table.
  EXPECT_EQ(client->rpc().awaited(), size_t{kResolves});
  EXPECT_EQ(client->rpc().pending_calls(), size_t{kResolves});
  EXPECT_EQ(calls.live(), before + 2 * kResolves);
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(completed, kResolves);
  // Nothing stays behind: not in the table, not in the session.
  EXPECT_EQ(client->rpc().awaited(), 0u);
  EXPECT_EQ(client->rpc().pending_calls(), 0u);
  for (const auto& h : ring_) network_.Detach(h->chord().self());
  ring_.clear();  // the members' maintenance calls end with them
  EXPECT_EQ(calls.live(), 0u);
}

TEST_F(DRingResolverTest, ASessionThatDiesCancelsNoLookupAsAnRpc) {
  BuildRing(6);
  ClientHost* client = MakeClient(100);
  client->Resolve(2, 999, 6 * kSecond, [](const Status&, RingPeer, int) {
    ADD_FAILURE() << "an abandoned lookup must not call back";
  });
  // The ack is in flight; the lookup is awaited.
  const uint64_t cancelled = network_.traffic().rpc_cancelled;
  EXPECT_EQ(client->rpc().CancelAll(), 1u);  // the ack call only
  EXPECT_EQ(network_.traffic().rpc_cancelled, cancelled + 1);
  EXPECT_EQ(client->rpc().awaited(), 0u);
  // The answer, and later the lookup's deadline, find nothing.
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(client->unclaimed_results(), 1);
}

}  // namespace
}  // namespace flowercdn
