// Per-session memory footprint: a session pays only for the role it plays.
// A counting global operator new sees every heap allocation the code under
// test makes, so the tests can pin what attaching a session costs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>

#include "expt/env.h"
#include "flower/dring.h"
#include "flower/flower_peer.h"
#include "metrics/metrics.h"
#include "obs/stats.h"
#include "sim/network.h"
#include "sim/rpc.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "simcore/ladder_queue.h"
#include "storage/origin.h"
#include "storage/website.h"
#include "storage/workload.h"

// The message pool is off under ASan, so messages then allocate.
#if defined(__SANITIZE_ADDRESS__)
#define FLOWERCDN_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLOWERCDN_TEST_ASAN 1
#endif
#endif

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flowercdn {
namespace {

/// Heap allocations made between construction and Stop().
class AllocationWindow {
 public:
  AllocationWindow()
      : allocations_(g_allocations.load()), bytes_(g_bytes.load()) {}
  void Stop() {
    allocations_ = g_allocations.load() - allocations_;
    bytes_ = g_bytes.load() - bytes_;
  }
  uint64_t allocations() const { return allocations_; }
  uint64_t bytes() const { return bytes_; }

 private:
  uint64_t allocations_;
  uint64_t bytes_;
};

/// One petal's directory on a bare network at the default replication=1,
/// warmed up so the event slab, the stats registry and the network's
/// identity arrays already hold what a new session needs.
class FootprintTest : public ::testing::Test {
 protected:
  FootprintTest()
      : topology_(Topology::Params{}),
        network_(&sim_, &topology_),
        catalog_(MakeCatalogParams()),
        workload_(&catalog_),
        origins_(&topology_, catalog_.num_websites(), Rng(91)),
        keyspace_(catalog_.num_websites(), topology_.num_localities(),
                  kMaxDirectoryInstances) {
    ctx_.network = &network_;
    ctx_.metrics = &metrics_;
    ctx_.catalog = &catalog_;
    ctx_.workload = &workload_;
    ctx_.origins = &origins_;
    ctx_.keyspace = &keyspace_;
    ctx_.params = &params_;
    ctx_.stats = &stats_;
    ctx_.pick_dring_bootstrap = [](PeerId self) {
      return self == 1 ? kInvalidPeer : PeerId{1};
    };
    Rng place(55);
    for (PeerId id = 1; id <= 3; ++id) {
      network_.RegisterIdentity(id, topology_.PlaceInLocality(0, place));
    }
    directory_ = Make(1);
    directory_->StartAsDirectory(0, std::nullopt);
    sim_.RunUntil(10 * kMinute);
  }

  static WebsiteCatalog::Params MakeCatalogParams() {
    WebsiteCatalog::Params p;
    p.num_websites = 1;
    p.num_active = 1;
    p.objects_per_website = 50;
    return p;
  }

  std::unique_ptr<FlowerPeer> Make(PeerId id) {
    return std::make_unique<FlowerPeer>(ctx_, id, /*website=*/0,
                                        /*locality=*/0, &stores_[id - 1],
                                        Rng(id));
  }

  Simulator sim_;
  StatsRegistry stats_{[this] { return sim_.now(); }};
  Topology topology_;
  Network network_;
  MetricsCollector metrics_;
  WebsiteCatalog catalog_;
  QueryWorkload workload_;
  OriginServers origins_;
  FlowerParams params_;
  DRingKeyspace keyspace_;
  FlowerContext ctx_;
  ContentStore stores_[3];
  std::unique_ptr<FlowerPeer> directory_;
};

TEST_F(FootprintTest, ClientAttachAllocatesOnlyTheSession) {
  ASSERT_EQ(params_.replication, 1);
  AllocationWindow window;
  std::unique_ptr<FlowerPeer> client = Make(2);
  client->StartAsClient();
  window.Stop();
  // No directory index, replica log or replica table: the session object
  // is the only allocation.
  EXPECT_EQ(window.allocations(), 1u);
  EXPECT_EQ(window.bytes(), sizeof(FlowerPeer));
  EXPECT_EQ(client->role(), FlowerRole::kClient);
  EXPECT_EQ(client->replica_petals_held(), 0u);
  EXPECT_EQ(client->index().num_peers(), 0u);
}

TEST_F(FootprintTest, DirectoryAttachAllocatesItsState) {
  // The counterpart of the client case, and proof the counter sees the
  // session's own allocations: a directory builds its Chord node and its
  // directory state on top of the session object.
  AllocationWindow window;
  std::unique_ptr<FlowerPeer> dir = Make(3);
  dir->StartAsDirectory(0, PeerId{1});
  window.Stop();
  EXPECT_GT(window.allocations(), 2u);
  EXPECT_GT(window.bytes(), sizeof(FlowerPeer) + sizeof(ChordNode));
}

TEST_F(FootprintTest, ContentPeerHoldsASummaryMapOnlyOnceItStoresOne) {
  std::unique_ptr<FlowerPeer> first = Make(2);
  first->StartAsClient();
  sim_.RunUntil(sim_.now() + 2 * kHour);
  // Alone in its petal: a content peer with no gossip partner stores no
  // summary, so it holds no map.
  ASSERT_EQ(first->role(), FlowerRole::kContentPeer);
  EXPECT_FALSE(first->holds_summaries());

  // A second content peer gives both a partner; within a gossip period
  // (1 h) each has stored the other's summary.
  std::unique_ptr<FlowerPeer> second = Make(3);
  second->StartAsClient();
  sim_.RunUntil(sim_.now() + 2 * kHour);
  ASSERT_EQ(second->role(), FlowerRole::kContentPeer);
  EXPECT_TRUE(first->holds_summaries());
  EXPECT_TRUE(second->holds_summaries());
}

TEST(FootprintSizeTest, SessionObjectFitsItsBudget) {
  // Two endpoints' worth of RPC state: the session's own and, while it is a
  // ring member, its ChordNode's. D-ring lookups are ids awaited on the
  // session's endpoint. The gossip-summary and external-query maps are
  // pointers until first used.
  EXPECT_LE(sizeof(FlowerPeer), 224u);
  // The calls themselves live in the Network's table.
  EXPECT_LE(sizeof(RpcEndpoint), 32u);
}

TEST(FootprintSizeTest, PendingEventIsOneCacheLine) {
  EXPECT_EQ(sizeof(LadderQueue::Node), 64u);
  EXPECT_EQ(alignof(LadderQueue::Node), 64u);
  EXPECT_EQ(sizeof(EventFn), 32u);
}

TEST(FootprintSizeTest, IdentityWithAnEmptyCacheFitsItsBudget) {
  // An identity that never cached an object holds no hash set.
  EXPECT_LE(sizeof(ContentStore), 16u);
  EXPECT_LE(sizeof(ExperimentEnv::Identity), 24u);
}

struct PingMsg : Message {
  PingMsg() { type = 900; }
};

/// Answers every request.
class Responder : public SimNode {
 public:
  Responder(Network* network, PeerId self) : rpc_(network, self) {
    rpc_.Bind(network->Attach(self, this));
  }
  void HandleMessage(MessagePtr msg) override {
    rpc_.Respond(*msg, std::make_unique<PingMsg>());
  }

 private:
  RpcEndpoint rpc_;
};

/// Calls the responder; takes its responses.
class Caller : public SimNode {
 public:
  Caller(Network* network, PeerId self) : rpc_(network, self) {
    rpc_.Bind(network->Attach(self, this));
  }
  void HandleMessage(MessagePtr msg) override { rpc_.HandleResponse(msg); }
  RpcEndpoint& rpc() { return rpc_; }

 private:
  RpcEndpoint rpc_;
};

TEST(RpcFootprintTest, WarmRoundTripMakesNoAllocation) {
#ifdef FLOWERCDN_TEST_ASAN
  GTEST_SKIP() << "the message pool is off under ASan";
#endif
  Simulator sim;
  Topology topology(Topology::Params{});
  Network network(&sim, &topology);
  Rng place(3);
  network.RegisterIdentity(1, topology.PlaceInLocality(0, place));
  network.RegisterIdentity(2, topology.PlaceInLocality(1, place));
  Caller caller(&network, 1);
  Responder responder(&network, 2);
  struct Context {
    uint64_t a, b, c, d, e;
  };
  uint64_t answered = 0;
  auto round_trip = [&] {
    auto handler = [&answered, ctx = Context{1, 2, 3, 4, 5}](
                       const Status& status, MessagePtr resp) {
      if (status.ok() && resp != nullptr) answered += ctx.a;
    };
    static_assert(sizeof(handler) == 48, "the largest inline capture");
    caller.rpc().Call(2, std::make_unique<PingMsg>(), 5 * kSecond,
                      std::move(handler));
    sim.Run();
  };
  // Warm-up: the event slab, the message pool, the call table and its
  // index take their first blocks.
  round_trip();
  round_trip();
  AllocationWindow window;
  round_trip();
  window.Stop();
  EXPECT_EQ(window.allocations(), 0u);
  EXPECT_EQ(answered, 3u);
  EXPECT_EQ(caller.rpc().pending_calls(), 0u);
}

/// Counts what it receives.
class Sink : public SimNode {
 public:
  Sink(Network* network, PeerId self) { network->Attach(self, this); }
  void HandleMessage(MessagePtr msg) override {
    (void)msg;
    ++received_;
  }
  int received() const { return received_; }

 private:
  int received_ = 0;
};

TEST(RpcFootprintTest, WarmSendAndDeliverMakeNoAllocation) {
#ifdef FLOWERCDN_TEST_ASAN
  GTEST_SKIP() << "the message pool is off under ASan";
#endif
  // Every message is one delivery event, so its closure must fit EventFn's
  // inline buffer.
  Simulator sim;
  Topology topology(Topology::Params{});
  Network network(&sim, &topology);
  Rng place(5);
  network.RegisterIdentity(1, topology.PlaceInLocality(0, place));
  network.RegisterIdentity(2, topology.PlaceInLocality(1, place));
  Sink a(&network, 1);
  Sink b(&network, 2);
  auto exchange = [&] {
    network.Send(1, 2, std::make_unique<PingMsg>());
    network.Send(2, 1, std::make_unique<PingMsg>());
    sim.Run();
  };
  exchange();  // warm-up: the event slab and the message pool
  AllocationWindow window;
  exchange();
  window.Stop();
  EXPECT_EQ(window.allocations(), 0u);
  EXPECT_EQ(a.received(), 2);
  EXPECT_EQ(b.received(), 2);
}

}  // namespace
}  // namespace flowercdn
