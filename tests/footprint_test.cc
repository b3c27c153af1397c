// Per-session memory footprint: a session pays only for the role it plays.
// A counting global operator new sees every heap allocation the code under
// test makes, so the tests can pin what attaching a session costs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>

#include "flower/dring.h"
#include "flower/flower_peer.h"
#include "metrics/metrics.h"
#include "obs/stats.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "storage/origin.h"
#include "storage/website.h"
#include "storage/workload.h"

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
        workload_(&catalog_, QueryWorkload::Params{}),
        origins_(&topology_, catalog_.num_websites(),
                 OriginServers::Params{}, Rng(91)),
        keyspace_(catalog_.num_websites(), topology_.num_localities(),
                  params_.max_instances) {
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

TEST(FootprintSizeTest, SessionObjectFitsItsBudget) {
  EXPECT_LE(sizeof(FlowerPeer), 512u);
}

}  // namespace
}  // namespace flowercdn
