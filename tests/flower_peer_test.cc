#include "flower/flower_peer.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "flower/dring.h"
#include "metrics/metrics.h"
#include "obs/stats.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "storage/origin.h"
#include "storage/website.h"
#include "storage/workload.h"

namespace flowercdn {
namespace {

/// Hand-wired micro-harness: a handful of FlowerPeers on a bare network,
/// no churn driver — lets tests poke individual protocol transitions.
class FlowerPeerHarness : public ::testing::Test {
 protected:
  FlowerPeerHarness()
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
    ctx_.pick_dring_bootstrap = [this](PeerId self) {
      for (PeerId p : directory_registry_) {
        if (p != self && network_.IsAlive(p)) return p;
      }
      return kInvalidPeer;
    };
    ctx_.on_role_change = [this](PeerId peer, FlowerRole role) {
      if (role == FlowerRole::kDirectoryPeer) {
        directory_registry_.push_back(peer);
      } else {
        std::erase(directory_registry_, peer);
      }
    };
  }

  static WebsiteCatalog::Params MakeCatalogParams() {
    WebsiteCatalog::Params p;
    p.num_websites = 2;
    p.num_active = 2;
    p.objects_per_website = 50;
    return p;
  }

  FlowerPeer* MakePeer(PeerId id, WebsiteId ws, LocalityId loc) {
    network_.RegisterIdentity(id, topology_.PlaceInLocality(loc, place_rng_));
    stores_[id] = std::make_unique<ContentStore>();
    auto peer = std::make_unique<FlowerPeer>(ctx_, id, ws, loc,
                                             stores_[id].get(), Rng(id));
    FlowerPeer* raw = peer.get();
    peers_[id] = std::move(peer);
    return raw;
  }

  void Kill(PeerId id) {
    network_.Detach(id);
    std::erase(directory_registry_, id);
    peers_.erase(id);
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
  Rng place_rng_{55};
  std::vector<PeerId> directory_registry_;
  std::unordered_map<PeerId, std::unique_ptr<FlowerPeer>> peers_;
  std::unordered_map<PeerId, std::unique_ptr<ContentStore>> stores_;
};

TEST_F(FlowerPeerHarness, FirstDirectoryCreatesTheRing) {
  FlowerPeer* dir = MakePeer(1, 0, 0);
  dir->StartAsDirectory(0, std::nullopt);
  sim_.RunUntil(kMinute);
  EXPECT_EQ(dir->role(), FlowerRole::kDirectoryPeer);
  ASSERT_NE(dir->chord(), nullptr);
  EXPECT_TRUE(dir->chord()->active());
  EXPECT_EQ(dir->chord()->id(), keyspace_.IdOf(0, 0, 0));
  EXPECT_EQ(directory_registry_.size(), 1u);
}

TEST_F(FlowerPeerHarness, DirectoriesAssembleIntoOneRing) {
  std::vector<FlowerPeer*> dirs;
  for (int ws = 0; ws < 2; ++ws) {
    for (int loc = 0; loc < 6; ++loc) {
      FlowerPeer* d = MakePeer(static_cast<PeerId>(ws * 6 + loc + 1), ws, loc);
      dirs.push_back(d);
    }
  }
  dirs[0]->StartAsDirectory(0, std::nullopt);
  for (size_t i = 1; i < dirs.size(); ++i) {
    sim_.RunUntil(sim_.now() + 200);
    dirs[i]->StartAsDirectory(0, dirs[0]->self());
  }
  sim_.RunUntil(sim_.now() + 5 * kMinute);
  for (FlowerPeer* d : dirs) {
    EXPECT_EQ(d->role(), FlowerRole::kDirectoryPeer);
    ASSERT_NE(d->chord(), nullptr);
    EXPECT_TRUE(d->chord()->active());
  }
  EXPECT_EQ(directory_registry_.size(), 12u);
}

TEST_F(FlowerPeerHarness, ClientIsAdmittedAndPushesItsCache) {
  FlowerPeer* dir = MakePeer(1, 0, 0);
  dir->StartAsDirectory(0, std::nullopt);
  sim_.RunUntil(kMinute);

  // A client with pre-existing cache content (a re-joining identity).
  stores_[100] = std::make_unique<ContentStore>();
  FlowerPeer* client = MakePeer(100, 0, 0);
  stores_[100]->Insert({0, 1});
  stores_[100]->Insert({0, 2});
  client->StartAsClient();
  // The first query rides the D-ring and admits the client.
  sim_.RunUntil(sim_.now() + 30 * kMinute);
  EXPECT_EQ(client->role(), FlowerRole::kContentPeer);
  EXPECT_EQ(client->dir_info().dir, dir->self());
  // The admission push registered the cached objects.
  EXPECT_TRUE(dir->index().ContainsPeer(100));
  const auto& providers = dir->index().Providers({0, 1});
  EXPECT_NE(std::find(providers.begin(), providers.end(), PeerId{100}),
            providers.end());
}

TEST_F(FlowerPeerHarness, QueryIsServedFromPetalMemberViaDirectory) {
  FlowerPeer* dir = MakePeer(1, 0, 0);
  dir->StartAsDirectory(0, std::nullopt);
  sim_.RunUntil(kMinute);

  // Peer A holds object {0, 7} and joins the petal.
  FlowerPeer* a = MakePeer(100, 0, 0);
  stores_[100]->Insert({0, 7});
  a->StartAsClient();
  sim_.RunUntil(sim_.now() + 30 * kMinute);
  ASSERT_EQ(a->role(), FlowerRole::kContentPeer);

  // Peer B joins and queries; eventually {0, 7} (Zipf rank 7) comes up and
  // must be served from A, not the origin. Instead of waiting for luck,
  // check the metric trail: B's queries resolve with hits once content
  // accumulates in the petal.
  FlowerPeer* b = MakePeer(101, 0, 0);
  b->StartAsClient();
  sim_.RunUntil(sim_.now() + 8 * kHour);
  EXPECT_EQ(b->role(), FlowerRole::kContentPeer);
  EXPECT_GT(metrics_.hits(), 0u) << "no query was ever served peer-to-peer";
}

TEST_F(FlowerPeerHarness, VacantPositionIsClaimedByNewClient) {
  // Only website 1's directory exists; a client of website 0 finds its
  // position vacant and claims it (§5.2.2 case 2).
  FlowerPeer* other = MakePeer(1, 1, 0);
  other->StartAsDirectory(0, std::nullopt);
  sim_.RunUntil(kMinute);

  FlowerPeer* client = MakePeer(100, 0, 0);
  client->StartAsClient();
  sim_.RunUntil(sim_.now() + 30 * kMinute);
  EXPECT_EQ(client->role(), FlowerRole::kDirectoryPeer);
  EXPECT_EQ(client->instance(), 0);
  ASSERT_NE(client->chord(), nullptr);
  EXPECT_EQ(client->chord()->id(), keyspace_.IdOf(0, 0, 0));
}

TEST_F(FlowerPeerHarness, ContentPeerReplacesFailedDirectory) {
  FlowerPeer* dir = MakePeer(1, 0, 0);
  dir->StartAsDirectory(0, std::nullopt);
  // A second directory so the D-ring survives the failure.
  FlowerPeer* other = MakePeer(2, 1, 3);
  sim_.RunUntil(kMinute);
  other->StartAsDirectory(0, dir->self());
  sim_.RunUntil(sim_.now() + kMinute);

  FlowerPeer* member = MakePeer(100, 0, 0);
  member->StartAsClient();
  sim_.RunUntil(sim_.now() + 30 * kMinute);
  ASSERT_EQ(member->role(), FlowerRole::kContentPeer);

  EXPECT_EQ(stats_.Total("flower.dir_failures_detected"), 0u);
  Kill(1);
  // The member detects the failure at the next keepalive/query and claims
  // the position (§5.2.1).
  sim_.RunUntil(sim_.now() + 3 * params_.gossip_period);
  EXPECT_EQ(member->role(), FlowerRole::kDirectoryPeer)
      << "content peer did not replace its failed directory";
  // The member is the only content peer, so it did all the detecting.
  EXPECT_GT(stats_.Total("flower.dir_failures_detected"), 0u);
}

TEST_F(FlowerPeerHarness, GossipSpreadsContactsAndSummaries) {
  FlowerPeer* dir = MakePeer(1, 0, 0);
  dir->StartAsDirectory(0, std::nullopt);
  sim_.RunUntil(kMinute);
  std::vector<FlowerPeer*> members;
  for (PeerId id = 100; id < 105; ++id) {
    FlowerPeer* m = MakePeer(id, 0, 0);
    m->StartAsClient();
    members.push_back(m);
  }
  // Several gossip periods.
  sim_.RunUntil(sim_.now() + 6 * params_.gossip_period);
  size_t total_view = 0;
  for (FlowerPeer* m : members) {
    EXPECT_EQ(m->role(), FlowerRole::kContentPeer);
    total_view += m->view().size();
  }
  // Members must have learned of each other beyond the directory seed.
  EXPECT_GT(total_view, members.size())
      << "petal views never grew through gossip";
}

}  // namespace
}  // namespace flowercdn
