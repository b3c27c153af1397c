#include "flower/flower_peer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>
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

  /// Runs the simulation until `counter` reaches `value`, at most `limit`.
  void RunUntilCount(std::string_view counter, uint64_t value,
                     SimDuration limit) {
    const SimTime end = sim_.now() + limit;
    while (stats_.Total(counter) < value && sim_.now() < end) {
      sim_.RunUntil(sim_.now() + kSecond);
    }
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

/// A bare peer that asks directories directly and keeps their replies.
class QueryingHost : public SimNode {
 public:
  QueryingHost(Network* network, PeerId self) : rpc_(network, self) {}
  void HandleMessage(MessagePtr msg) override { rpc_.HandleResponse(msg); }
  void Ask(PeerId dir, std::unique_ptr<FlowerDirQueryMsg> query) {
    rpc_.Call(dir, std::move(query), 5 * kSecond,
              [this](const Status& status, MessagePtr resp) {
                ASSERT_TRUE(status.ok()) << status.ToString();
                replies.push_back(MessageCast<FlowerDirQueryReplyMsg>(*resp));
              });
  }
  RpcEndpoint& rpc() { return rpc_; }
  std::vector<FlowerDirQueryReplyMsg> replies;

 private:
  RpcEndpoint rpc_;
};

TEST_F(FlowerPeerHarness, CollaboratingDirectoryAnswersThroughItsNeighbour) {
  params_.enable_dir_collaboration = true;
  // Two directories of website 0, ring neighbours; only the second (in
  // locality 1) can provide the object, from its own cache.
  const ObjectId object{0, 3};
  FlowerPeer* dir = MakePeer(1, 0, 0);
  FlowerPeer* neighbour = MakePeer(2, 0, 1);
  stores_[2]->Insert(object);
  dir->StartAsDirectory(0, std::nullopt);
  sim_.RunUntil(sim_.now() + 200);
  neighbour->StartAsDirectory(0, dir->self());
  sim_.RunUntil(sim_.now() + 5 * kMinute);
  ASSERT_TRUE(dir->chord()->active());
  ASSERT_TRUE(neighbour->chord()->active());

  std::vector<std::unique_ptr<QueryingHost>> hosts;
  for (PeerId id : {PeerId{100}, PeerId{101}}) {
    network_.RegisterIdentity(id, topology_.PlaceInLocality(0, place_rng_));
    hosts.push_back(std::make_unique<QueryingHost>(&network_, id));
    hosts.back()->rpc().Bind(network_.Attach(id, hosts.back().get()));
  }
  // The first host joins the petal, so the second one's admission carries
  // a view seed.
  auto join = std::make_unique<FlowerDirQueryMsg>();
  join->website = 0;
  join->locality = 0;
  join->wants_join = true;
  hosts[0]->Ask(dir->self(), std::move(join));
  sim_.RunUntil(sim_.now() + 10 * kSecond);
  ASSERT_EQ(hosts[0]->replies.size(), 1u);

  const uint64_t hits = stats_.Total("flower.collaboration_hits");
  auto query = std::make_unique<FlowerDirQueryMsg>();
  query->website = 0;
  query->locality = 0;
  query->has_object = true;
  query->object = object;
  query->wants_join = true;
  hosts[1]->Ask(dir->self(), std::move(query));
  sim_.RunUntil(sim_.now() + 10 * kSecond);
  ASSERT_EQ(hosts[1]->replies.size(), 1u);
  const FlowerDirQueryReplyMsg& reply = hosts[1]->replies[0];
  EXPECT_EQ(reply.result, DirQueryResult::kProvider);
  EXPECT_EQ(reply.provider, neighbour->self());
  EXPECT_EQ(stats_.Total("flower.collaboration_hits"), hits + 1);
  // The admission fields survive the wait for the neighbour.
  EXPECT_TRUE(reply.admitted);
  EXPECT_EQ(reply.instance, 0);
  ASSERT_EQ(reply.view_seed.size(), 1u);
  EXPECT_EQ(reply.view_seed[0].peer, PeerId{100});
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

// --- Directory claims: every way into and out of a D-ring position ---------

TEST_F(FlowerPeerHarness, SeededDirectoryRetriesThroughALivePick) {
  FlowerPeer* first = MakePeer(1, 0, 0);
  first->StartAsDirectory(0, std::nullopt);
  sim_.RunUntil(kMinute);
  // Identity 99 exists but never attaches: the seeded join through it fails.
  network_.RegisterIdentity(99, topology_.PlaceInLocality(0, place_rng_));
  FlowerPeer* seed = MakePeer(2, 1, 0);
  const SimTime start = sim_.now();
  seed->StartAsDirectory(0, PeerId{99});
  // The session counts as a directory while its join is in flight.
  EXPECT_EQ(seed->role(), FlowerRole::kDirectoryPeer);
  sim_.RunUntil(start + kJoinRetryDelay);
  ASSERT_NE(seed->chord(), nullptr);
  EXPECT_FALSE(seed->chord()->active());
  EXPECT_EQ(directory_registry_.size(), 1u);
  EXPECT_TRUE(seed->store().empty());

  // The retry picks the live directory and takes the position.
  sim_.RunUntil(sim_.now() + kMinute);
  EXPECT_EQ(seed->role(), FlowerRole::kDirectoryPeer);
  EXPECT_TRUE(seed->chord()->active());
  EXPECT_EQ(seed->chord()->id(), keyspace_.IdOf(1, 0, 0));
  EXPECT_EQ(directory_registry_.size(), 2u);
  // Held, it starts querying: answered queries fill its cache.
  sim_.RunUntil(sim_.now() + 2 * kHour);
  EXPECT_FALSE(seed->store().empty());
  EXPECT_EQ(stats_.Total("flower.claim.seed_stranded"), 0u);
  EXPECT_EQ(stats_.Total("flower.claim.joined"), 0u);
}

TEST_F(FlowerPeerHarness, SeededDirectoryWithNoLiveMemberIsStranded) {
  network_.RegisterIdentity(99, topology_.PlaceInLocality(0, place_rng_));
  FlowerPeer* seed = MakePeer(2, 1, 0);
  seed->StartAsDirectory(0, PeerId{99});
  sim_.RunUntil(2 * kHour);
  // The first join and its retry both failed. The session keeps the
  // directory role with an idle ring node, never registers and never
  // queries.
  EXPECT_EQ(seed->role(), FlowerRole::kDirectoryPeer);
  ASSERT_NE(seed->chord(), nullptr);
  EXPECT_FALSE(seed->chord()->active());
  EXPECT_TRUE(directory_registry_.empty());
  EXPECT_TRUE(seed->store().empty());
  EXPECT_EQ(stats_.Total("flower.claim.seed_stranded"), 1u);
}

TEST_F(FlowerPeerHarness, ClaimOfAHeldPositionAdoptsItsOwner) {
  FlowerPeer* dir = MakePeer(1, 0, 0);
  dir->StartAsDirectory(0, std::nullopt);
  FlowerPeer* next = MakePeer(2, 0, 0);
  sim_.RunUntil(kMinute);
  next->StartAsDirectory(1, dir->self());
  sim_.RunUntil(sim_.now() + kMinute);
  ASSERT_TRUE(next->chord()->active());

  FlowerPeer* member = MakePeer(100, 0, 0);
  stores_[100]->Insert({0, 1});
  member->StartAsClient();
  sim_.RunUntil(sim_.now() + 30 * kMinute);
  ASSERT_EQ(member->role(), FlowerRole::kContentPeer);
  ASSERT_EQ(member->dir_info().dir, dir->self());
  ASSERT_FALSE(next->index().ContainsPeer(100));

  // A PetalUp promotion names instance 1, which `next` already holds.
  const uint64_t pushes = stats_.Total("flower.push.rounds");
  auto promote = std::make_unique<FlowerPromoteMsg>();
  promote->website = 0;
  promote->locality = 0;
  promote->new_instance = 1;
  network_.Send(dir->self(), member->self(), std::move(promote));
  sim_.RunUntil(sim_.now() + 10 * kSecond);
  EXPECT_EQ(member->role(), FlowerRole::kContentPeer);
  EXPECT_EQ(member->dir_info().dir, next->self());
  EXPECT_EQ(member->dir_info().instance, 1);
  // The adoption pushes the member's cache to its new directory.
  EXPECT_EQ(stats_.Total("flower.push.rounds"), pushes + 1);
  EXPECT_TRUE(next->index().ContainsPeer(100));
  EXPECT_EQ(stats_.Total("flower.claim.adopted"), 1u);
  EXPECT_EQ(stats_.Total("flower.claim.joined"), 0u);
}

TEST_F(FlowerPeerHarness, ClaimWhoseJoinFailsKeepsTheContentRole) {
  FlowerPeer* dir = MakePeer(1, 0, 0);
  FlowerPeer* other = MakePeer(2, 1, 0);
  dir->StartAsDirectory(0, std::nullopt);
  sim_.RunUntil(sim_.now() + 200);
  other->StartAsDirectory(0, dir->self());
  sim_.RunUntil(sim_.now() + kMinute);
  FlowerPeer* member = MakePeer(100, 0, 0);
  member->StartAsClient();
  sim_.RunUntil(sim_.now() + 30 * kMinute);
  ASSERT_EQ(member->role(), FlowerRole::kContentPeer);

  auto promote = std::make_unique<FlowerPromoteMsg>();
  promote->website = 0;
  promote->locality = 0;
  promote->new_instance = 1;
  network_.Send(dir->self(), member->self(), std::move(promote));
  // The claim resolved instance 1 as vacant and its join is under way:
  // the whole ring dies before the join is answered.
  const SimTime deadline = sim_.now() + kMinute;
  while (sim_.now() < deadline &&
         (member->chord() == nullptr ||
          member->chord()->state() != ChordNode::State::kJoining)) {
    sim_.RunUntil(sim_.now() + 1);
  }
  ASSERT_NE(member->chord(), nullptr);
  ASSERT_EQ(member->chord()->state(), ChordNode::State::kJoining);
  Kill(1);
  Kill(2);
  RunUntilCount("flower.claim.join_failed", 1, kMinute);
  EXPECT_EQ(stats_.Total("flower.claim.join_failed"), 1u);
  EXPECT_EQ(stats_.Total("flower.claim.joined"), 0u);
  EXPECT_EQ(member->role(), FlowerRole::kContentPeer);
  EXPECT_EQ(member->chord()->state(), ChordNode::State::kIdle);
  EXPECT_TRUE(directory_registry_.empty());
}

TEST_F(FlowerPeerHarness, SimultaneousClaimsDemoteOneHolderAsADuplicate) {
  FlowerPeer* dir = MakePeer(1, 0, 0);
  dir->StartAsDirectory(0, std::nullopt);
  sim_.RunUntil(kMinute);
  FlowerPeer* x = MakePeer(100, 0, 0);
  FlowerPeer* y = MakePeer(101, 0, 0);
  x->StartAsClient();
  y->StartAsClient();
  sim_.RunUntil(sim_.now() + 30 * kMinute);
  ASSERT_EQ(x->role(), FlowerRole::kContentPeer);
  ASSERT_EQ(y->role(), FlowerRole::kContentPeer);

  // Both are promoted to instance 1 at the same instant: both resolve the
  // position as vacant and both join.
  for (FlowerPeer* p : {x, y}) {
    auto promote = std::make_unique<FlowerPromoteMsg>();
    promote->website = 0;
    promote->locality = 0;
    promote->new_instance = 1;
    network_.Send(dir->self(), p->self(), std::move(promote));
  }
  sim_.RunUntil(sim_.now() + 10 * kSecond);
  EXPECT_EQ(stats_.Total("flower.claim.joined"), 2u);
  EXPECT_EQ(stats_.Total("flower.claim.join_failed"), 0u);
  // The second notifier of the shared successor learns it is a duplicate.
  // It had two notifies in flight (the join's and the first probe's), and
  // both replies report the duplicate: the counter counts reports, and the
  // second finds the session already demoted.
  EXPECT_EQ(stats_.Total("flower.claim.duplicate_demotions"), 2u);
  FlowerPeer* winner = x->role() == FlowerRole::kDirectoryPeer ? x : y;
  FlowerPeer* loser = winner == x ? y : x;
  ASSERT_EQ(winner->role(), FlowerRole::kDirectoryPeer);
  ASSERT_EQ(loser->role(), FlowerRole::kContentPeer);
  EXPECT_EQ(loser->index().num_peers(), 0u);
  EXPECT_EQ(loser->dir_info().dir, kInvalidPeer);
  EXPECT_EQ(loser->chord()->state(), ChordNode::State::kIdle);
  EXPECT_EQ(std::count(directory_registry_.begin(), directory_registry_.end(),
                       loser->self()),
            0);

  // Its keepalive resumes; at the latest the next one finds instance 1
  // held and adopts the winner.
  const uint64_t keepalives = stats_.Total("flower.keepalive.rounds");
  sim_.RunUntil(sim_.now() + params_.gossip_period + kMinute);
  EXPECT_GT(stats_.Total("flower.keepalive.rounds"), keepalives);
  EXPECT_EQ(loser->role(), FlowerRole::kContentPeer);
  EXPECT_EQ(loser->dir_info().dir, winner->self());
  EXPECT_EQ(loser->dir_info().instance, 1);
  EXPECT_EQ(stats_.Total("flower.claim.adopted"), 1u);
}

/// Three directories on one ring, plus a content peer of the third that
/// has pushed its cache there.
class RingBreakHarness : public FlowerPeerHarness {
 protected:
  void SetUp() override {
    FlowerPeer* a = MakePeer(1, 1, 0);
    FlowerPeer* b = MakePeer(2, 1, 1);
    dir_ = MakePeer(3, 0, 0);
    a->StartAsDirectory(0, std::nullopt);
    sim_.RunUntil(sim_.now() + 200);
    b->StartAsDirectory(0, a->self());
    sim_.RunUntil(sim_.now() + 200);
    dir_->StartAsDirectory(0, a->self());
    sim_.RunUntil(sim_.now() + 5 * kMinute);
    ASSERT_TRUE(dir_->chord()->active());

    FlowerPeer* member = MakePeer(100, 0, 0);
    stores_[100]->Insert({0, 1});
    member->StartAsClient();
    sim_.RunUntil(sim_.now() + 30 * kMinute);
    ASSERT_EQ(member->dir_info().dir, dir_->self());
    ASSERT_TRUE(dir_->index().ContainsPeer(100));
  }

  FlowerPeer* dir_ = nullptr;
};

TEST_F(RingBreakHarness, DirectoryRejoinsThroughALiveBootstrapWithItsIndex) {
  Kill(1);
  Kill(2);
  // A ring the broken one does not know: the only live bootstrap.
  FlowerPeer* fresh = MakePeer(4, 1, 2);
  fresh->StartAsDirectory(0, std::nullopt);
  RunUntilCount("flower.claim.ring_rebuilds", 1, 10 * kMinute);
  sim_.RunUntil(sim_.now() + 10 * kSecond);
  EXPECT_EQ(stats_.Total("flower.claim.ring_rebuilds"), 1u);
  EXPECT_EQ(stats_.Total("flower.claim.rebuild_demotions"), 0u);
  EXPECT_EQ(dir_->role(), FlowerRole::kDirectoryPeer);
  EXPECT_TRUE(dir_->chord()->active());
  ASSERT_TRUE(dir_->chord()->successor().has_value());
  EXPECT_EQ(dir_->chord()->successor()->peer, fresh->self());
  // The rebuild keeps the role, so it keeps the index.
  EXPECT_TRUE(dir_->index().ContainsPeer(100));
}

TEST_F(RingBreakHarness, DirectoryWithNoLiveBootstrapDemotes) {
  Kill(1);
  Kill(2);
  RunUntilCount("flower.claim.ring_rebuilds", 1, 10 * kMinute);
  EXPECT_EQ(stats_.Total("flower.claim.ring_rebuilds"), 1u);
  EXPECT_EQ(stats_.Total("flower.claim.rebuild_demotions"), 1u);
  EXPECT_EQ(dir_->role(), FlowerRole::kContentPeer);
  EXPECT_EQ(dir_->chord()->state(), ChordNode::State::kIdle);
  EXPECT_EQ(dir_->index().num_peers(), 0u);
  EXPECT_TRUE(directory_registry_.empty());

  // With the whole ring gone, the next claim of position (0, 0, 0)
  // creates a new ring.
  sim_.RunUntil(sim_.now() + params_.gossip_period + kMinute);
  ASSERT_EQ(directory_registry_.size(), 1u);
  FlowerPeer* holder = peers_.at(directory_registry_[0]).get();
  EXPECT_EQ(holder->chord()->id(), keyspace_.IdOf(0, 0, 0));
  EXPECT_TRUE(holder->chord()->active());
  EXPECT_EQ(stats_.Total("flower.claim.joined"), 1u);
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
