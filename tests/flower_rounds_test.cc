// The session round timer: a Flower session's gossip, keepalive and
// directory-maintenance rounds share one pending event, armed at the
// earliest due time, and every round still runs at the time its own timer
// ran before (BecomeContentPeer's two draws, DemoteToContentPeer's P and
// P/2, BecomeDirectory's P).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

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

namespace flowercdn {

/// A bare network with no active website, so nothing but the sessions'
/// own protocol schedules events. Friend of FlowerPeer: it drives the role
/// transitions directly.
class FlowerRoundsTest : public ::testing::Test {
 protected:
  FlowerRoundsTest()
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
      std::erase(directory_registry_, peer);
      if (role == FlowerRole::kDirectoryPeer) {
        directory_registry_.push_back(peer);
      }
    };
  }

  static WebsiteCatalog::Params MakeCatalogParams() {
    WebsiteCatalog::Params p;
    p.num_websites = 2;
    p.num_active = 0;
    p.objects_per_website = 50;
    return p;
  }

  FlowerPeer* MakePeer(PeerId id) {
    network_.RegisterIdentity(id, topology_.PlaceInLocality(0, place_rng_));
    stores_[id] = std::make_unique<ContentStore>();
    auto peer = std::make_unique<FlowerPeer>(ctx_, id, /*website=*/0,
                                             /*locality=*/0,
                                             stores_[id].get(), Rng(id));
    FlowerPeer* raw = peer.get();
    peers_[id] = std::move(peer);
    return raw;
  }

  /// A session attached to the network that has not started any protocol.
  FlowerPeer* MakeAttachedPeer(PeerId id) {
    FlowerPeer* peer = MakePeer(id);
    peer->Attach();
    return peer;
  }

  void Kill(PeerId id) {
    network_.Detach(id);
    std::erase(directory_registry_, id);
    peers_.erase(id);
  }

  static void BecomeContentPeer(FlowerPeer* peer, const DirInfo& info,
                                const std::vector<Contact>& view_seed = {}) {
    peer->BecomeContentPeer(info, view_seed);
  }
  static void BecomeDirectory(FlowerPeer* peer, int instance) {
    peer->BecomeDirectory(instance);
  }
  static void DemoteToContentPeer(FlowerPeer* peer) {
    peer->DemoteToContentPeer();
  }

  /// The gossip and keepalive delays BecomeContentPeer draws for a fresh
  /// session `id`: its Rng(id)'s first two draws, in that order.
  std::pair<SimDuration, SimDuration> ContentRoundDelays(PeerId id) const {
    Rng rng(id);
    const SimDuration p = params_.gossip_period;
    SimDuration gossip =
        p / 2 + static_cast<SimDuration>(rng.NextBounded(p / 2 + 1));
    SimDuration keepalive =
        p / 2 + static_cast<SimDuration>(rng.NextBounded(p / 2 + 1));
    return {gossip, keepalive};
  }

  uint64_t GossipRounds() const {
    return stats_.Total("flower.gossip.rounds");
  }
  uint64_t KeepaliveRounds() const {
    return stats_.Total("flower.keepalive.rounds");
  }

  /// Age of `peer` in `of`'s view, or -1 when it is not there.
  static int ViewAge(const FlowerPeer& of, PeerId peer) {
    for (const Contact& c : of.view().contacts()) {
      if (c.peer == peer) return static_cast<int>(c.age);
    }
    return -1;
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

namespace {

TEST_F(FlowerRoundsTest, ContentPeerHoldsOneRoundEvent) {
  FlowerPeer* peer = MakeAttachedPeer(2);
  const size_t before = sim_.pending_events();
  BecomeContentPeer(peer, DirInfo{});
  // Gossip and keepalive are both due, on one event (two before the
  // rounds shared a timer).
  EXPECT_EQ(sim_.pending_events(), before + 1);
  // Taking the directory role adds maintenance to the same event.
  BecomeDirectory(peer, 0);
  EXPECT_EQ(sim_.pending_events(), before + 1);
}

TEST_F(FlowerRoundsTest, ContentRoundsRunAtTheDrawnTimesThenEveryPeriod) {
  FlowerPeer* dir = MakePeer(1);
  dir->StartAsDirectory(0, std::nullopt);
  FlowerPeer* peer = MakeAttachedPeer(2);
  const auto [gossip_at, keepalive_at] = ContentRoundDelays(2);
  ASSERT_NE(gossip_at, keepalive_at);
  BecomeContentPeer(peer, DirInfo{dir->self(), 0, 0});
  const SimDuration period = params_.gossip_period;
  auto rounds_by = [period](SimDuration first, SimTime t) -> uint64_t {
    return t < first ? 0 : 1 + static_cast<uint64_t>((t - first) / period);
  };
  std::vector<SimTime> due = {gossip_at, keepalive_at};
  for (int n = 1; n <= 2; ++n) {
    due.push_back(gossip_at + n * period);
    due.push_back(keepalive_at + n * period);
  }
  std::sort(due.begin(), due.end());
  for (SimTime t : due) {
    for (SimTime at : {t - 1, t}) {
      sim_.RunUntil(at);
      EXPECT_EQ(GossipRounds(), rounds_by(gossip_at, at)) << "at " << at;
      EXPECT_EQ(KeepaliveRounds(), rounds_by(keepalive_at, at))
          << "at " << at;
    }
  }
  EXPECT_EQ(peer->role(), FlowerRole::kContentPeer);
}

TEST_F(FlowerRoundsTest, DirectoryRunsMaintenanceAndContentRoundsStop) {
  FlowerPeer* peer = MakeAttachedPeer(2);
  const PeerId member = 7;  // a view entry the maintenance round ages
  BecomeContentPeer(peer, DirInfo{}, {Contact{member, 0}});
  const SimTime became_dir = 10 * kMinute;
  sim_.RunUntil(became_dir);
  BecomeDirectory(peer, 0);
  EXPECT_EQ(sim_.pending_events(), 1u);
  const SimDuration period = params_.gossip_period;
  // The content rounds come due in the first period and do nothing; the
  // one event carries on to the maintenance round.
  sim_.RunUntil(became_dir + period - 1);
  EXPECT_EQ(GossipRounds(), 0u);
  EXPECT_EQ(KeepaliveRounds(), 0u);
  EXPECT_EQ(ViewAge(*peer, member), 0);
  EXPECT_EQ(sim_.pending_events(), 1u);
  sim_.RunUntil(became_dir + period);
  EXPECT_EQ(ViewAge(*peer, member), 1);
  sim_.RunUntil(became_dir + 2 * period);
  EXPECT_EQ(ViewAge(*peer, member), 2);
  // Unrefreshed past kViewEntryExpiryRounds (2): expired.
  sim_.RunUntil(became_dir + 3 * period);
  EXPECT_EQ(ViewAge(*peer, member), -1);
  EXPECT_EQ(GossipRounds(), 0u);
  EXPECT_EQ(KeepaliveRounds(), 0u);
  EXPECT_EQ(sim_.pending_events(), 1u);
}

TEST_F(FlowerRoundsTest, DemotionRunsKeepaliveAtHalfAPeriodAndGossipAtOne) {
  // The position's holder, so the demoted peer's keepalive claim adopts it
  // and the peer stays a content peer.
  FlowerPeer* dir = MakePeer(1);
  dir->StartAsDirectory(0, std::nullopt);
  FlowerPeer* peer = MakeAttachedPeer(2);
  BecomeDirectory(peer, 0);  // maintenance due at P
  const SimDuration period = params_.gossip_period;
  const SimTime demoted_at = 10 * kMinute;
  sim_.RunUntil(demoted_at);
  const size_t before = sim_.pending_events();
  DemoteToContentPeer(peer);
  // Keepalive (P/2) now comes before maintenance (P): a new event.
  EXPECT_EQ(sim_.pending_events(), before + 1);
  const SimTime keepalive_at = demoted_at + period / 2;
  sim_.RunUntil(keepalive_at - 1);
  EXPECT_EQ(KeepaliveRounds(), 0u);
  sim_.RunUntil(keepalive_at);
  EXPECT_EQ(KeepaliveRounds(), 1u);
  EXPECT_EQ(GossipRounds(), 0u);
  // The superseded event, at the maintenance round's old due time, runs
  // nothing: maintenance is not a content-peer round.
  sim_.RunUntil(period - 1);
  const uint64_t keepalive_before = KeepaliveRounds();
  sim_.RunUntil(period);
  EXPECT_EQ(KeepaliveRounds(), keepalive_before);
  EXPECT_EQ(GossipRounds(), 0u);
  const SimTime gossip_at = demoted_at + period;
  sim_.RunUntil(gossip_at - 1);
  EXPECT_EQ(GossipRounds(), 0u);
  sim_.RunUntil(gossip_at);
  EXPECT_EQ(GossipRounds(), 1u);
  EXPECT_EQ(KeepaliveRounds(), 1u);
  sim_.RunUntil(keepalive_at + period);
  EXPECT_EQ(KeepaliveRounds(), 2u);
  EXPECT_EQ(peer->role(), FlowerRole::kContentPeer);
}

TEST_F(FlowerRoundsTest, EndedSessionLeavesOneRoundEventForTheGuard) {
  FlowerPeer* peer = MakeAttachedPeer(2);
  BecomeContentPeer(peer, DirInfo{});
  ASSERT_EQ(sim_.pending_events(), 1u);
  Kill(2);
  // The session's one node stays queued and fires into the guard.
  EXPECT_EQ(sim_.pending_events(), 1u);
  sim_.Run();
  EXPECT_EQ(sim_.events_processed(), 1u);
  EXPECT_EQ(GossipRounds(), 0u);
  EXPECT_EQ(KeepaliveRounds(), 0u);
}

}  // namespace
}  // namespace flowercdn
