#include "expt/session_host.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "expt/env.h"

namespace flowercdn {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.seed = 3;
  config.target_population = 100;
  config.catalog.num_websites = 4;
  config.catalog.num_active = 2;
  config.catalog.objects_per_website = 10;
  config.topology.num_localities = 3;
  return config;
}

/// A session that attaches on Start and arms one guarded timer.
class TestPeer : public SimNode {
 public:
  TestPeer(Network* network, PeerId self, int* fired)
      : network_(network), self_(self), fired_(fired) {}

  void Start(SimDuration timer) {
    Incarnation inc = network_->Attach(self_, this);
    int* fired = fired_;
    network_->SchedulePeer(self_, inc, timer, [fired] { ++*fired; });
  }
  void HandleMessage(MessagePtr) override {}
  PeerId self() const { return self_; }

 private:
  Network* network_;
  PeerId self_;
  int* fired_;
};

TEST(SessionHostTest, CreateGetAndLiveCount) {
  ExperimentEnv env(TinyConfig());
  SessionHost<TestPeer> host(&env);
  int fired = 0;
  EXPECT_EQ(host.live(), 0u);
  EXPECT_EQ(host.Get(7), nullptr);
  TestPeer* seven = host.Create(7, &env.network(), 7, &fired);
  TestPeer* three = host.Create(3, &env.network(), 3, &fired);
  EXPECT_EQ(host.live(), 2u);
  EXPECT_EQ(host.Get(7), seven);
  EXPECT_EQ(host.Get(3), three);
  EXPECT_EQ(host.Get(4), nullptr);
  EXPECT_EQ(host.Get(kInvalidPeer), nullptr);
  EXPECT_EQ(host.Get(env.universe_size() + 1), nullptr);
}

TEST(SessionHostTest, DestroyDetachesAndSilencesGuardedTimers) {
  ExperimentEnv env(TinyConfig());
  SessionHost<TestPeer> host(&env);
  int fired_destroyed = 0;
  int fired_kept = 0;
  host.Create(5, &env.network(), 5, &fired_destroyed)->Start(10);
  host.Create(6, &env.network(), 6, &fired_kept)->Start(10);
  ASSERT_TRUE(env.network().IsAlive(5));

  host.Destroy(5);
  EXPECT_FALSE(env.network().IsAlive(5));
  EXPECT_EQ(host.Get(5), nullptr);
  EXPECT_EQ(host.live(), 1u);
  host.Destroy(5);  // offline: no-op
  EXPECT_EQ(host.live(), 1u);

  env.sim().RunUntil(kSecond);
  EXPECT_EQ(fired_destroyed, 0);
  EXPECT_EQ(fired_kept, 1);

  // The identity can come back as a fresh session.
  host.Create(5, &env.network(), 5, &fired_destroyed)->Start(10);
  env.sim().RunUntil(2 * kSecond);
  EXPECT_EQ(fired_destroyed, 1);
}

TEST(SessionHostTest, ForEachVisitsInIdOrder) {
  ExperimentEnv env(TinyConfig());
  SessionHost<TestPeer> host(&env);
  int fired = 0;
  for (PeerId peer : {9, 2, 14, 5}) {
    host.Create(peer, &env.network(), peer, &fired);
  }
  host.Destroy(14);
  std::vector<PeerId> visited;
  host.ForEach([&](const TestPeer& peer) { visited.push_back(peer.self()); });
  EXPECT_EQ(visited, (std::vector<PeerId>{2, 5, 9}));
}

TEST(SessionHostDeathTest, SecondCreateOfAnOnlinePeerDies) {
  ExperimentEnv env(TinyConfig());
  SessionHost<TestPeer> host(&env);
  int fired = 0;
  host.Create(4, &env.network(), 4, &fired);
  EXPECT_DEATH(host.Create(4, &env.network(), 4, &fired), "already online");
}

TEST(SessionHostTest, InitialLaunchHonorsTheOwnerFilter) {
  const ExperimentConfig config = TinyConfig();
  ExperimentEnv env(config);
  SessionHost<TestPeer> host(&env);
  // (peer, create_ring, launch time)
  std::vector<std::tuple<PeerId, bool, SimTime>> launched;
  auto owned = [](PeerId peer) { return peer % 3 != 2; };
  size_t initial = host.ScheduleInitialLaunch(
      owned, [&](PeerId peer, bool create_ring) {
        launched.emplace_back(peer, create_ring, env.sim().now());
      });
  EXPECT_EQ(initial, 12u);  // k * |W| = 3 * 4
  env.sim().RunUntil(kMinute);

  std::vector<std::tuple<PeerId, bool, SimTime>> expected;
  for (PeerId peer = 1; peer <= 12; ++peer) {
    if (!owned(peer)) continue;
    expected.emplace_back(
        peer, peer == 1,
        static_cast<SimTime>(peer - 1) * kInitialJoinStagger);
  }
  EXPECT_EQ(launched, expected);
}

TEST(PeerSetTest, RemoveSwapsTheLastEntryIntoTheHole) {
  ExperimentEnv env(TinyConfig());
  PeerSet set(&env.network());
  set.Add(1);
  set.Add(2);
  set.Add(3);
  set.Add(2);  // already present
  set.Remove(1);
  set.Remove(8);  // absent
  EXPECT_EQ(set.peers(), (std::vector<PeerId>{3, 2}));
  set.Remove(2);
  set.Remove(3);
  EXPECT_TRUE(set.empty());
}

TEST(PeerSetTest, PickSkipsSelfDeadAndRejectedPeers) {
  ExperimentEnv env(TinyConfig());
  SessionHost<TestPeer> host(&env);
  int fired = 0;
  for (PeerId peer : {1, 2, 3}) {
    host.Create(peer, &env.network(), peer, &fired)->Start(kHour);
  }
  PeerSet set(&env.network());
  set.Add(1);  // self
  set.Add(2);  // rejected
  set.Add(3);  // accepted
  set.Add(4);  // never attached: dead
  Rng rng(11);
  auto accept = [](PeerId peer) { return peer != 2; };
  for (int i = 0; i < 50; ++i) {
    PeerId picked = set.Pick(rng, 1, accept);
    EXPECT_TRUE(picked == 3 || picked == kInvalidPeer) << picked;
  }

  PeerSet only_self(&env.network());
  only_self.Add(1);
  EXPECT_EQ(only_self.Pick(rng, 1, AnyPeer), kInvalidPeer);
  PeerSet only_dead(&env.network());
  only_dead.Add(4);
  EXPECT_EQ(only_dead.Pick(rng, 1, AnyPeer), kInvalidPeer);
  EXPECT_EQ(PeerSet(&env.network()).Pick(rng, 1, AnyPeer), kInvalidPeer);
}

TEST(PeerSetTest, PickDrawsAtMostFiveTimes) {
  ExperimentEnv env(TinyConfig());
  PeerSet set(&env.network());
  for (PeerId peer = 1; peer <= 6; ++peer) set.Add(peer);  // all dead
  Rng rng(5);
  Rng replay = rng;
  EXPECT_EQ(set.Pick(rng, kInvalidPeer, AnyPeer), kInvalidPeer);
  for (int i = 0; i < PeerSet::kPickAttempts; ++i) replay.Index(6);
  EXPECT_EQ(PeerSet::kPickAttempts, 5);
  EXPECT_EQ(rng.Next(), replay.Next());

  // A hit on the first draw stops drawing.
  SessionHost<TestPeer> host(&env);
  int fired = 0;
  for (PeerId peer = 1; peer <= 6; ++peer) {
    host.Create(peer, &env.network(), peer, &fired)->Start(kHour);
  }
  Rng one = rng;
  replay = rng;
  EXPECT_EQ(set.Pick(one, kInvalidPeer, AnyPeer),
            set.peers()[replay.Index(6)]);
  EXPECT_EQ(one.Next(), replay.Next());
}

}  // namespace
}  // namespace flowercdn
