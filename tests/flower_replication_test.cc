// Directory-state replication (ISSUE 10): each directory streams its
// (ws, loc) index to its D-ring successors, so a primary failure promotes
// a warm replica in seconds instead of rebuilding from pushes over ~45
// minutes. Also unit-tests the DirectoryIndex snapshot machinery the
// replica-sync protocol rides on.

#include <gtest/gtest.h>

#include "expt/env.h"
#include "expt/flower_system.h"
#include "flower/directory_index.h"

namespace flowercdn {
namespace {

// --- DirectoryIndex snapshot/restore (satellite: Clear-before-restore) ----

ObjectId Obj(WebsiteId ws, uint32_t n) { return ObjectId{ws, n}; }

TEST(DirectoryIndexSnapshotTest, RoundTripPreservesEverything) {
  DirectoryIndex index;
  index.Add(1, Obj(0, 1));
  index.Add(1, Obj(0, 2));
  index.Add(2, Obj(0, 2));
  index.Add(3, Obj(0, 9));
  index.RemovePeer(3);

  DirectoryIndex::Snapshot snap = index.TakeSnapshot();
  DirectoryIndex copy;
  copy.Restore(snap);

  EXPECT_EQ(copy.num_peers(), index.num_peers());
  EXPECT_EQ(copy.num_entries(), index.num_entries());
  EXPECT_EQ(copy.num_indexed_objects(), index.num_indexed_objects());
  EXPECT_TRUE(copy.ContainsPeer(1));
  EXPECT_TRUE(copy.ContainsPeer(2));
  EXPECT_FALSE(copy.ContainsPeer(3));
  EXPECT_EQ(copy.Providers(Obj(0, 2)).size(), 2u);
  EXPECT_TRUE(copy.Providers(Obj(0, 9)).empty());
}

TEST(DirectoryIndexSnapshotTest, EmptyIndexRoundTrips) {
  DirectoryIndex empty;
  DirectoryIndex::Snapshot snap = empty.TakeSnapshot();
  EXPECT_TRUE(snap.peers.empty());

  DirectoryIndex copy;
  copy.Restore(snap);
  EXPECT_EQ(copy.num_peers(), 0u);
  EXPECT_EQ(copy.num_entries(), 0u);
  EXPECT_EQ(copy.num_indexed_objects(), 0u);
}

TEST(DirectoryIndexSnapshotTest, DuplicatePushesDoNotInflateEntries) {
  DirectoryIndex index;
  index.Add(1, Obj(0, 1));
  index.Add(1, Obj(0, 1));  // duplicate add is a no-op
  EXPECT_EQ(index.num_entries(), 1u);

  // A re-push of the same object list must be idempotent too.
  index.ReplacePeerObjects(1, {Obj(0, 1), Obj(0, 2)});
  index.ReplacePeerObjects(1, {Obj(0, 1), Obj(0, 2)});
  EXPECT_EQ(index.num_entries(), 2u);
  EXPECT_EQ(index.Providers(Obj(0, 1)).size(), 1u);

  DirectoryIndex copy;
  copy.Restore(index.TakeSnapshot());
  EXPECT_EQ(copy.num_entries(), 2u);
  EXPECT_EQ(copy.Providers(Obj(0, 1)).size(), 1u);
}

// Restore used to merge into whatever the index already held; a replica
// that received a full snapshot after earlier deltas would double-count.
// Restore now clears first: the snapshot IS the state.
TEST(DirectoryIndexSnapshotTest, RestoreReplacesExistingState) {
  DirectoryIndex source;
  source.Add(1, Obj(0, 1));

  DirectoryIndex target;
  target.Add(7, Obj(0, 5));
  target.Add(1, Obj(0, 1));  // overlaps the snapshot
  target.Restore(source.TakeSnapshot());

  EXPECT_EQ(target.num_peers(), 1u);
  EXPECT_EQ(target.num_entries(), 1u);
  EXPECT_FALSE(target.ContainsPeer(7));
  EXPECT_TRUE(target.Providers(Obj(0, 5)).empty());
  EXPECT_EQ(target.Providers(Obj(0, 1)).size(), 1u);
}

// --- Replica sync + failover (the tentpole) --------------------------------

/// Two active petals on one D-ring, so each directory has a successor to
/// replicate to. Failures never happen on their own — we inject them.
class FlowerReplicationTest : public ::testing::Test {
 protected:
  ExperimentConfig MakeConfig(int replication) {
    ExperimentConfig config;
    config.seed = 33;
    config.target_population = 60;
    config.universe_factor = 1.0;
    config.topology.num_localities = 1;
    config.catalog.num_websites = 2;
    config.catalog.num_active = 2;
    config.catalog.objects_per_website = 60;
    config.mean_uptime = 100000 * kHour;
    config.arrival_rate_override_per_ms = 60.0 / kHour;
    config.duration = 12 * kHour;
    config.flower.gossip_period = 10 * kMinute;
    config.flower.max_directory_load = 100;  // keep one instance per petal
    config.flower.replication = replication;
    return config;
  }

  /// The live session holding a replica of petal (ws, loc), if any.
  FlowerPeer* FindReplicaHolder(FlowerSystem& system, WebsiteId ws,
                                LocalityId loc) {
    for (PeerId peer : system.live_directories()) {
      FlowerPeer* session = system.session(peer);
      if (session != nullptr && session->ReplicaIndex(ws, loc) != nullptr) {
        return session;
      }
    }
    return nullptr;
  }
};

TEST_F(FlowerReplicationTest, SyncPopulatesSuccessorReplica) {
  ExperimentConfig config = MakeConfig(/*replication=*/2);
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  system.Setup();
  env.sim().RunUntil(3 * kHour);

  FlowerPeer* primary = system.FindDirectory(0, 0);
  ASSERT_NE(primary, nullptr);
  ASSERT_GT(primary->index().num_entries(), 0u);
  // Only this primary's syncs can fill the replica checked below.
  EXPECT_GT(env.stats().Total("flower.replica.syncs"), 0u);

  FlowerPeer* holder = FindReplicaHolder(system, 0, 0);
  ASSERT_NE(holder, nullptr) << "no successor holds a replica of (0,0)";
  EXPECT_NE(holder->self(), primary->self());
  const DirectoryIndex* replica = holder->ReplicaIndex(0, 0);
  ASSERT_NE(replica, nullptr);
  // Incremental deltas every 15 s: the replica tracks the primary closely.
  EXPECT_GE(replica->num_entries(), primary->index().num_entries() / 2);
}

TEST_F(FlowerReplicationTest, PrimaryFailurePromotesWarmReplicaInSeconds) {
  ExperimentConfig config = MakeConfig(/*replication=*/2);
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  system.Setup();
  env.sim().RunUntil(3 * kHour);

  FlowerPeer* primary = system.FindDirectory(0, 0);
  ASSERT_NE(primary, nullptr);
  PeerId failed = primary->self();
  size_t entries_before = primary->index().num_entries();
  ASSERT_GT(entries_before, 0u);
  ASSERT_NE(FindReplicaHolder(system, 0, 0), nullptr);

  system.InjectFailure(failed);
  ASSERT_EQ(system.FindDirectory(0, 0), nullptr);

  // Rank-1 failover: 2 missed 15 s sync periods + one monitor round, plus
  // the heir's claim — well under three minutes, versus the ~45-minute
  // push-rebuild window this protocol exists to kill.
  env.sim().RunUntil(env.sim().now() + 3 * kMinute);
  FlowerPeer* heir = system.FindDirectory(0, 0);
  ASSERT_NE(heir, nullptr) << "no replacement directory within 3 minutes";
  EXPECT_NE(heir->self(), failed);

  // The heir started from the replicated snapshot: its index is warm NOW,
  // not after the next gossip/push cycle (10 minutes away). A plain
  // vacancy-claim would start empty.
  EXPECT_GT(heir->index().num_entries(), entries_before / 2)
      << "replacement index is cold — vacancy-claim won over promotion";

  // The registry counter survives the holder's own role changes (losing
  // its only ring neighbour can demote it before the handover lands).
  EXPECT_GT(env.stats().Total("flower.replica.handovers"), 0u)
      << "no replica holder initiated the handover";
}

TEST_F(FlowerReplicationTest, RepeatedFailuresStayWarm) {
  ExperimentConfig config = MakeConfig(/*replication=*/2);
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  system.Setup();
  env.sim().RunUntil(3 * kHour);

  for (int round = 0; round < 3; ++round) {
    FlowerPeer* dir = system.FindDirectory(0, 0);
    ASSERT_NE(dir, nullptr) << "round " << round;
    system.InjectFailure(dir->self());
    env.sim().RunUntil(env.sim().now() + 30 * kMinute);
  }
  FlowerPeer* survivor = system.FindDirectory(0, 0);
  ASSERT_NE(survivor, nullptr);
  EXPECT_GT(survivor->index().num_entries(), 0u);
}

TEST_F(FlowerReplicationTest, ReplicationOffIsInert) {
  ExperimentConfig config = MakeConfig(/*replication=*/1);
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  system.Setup();
  env.sim().RunUntil(3 * kHour);

  // k=1 must not schedule syncs, hold replicas, or touch any counter —
  // the paper-faithful baseline stays byte-identical.
  for (PeerId peer : system.live_directories()) {
    FlowerPeer* session = system.session(peer);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->replica_petals_held(), 0u);
  }
  // No session, live or departed, ever counted a replica event: not even a
  // zero flower.replica.* counter exists to be exported.
  for (const auto& counter : env.stats().SnapshotCounters()) {
    EXPECT_NE(counter.name.rfind("flower.replica.", 0), 0u) << counter.name;
  }
}

}  // namespace
}  // namespace flowercdn
