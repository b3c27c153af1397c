#include "obs/sampler.h"

#include <gtest/gtest.h>

#include "chord/messages.h"
#include "gossip/cyclon.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/random.h"

namespace flowercdn {
namespace {

TEST(DistSummaryTest, EmptyPopulationIsAllZero) {
  DistSummary d = DistSummary::FromValues({});
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.min, 0u);
  EXPECT_EQ(d.max, 0u);
  EXPECT_DOUBLE_EQ(d.mean, 0.0);
  EXPECT_EQ(d.p95, 0u);
}

TEST(DistSummaryTest, ComputesNearestRankP95) {
  // 1..100: p95 is exactly the 95th value; order of input must not matter.
  std::vector<uint64_t> values;
  for (uint64_t v = 100; v >= 1; --v) values.push_back(v);
  DistSummary d = DistSummary::FromValues(std::move(values));
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.min, 1u);
  EXPECT_EQ(d.max, 100u);
  EXPECT_DOUBLE_EQ(d.mean, 50.5);
  EXPECT_EQ(d.p95, 95u);

  // Small populations: ceil(0.95 * n) clamps to the max.
  EXPECT_EQ(DistSummary::FromValues({7}).p95, 7u);
  EXPECT_EQ(DistSummary::FromValues({3, 9}).p95, 9u);
}

TEST(OverlaySamplerTest, FiresOnIntervalBoundaries) {
  Simulator sim;
  OverlaySampler sampler(&sim, /*interval=*/10);
  size_t probes = 0;
  sampler.Start([&probes] {
    OverlaySample s;
    s.alive_peers = ++probes;
    return s;
  });

  sim.RunUntil(35);
  ASSERT_EQ(sampler.samples().size(), 3u);
  EXPECT_EQ(sampler.samples()[0].time, 10);
  EXPECT_EQ(sampler.samples()[1].time, 20);
  EXPECT_EQ(sampler.samples()[2].time, 30);
  EXPECT_EQ(sampler.samples()[2].alive_peers, 3u);

  // The boundary tick at t == until is included.
  sim.RunUntil(40);
  EXPECT_EQ(sampler.samples().size(), 4u);
}

TEST(OverlaySamplerTest, IdenticalRunsYieldIdenticalSamples) {
  // The sampler adds no randomness of its own: two sims driving the same
  // deterministic probe must record byte-identical series. (The runner's
  // determinism test extends this to the full --jobs 1 vs 8 JSON.)
  auto run = [] {
    Simulator sim;
    OverlaySampler sampler(&sim, 7);
    sampler.Start([&sim] {
      OverlaySample s;
      s.alive_peers = static_cast<size_t>(sim.now() * 3);
      s.directory_load = DistSummary::FromValues(
          {static_cast<uint64_t>(sim.now()), 5, 2});
      return s;
    });
    sim.RunUntil(100);
    return sampler.samples();
  };
  std::vector<OverlaySample> a = run();
  std::vector<OverlaySample> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].alive_peers, b[i].alive_peers);
    EXPECT_EQ(a[i].directory_load.p95, b[i].directory_load.p95);
    EXPECT_DOUBLE_EQ(a[i].directory_load.mean, b[i].directory_load.mean);
  }
}

class SinkNode : public SimNode {
 public:
  void HandleMessage(MessagePtr) override {}
};

TEST(TrafficSamplerTest, SnapshotsCumulativeCountersPerInterval) {
  Simulator sim;
  Topology topo{Topology::Params{}};
  Network net(&sim, &topo);
  Rng rng(1);
  net.RegisterIdentity(1, topo.PlaceInLocality(0, rng));
  net.RegisterIdentity(2, topo.PlaceInLocality(1, rng));
  SinkNode a, b;
  net.Attach(1, &a);
  net.Attach(2, &b);

  TrafficSampler sampler(&sim, &net, /*interval=*/1000);
  sampler.Start();

  sim.Schedule(100, [&] {
    net.Send(1, 2, std::make_unique<ChordFindSuccessorMsg>());  // 29 + 28
  });
  sim.Schedule(1500, [&] {
    auto shuffle = std::make_unique<GossipShuffleMsg>();
    shuffle->contacts.resize(1);
    net.Send(1, 2, std::move(shuffle));                  // 29 + 4 + 12
    net.Send(1, 2, std::make_unique<ChordNotifyMsg>());  // 29 + 8
  });
  sim.RunUntil(2000);

  ASSERT_EQ(sampler.points().size(), 2u);
  const auto& p0 = sampler.points()[0];
  const auto& p1 = sampler.points()[1];
  EXPECT_EQ(p0.time, 1000);
  EXPECT_EQ(p0.traffic.chord.messages, 1u);
  EXPECT_EQ(p0.traffic.chord.bytes, 57u);
  EXPECT_EQ(p0.traffic.gossip.messages, 0u);
  EXPECT_EQ(p1.time, 2000);
  // Cumulative, not per-interval: consumers diff consecutive points.
  EXPECT_EQ(p1.traffic.chord.messages, 2u);
  EXPECT_EQ(p1.traffic.chord.bytes, 57u + 37);
  EXPECT_EQ(p1.traffic.gossip.bytes, 45u);
  EXPECT_EQ(p1.bytes_sent, 57u + 37 + 45);
}

}  // namespace
}  // namespace flowercdn
