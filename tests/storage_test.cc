#include <gtest/gtest.h>

#include <unordered_set>

#include "sim/topology.h"
#include "storage/content_store.h"
#include "storage/object_id.h"
#include "storage/origin.h"
#include "storage/website.h"
#include "storage/workload.h"

namespace flowercdn {
namespace {

// --- ObjectId ----------------------------------------------------------------

TEST(ObjectIdTest, PackedRoundTrips) {
  ObjectId o{42, 17};
  ObjectId back = ObjectId::FromPacked(o.Packed());
  EXPECT_EQ(back, o);
  EXPECT_EQ(back.website, 42u);
  EXPECT_EQ(back.object, 17u);
}

TEST(ObjectIdTest, PackedIsInjective) {
  EXPECT_NE((ObjectId{1, 2}).Packed(), (ObjectId{2, 1}).Packed());
  EXPECT_NE((ObjectId{0, 5}).Packed(), (ObjectId{5, 0}).Packed());
}

TEST(ObjectIdTest, UrlAndHomeKeyStable) {
  ObjectId o{3, 9};
  EXPECT_EQ(o.Url(), "http://ws3.example/obj9");
  EXPECT_EQ(o.HomeKey(), o.HomeKey());
  EXPECT_NE(o.HomeKey(), (ObjectId{3, 10}).HomeKey());
}

// --- WebsiteCatalog -----------------------------------------------------------

TEST(WebsiteCatalogTest, ActiveWebsitesAreThePrefix) {
  WebsiteCatalog::Params params;
  params.num_websites = 10;
  params.num_active = 3;
  WebsiteCatalog catalog(params);
  EXPECT_TRUE(catalog.IsActive(0));
  EXPECT_TRUE(catalog.IsActive(2));
  EXPECT_FALSE(catalog.IsActive(3));
  EXPECT_EQ(catalog.active_websites().size(), 3u);
}

TEST(WebsiteCatalogTest, SamplesAreZipfSkewed) {
  WebsiteCatalog catalog(WebsiteCatalog::Params{});
  Rng rng(5);
  int top10 = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    ObjectId o = catalog.SampleObject(0, rng);
    EXPECT_EQ(o.website, 0u);
    EXPECT_LT(o.object, 500u);
    top10 += o.object < 10;
  }
  // Zipf(0.8) over 500 objects: top-10 mass ~20%, way above uniform 2%.
  EXPECT_GT(top10, kDraws * 12 / 100);
}

// --- ContentStore -------------------------------------------------------------

TEST(ContentStoreTest, InsertAndContains) {
  ContentStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Insert({1, 2}));
  EXPECT_FALSE(store.Insert({1, 2}));  // duplicate
  EXPECT_TRUE(store.Contains({1, 2}));
  EXPECT_FALSE(store.Contains({1, 3}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(ContentStoreTest, PushThresholdTracking) {
  ContentStore store;
  EXPECT_EQ(store.ChangeFraction(), 0.0);
  store.Insert({0, 1});
  // Never pushed + new content => full change.
  EXPECT_EQ(store.ChangeFraction(), 1.0);
  store.MarkPushed();
  EXPECT_EQ(store.ChangeFraction(), 0.0);
  store.Insert({0, 2});
  EXPECT_DOUBLE_EQ(store.ChangeFraction(), 1.0);  // 1 change / 1 at push
  store.Insert({0, 3});
  EXPECT_DOUBLE_EQ(store.ChangeFraction(), 2.0);
  store.MarkPushed();
  store.Insert({0, 4});
  EXPECT_DOUBLE_EQ(store.ChangeFraction(), 1.0 / 3.0);
}

TEST(ContentStoreTest, SummaryHasNoFalseNegatives) {
  ContentStore store;
  for (uint32_t i = 0; i < 200; ++i) store.Insert({2, i});
  BloomFilter summary = store.BuildSummary(0.02);
  for (uint32_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(summary.MayContain((ObjectId{2, i}).Packed()));
  }
}

TEST(ContentStoreTest, ObjectListsByWebsite) {
  ContentStore store;
  store.Insert({1, 0});
  store.Insert({1, 1});
  store.Insert({2, 0});
  EXPECT_EQ(store.ObjectList().size(), 3u);
  EXPECT_EQ(store.ObjectsOfWebsite(1).size(), 2u);
  EXPECT_EQ(store.ObjectsOfWebsite(3).size(), 0u);
}

// --- QueryWorkload ------------------------------------------------------------

TEST(QueryWorkloadTest, NeverReturnsCachedObjects) {
  WebsiteCatalog catalog(WebsiteCatalog::Params{});
  QueryWorkload workload(&catalog);
  ContentStore store;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    auto q = workload.NextQuery(0, store, rng);
    ASSERT_TRUE(q.has_value());
    EXPECT_FALSE(store.Contains(*q)) << "re-queried a cached object";
    store.Insert(*q);
  }
  EXPECT_EQ(store.size(), 300u);
}

TEST(QueryWorkloadTest, ExhaustedInterestReturnsNothing) {
  WebsiteCatalog::Params cp;
  cp.num_websites = 1;
  cp.num_active = 1;
  cp.objects_per_website = 5;
  WebsiteCatalog catalog(cp);
  QueryWorkload workload(&catalog);
  ContentStore store;
  Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    auto q = workload.NextQuery(0, store, rng);
    ASSERT_TRUE(q.has_value());
    store.Insert(*q);
  }
  EXPECT_FALSE(workload.NextQuery(0, store, rng).has_value());
}

TEST(QueryWorkloadTest, GapsAreExponentialWithConfiguredMean) {
  WebsiteCatalog catalog(WebsiteCatalog::Params{});
  QueryWorkload workload(&catalog);
  Rng rng(11);
  double sum = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(workload.NextQueryGap(0, rng));
  }
  EXPECT_NEAR(sum / kDraws, static_cast<double>(6 * kMinute),
              0.03 * 6 * kMinute);
}

// --- OriginServers ------------------------------------------------------------

TEST(OriginServersTest, FetchCostsRoundTripPlusOverhead) {
  Topology topo(Topology::Params{});
  OriginServers origins(&topo, 10, Rng(13));
  Coord client{0.0, 0.0};
  for (WebsiteId ws = 0; ws < 10; ++ws) {
    double distance = origins.DistanceMs(client, ws);
    EXPECT_GE(distance, 0.0);
    EXPECT_DOUBLE_EQ(origins.FetchLatencyMs(client, ws),
                     2 * distance + 300.0);
  }
}

TEST(OriginServersTest, OriginsAreSpreadOut) {
  Topology topo(Topology::Params{});
  OriginServers origins(&topo, 50, Rng(17));
  std::unordered_set<double> xs;
  for (WebsiteId ws = 0; ws < 50; ++ws) xs.insert(origins.CoordOf(ws).x);
  EXPECT_GT(xs.size(), 45u);
}

}  // namespace
}  // namespace flowercdn
