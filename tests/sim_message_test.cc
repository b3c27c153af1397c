#include <gtest/gtest.h>

#include "chord/messages.h"
#include "flower/messages.h"
#include "gossip/cyclon.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "squirrel/messages.h"
#include "storage/content_store.h"

namespace flowercdn {
namespace {

// Message::WireSize() is the encoded length: the 29-byte header plus the
// payload the type's field walk lists. Each case states the layout it
// adds up; wire_codec_test checks the same walk against WireEncode.
TEST(MessageSizeTest, PayloadlessMessageIsTheHeader) {
  EXPECT_EQ(kWireHeaderBytes, 29u);
  Message msg;
  EXPECT_EQ(msg.WireSize(), 29u);
  EXPECT_EQ(ChordPingMsg().WireSize(), 29u);
  EXPECT_EQ(TransportNackMsg().WireSize(), 29u);
}

TEST(MessageSizeTest, ListsAreCountPlusElements) {
  // has_predecessor 1 + predecessor 16 + count 4 + 8 successors x 16.
  ChordNeighborsReplyMsg reply;
  EXPECT_EQ(reply.WireSize(), 29u + 1 + 16 + 4);
  reply.successors.resize(8);
  EXPECT_EQ(reply.WireSize(), 29u + 1 + 16 + 4 + 128);

  // count 4 + 100 objects x 8.
  FlowerPushMsg push;
  push.objects.resize(100);
  EXPECT_EQ(push.WireSize(), 29u + 4 + 800);

  // count 4 + 5 contacts x (peer 8 + age 4).
  GossipShuffleMsg shuffle;
  shuffle.contacts.resize(5);
  EXPECT_EQ(shuffle.WireSize(), 29u + 4 + 60);

  // key, origin, lookup_id 8 each + hops 4.
  EXPECT_EQ(ChordFindSuccessorMsg().WireSize(), 29u + 28);
}

TEST(MessageSizeTest, GossipCarriesSummaryWeight) {
  // contacts count 4 + bloom (bit_count 8 + num_hashes 4 + inserted 8 +
  // words) + dir-info (dir 8 + instance 4 + age 4).
  FlowerGossipMsg small;
  EXPECT_EQ(small.WireSize(), 29u + 4 + 20 + 16);

  ContentStore store;
  for (uint32_t i = 0; i < 200; ++i) store.Insert({0, i});
  FlowerGossipMsg big;
  big.summary = store.BuildSummary(0.02);
  // Sized for 2 x 200 keys at 2%: ceil(400 ln 50 / ln^2 2) = 3257 bits =
  // 51 words.
  ASSERT_EQ(big.summary.words().size(), 51u);
  big.contacts.resize(3);
  EXPECT_EQ(big.WireSize(), 29u + 4 + 36 + 20 + 408 + 16);
}

TEST(MessageSizeTest, NestedListsAddUpPerElement) {
  // count 4 + per entry: object 8 + stored_copy 1 + count 4 + delegates.
  SquirrelHandoffMsg handoff;
  SquirrelHandoffMsg::Entry entry;
  entry.delegates = {1, 2, 3};
  handoff.entries.push_back(entry);
  entry.delegates = {4};
  handoff.entries.push_back(entry);
  EXPECT_EQ(handoff.WireSize(), 29u + 4 + (13 + 3 * 8) + (13 + 1 * 8));

  // 12 fixed + view count 4 + 2 contacts + index count 4 + per peer
  // (peer 8 + count 4 + objects).
  FlowerDirHandoffMsg dir;
  dir.view.resize(2);
  dir.index.peers.emplace_back(7, std::vector<ObjectId>(5));
  dir.index.peers.emplace_back(8, std::vector<ObjectId>());
  EXPECT_EQ(dir.WireSize(), 29u + 12 + 4 + 24 + 4 + (12 + 40) + 12);
}

class SinkNode : public SimNode {
 public:
  void HandleMessage(MessagePtr) override {}
};

TEST(NetworkTrafficTest, BytesAndCategoriesAreCounted) {
  Simulator sim;
  Topology topo{Topology::Params{}};
  Network net(&sim, &topo);
  Rng rng(1);
  net.RegisterIdentity(1, topo.PlaceInLocality(0, rng));
  net.RegisterIdentity(2, topo.PlaceInLocality(1, rng));
  SinkNode a, b;
  net.Attach(1, &a);
  net.Attach(2, &b);

  auto shuffle = std::make_unique<GossipShuffleMsg>();
  shuffle->contacts.resize(5);
  auto push = std::make_unique<FlowerPushMsg>();
  push->objects.resize(10);
  auto unregistered = std::make_unique<Message>();
  unregistered->type = 900;
  net.Send(1, 2, std::make_unique<ChordFindSuccessorMsg>());  // 29 + 28
  net.Send(1, 2, std::move(shuffle));                          // 29 + 4 + 60
  net.Send(1, 2, std::move(push));                             // 29 + 4 + 80
  net.Send(1, 2, std::make_unique<SquirrelQueryMsg>());        // 29 + 8
  net.Send(1, 2, std::move(unregistered));                     // 29
  sim.Run();

  EXPECT_EQ(net.bytes_sent(), 57u + 93 + 113 + 37 + 29);
  EXPECT_EQ(net.traffic().chord.messages, 1u);
  EXPECT_EQ(net.traffic().chord.bytes, 57u);
  EXPECT_EQ(net.traffic().gossip.messages, 1u);
  EXPECT_EQ(net.traffic().gossip.bytes, 93u);
  EXPECT_EQ(net.traffic().flower.messages, 1u);
  EXPECT_EQ(net.traffic().flower.bytes, 113u);
  EXPECT_EQ(net.traffic().squirrel.messages, 1u);
  EXPECT_EQ(net.traffic().squirrel.bytes, 37u);
  EXPECT_EQ(net.traffic().other.messages, 1u);
  EXPECT_EQ(net.traffic().other.bytes, 29u);
  EXPECT_EQ(net.traffic().dropped.messages, 0u);
  EXPECT_EQ(net.messages_delivered(), 5u);
}

TEST(NetworkTrafficTest, DroppedMessageBytesAreCounted) {
  Simulator sim;
  Topology topo{Topology::Params{}};
  Network net(&sim, &topo);
  Rng rng(1);
  net.RegisterIdentity(1, topo.PlaceInLocality(0, rng));
  net.RegisterIdentity(2, topo.PlaceInLocality(1, rng));
  SinkNode a, b;
  net.Attach(1, &a);
  net.Attach(2, &b);

  auto reply = std::make_unique<ChordFingersReplyMsg>();
  reply->fingers.resize(6);  // 29 + 4 + 6 x 16
  net.Send(1, 2, std::move(reply));
  net.Detach(2);  // receiver fails while the message is in flight
  sim.Run();

  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.traffic().dropped.messages, 1u);
  EXPECT_EQ(net.traffic().dropped.bytes, 129u);
  // The send-side family accounting still saw the message.
  EXPECT_EQ(net.traffic().chord.messages, 1u);
  EXPECT_EQ(net.traffic().chord.bytes, 129u);
}

}  // namespace
}  // namespace flowercdn
