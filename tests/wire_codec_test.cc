#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "chord/messages.h"
#include "flower/messages.h"
#include "gossip/cyclon.h"
#include "squirrel/messages.h"
#include "util/random.h"
#include "wire/codec.h"
#include "wire/sample_messages.h"

namespace flowercdn {
namespace {

// Every message type the protocols can put on the network. Declared here
// independently of the registry so a type added to an enum but forgotten in
// codec.cc fails this list, and one added to codec.cc but not here fails
// the count.
const MessageType kAllTypes[] = {
    kTransportNack, kRpcRefused,
    kChordFindSuccessor, kChordForwardAck, kChordLookupResult,
    kChordGetNeighbors, kChordNeighborsReply, kChordNotify, kChordNotifyReply,
    kChordGetFingers, kChordFingersReply, kChordPing, kChordPong, kChordLeave,
    kGossipShuffle, kGossipShuffleReply,
    kFlowerDirQuery, kFlowerDirQueryReply, kFlowerFetch, kFlowerFetchReply,
    kFlowerGossip, kFlowerGossipReply, kFlowerKeepalive, kFlowerKeepaliveReply,
    kFlowerPush, kFlowerPushReply, kFlowerPromote, kFlowerDirHandoff,
    kFlowerDirProbe, kFlowerDirProbeReply, kFlowerForwardedQuery,
    kFlowerKeywordQuery, kFlowerKeywordReply,
    kFlowerReplicaSync, kFlowerReplicaSyncReply,
    kSquirrelQuery, kSquirrelQueryReply, kSquirrelFetch, kSquirrelFetchReply,
    kSquirrelUpdate, kSquirrelHandoff,
};

TEST(WireRegistryTest, EveryProtocolTypeIsRegistered) {
  const WireRegistry& registry = WireRegistry::Global();
  for (MessageType t : kAllTypes) {
    const WireRegistry::Entry* entry = registry.Find(t);
    ASSERT_NE(entry, nullptr) << "type " << t << " has no codec";
    EXPECT_NE(entry->encode, nullptr);
    EXPECT_NE(entry->decode, nullptr);
    EXPECT_NE(entry->name, nullptr);
  }
  // And nothing extra: the registry covers exactly this set.
  EXPECT_EQ(registry.size(), std::size(kAllTypes));
  std::set<MessageType> expected(std::begin(kAllTypes), std::end(kAllTypes));
  for (MessageType t : registry.RegisteredTypes()) {
    EXPECT_TRUE(expected.count(t)) << "unexpected registration " << t;
  }
}

TEST(WireRegistryTest, UnknownTypesAreNotFound) {
  const WireRegistry& registry = WireRegistry::Global();
  EXPECT_EQ(registry.Find(0), nullptr);
  EXPECT_EQ(registry.Find(999), nullptr);
  EXPECT_EQ(registry.Find(kChordMessageBase + 99), nullptr);
  EXPECT_EQ(registry.Find(kContentMessageBase), nullptr);
}

TEST(WireCodecTest, SamplesCoverEveryRegisteredType) {
  std::set<MessageType> seen;
  for (const MessagePtr& msg : BuildSampleMessages()) {
    seen.insert(msg->type);
  }
  for (MessageType t : WireRegistry::Global().RegisteredTypes()) {
    EXPECT_TRUE(seen.count(t)) << "no sample message for type " << t;
  }
}

// encode(decode(encode(m))) == encode(m): the encoding is a fixed point of
// the round trip, for every type.
TEST(WireCodecTest, RoundTripIsFixedPoint) {
  for (const MessagePtr& msg : BuildSampleMessages()) {
    std::vector<uint8_t> bytes = WireEncode(*msg);
    ASSERT_GE(bytes.size(), kWireHeaderBytes);
    Result<MessagePtr> decoded = WireDecode(bytes);
    ASSERT_TRUE(decoded.ok())
        << "type " << msg->type << ": " << decoded.status().ToString();
    const Message& back = **decoded;
    EXPECT_EQ(back.type, msg->type);
    EXPECT_EQ(back.src, msg->src);
    EXPECT_EQ(back.dst, msg->dst);
    EXPECT_EQ(back.rpc_id, msg->rpc_id);
    EXPECT_EQ(back.is_response, msg->is_response);
    EXPECT_EQ(WireEncode(back), bytes) << "type " << msg->type;
  }
}

TEST(WireCodecTest, DecodedFieldsMatch) {
  ChordNeighborsReplyMsg reply;
  reply.src = 1;
  reply.dst = 2;
  reply.rpc_id = 3;
  reply.is_response = true;
  reply.has_predecessor = true;
  reply.predecessor = RingPeer{10, 1111};
  reply.successors = {{11, 2222}, {12, 3333}};
  Result<MessagePtr> decoded = WireDecode(WireEncode(reply));
  ASSERT_TRUE(decoded.ok());
  const auto& back = MessageCast<ChordNeighborsReplyMsg>(**decoded);
  EXPECT_TRUE(back.has_predecessor);
  EXPECT_EQ(back.predecessor, reply.predecessor);
  ASSERT_EQ(back.successors.size(), 2u);
  EXPECT_EQ(back.successors[0], reply.successors[0]);
  EXPECT_EQ(back.successors[1], reply.successors[1]);

  FlowerGossipMsg gossip;
  gossip.src = 4;
  gossip.dst = 5;
  gossip.contacts = {{42, 7}};
  gossip.summary = BloomFilter(32, 0.01);
  gossip.summary.Insert(ObjectId{1, 2}.Packed());
  gossip.dir_info = DirInfo{99, 2, 13};
  Result<MessagePtr> gback = WireDecode(WireEncode(gossip));
  ASSERT_TRUE(gback.ok());
  const auto& g = MessageCast<FlowerGossipMsg>(**gback);
  ASSERT_EQ(g.contacts.size(), 1u);
  EXPECT_EQ(g.contacts[0].peer, 42u);
  EXPECT_EQ(g.contacts[0].age, 7u);
  EXPECT_EQ(g.summary.bit_count(), gossip.summary.bit_count());
  EXPECT_EQ(g.summary.num_hashes(), gossip.summary.num_hashes());
  EXPECT_EQ(g.summary.inserted_count(), 1u);
  EXPECT_TRUE(g.summary.MayContain(ObjectId{1, 2}.Packed()));
  EXPECT_EQ(g.dir_info.dir, 99u);
  EXPECT_EQ(g.dir_info.instance, 2);
  EXPECT_EQ(g.dir_info.age, 13u);

  SquirrelHandoffMsg handoff;
  SquirrelHandoffMsg::Entry entry;
  entry.object = ObjectId{7, 8};
  entry.delegates = {21, 22, 23};
  entry.stored_copy = true;
  handoff.entries.push_back(entry);
  Result<MessagePtr> hback = WireDecode(WireEncode(handoff));
  ASSERT_TRUE(hback.ok());
  const auto& h = MessageCast<SquirrelHandoffMsg>(**hback);
  ASSERT_EQ(h.entries.size(), 1u);
  EXPECT_EQ(h.entries[0].object, entry.object);
  EXPECT_EQ(h.entries[0].delegates, entry.delegates);
  EXPECT_TRUE(h.entries[0].stored_copy);
}

TEST(WireCodecTest, HeaderLayoutIsPinned) {
  ChordPingMsg ping;
  ping.src = 0x0102030405060708ULL;
  ping.dst = 0x1112131415161718ULL;
  ping.rpc_id = 0x2122232425262728ULL;
  ping.is_response = false;
  std::vector<uint8_t> bytes = WireEncode(ping);
  ASSERT_EQ(bytes.size(), kWireHeaderBytes);
  // type (LE u32)
  EXPECT_EQ(bytes[0], (kChordPing >> 0) & 0xff);
  EXPECT_EQ(bytes[1], (kChordPing >> 8) & 0xff);
  EXPECT_EQ(bytes[2], 0);
  EXPECT_EQ(bytes[3], 0);
  // flags
  EXPECT_EQ(bytes[4], 0);
  // src/dst/rpc_id (LE u64)
  EXPECT_EQ(bytes[5], 0x08);
  EXPECT_EQ(bytes[12], 0x01);
  EXPECT_EQ(bytes[13], 0x18);
  EXPECT_EQ(bytes[20], 0x11);
  EXPECT_EQ(bytes[21], 0x28);
  EXPECT_EQ(bytes[28], 0x21);

  ping.is_response = true;
  EXPECT_EQ(WireEncode(ping)[4], 1);
}

// Message::WireSize() walks the same fields the codec encodes, so it is the
// encoded length: for every sample, for large payloads (where a wrong
// per-element width would compound), and for every mutated buffer the
// decoder accepts.
TEST(WireCodecTest, EncodedSizeMatchesEncodeLength) {
  std::vector<MessagePtr> messages = BuildSampleMessages();

  auto reply = std::make_unique<ChordNeighborsReplyMsg>();
  for (uint64_t i = 1; i <= 64; ++i) reply->successors.push_back({i, i * 7});
  messages.push_back(std::move(reply));

  auto push = std::make_unique<FlowerPushMsg>();
  for (uint32_t i = 0; i < 400; ++i) push->objects.push_back({1, i});
  messages.push_back(std::move(push));

  auto gossip = std::make_unique<FlowerGossipMsg>();
  for (uint64_t i = 1; i <= 30; ++i) {
    gossip->contacts.push_back({i, uint32_t(i)});
  }
  gossip->summary = BloomFilter(500, 0.02);
  for (uint32_t i = 0; i < 500; ++i) {
    gossip->summary.Insert(ObjectId{1, i}.Packed());
  }
  messages.push_back(std::move(gossip));

  for (const MessagePtr& msg : messages) {
    EXPECT_EQ(msg->WireSize(), WireEncode(*msg).size())
        << "type " << msg->type;
  }

  Rng rng(7);
  size_t accepted = 0;
  for (const MessagePtr& msg : BuildSampleMessages()) {
    const std::vector<uint8_t> original = WireEncode(*msg);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<uint8_t> mutated = original;
      size_t pos = size_t(rng.NextBounded(uint64_t(mutated.size())));
      mutated[pos] = uint8_t(rng.NextBounded(256));
      Result<MessagePtr> decoded = WireDecode(mutated);
      if (!decoded.ok()) continue;
      ++accepted;
      EXPECT_EQ((*decoded)->WireSize(), mutated.size())
          << "type " << msg->type;
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace flowercdn
