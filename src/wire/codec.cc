#include "wire/codec.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "chord/messages.h"
#include "flower/messages.h"
#include "gossip/cyclon.h"
#include "squirrel/messages.h"
#include "util/bloom_filter.h"
#include "util/logging.h"

namespace flowercdn {
namespace {

// Bloom layout: bit_count u64 | num_hashes u32 | inserted_count u64 |
// words... — the word count is derived from bit_count, never trusted from
// the buffer, and FromWire re-validates the full geometry (tail bits, hash
// range) so a forged filter can't smuggle inconsistent state.
void WriteBloom(WireWriter& w, const BloomFilter& f) {
  w.U64(f.bit_count());
  w.U32(uint32_t(f.num_hashes()));
  w.U64(f.inserted_count());
  for (uint64_t word : f.words()) w.U64(word);
}

BloomFilter ReadBloom(WireReader& r) {
  uint64_t bit_count = r.U64();
  uint32_t num_hashes = r.U32();
  uint64_t inserted_count = r.U64();
  if (!r.ok()) return BloomFilter();
  if (bit_count > kWireMaxBloomBits) {
    r.Fail("bloom filter too large");
    return BloomFilter();
  }
  size_t num_words = size_t((bit_count + 63) / 64);
  if (num_words * 8 > r.remaining()) {
    r.Fail("bloom words truncated");
    return BloomFilter();
  }
  std::vector<uint64_t> words;
  words.reserve(num_words);
  for (size_t i = 0; i < num_words; ++i) words.push_back(r.U64());
  Result<BloomFilter> filter =
      BloomFilter::FromWire(size_t(bit_count), num_hashes,
                            size_t(inserted_count), std::move(words));
  if (!filter.ok()) {
    r.Fail("malformed bloom filter");
    return BloomFilter();
  }
  return std::move(filter).value();
}

// The writer and reader visitors of the per-type field walks (`Walk` in
// {chord,flower,squirrel}/messages.h and gossip/cyclon.h; WireSizer in
// sim/message.h is the third visitor). Fields go out in walk order.

class FieldWriter {
 public:
  explicit FieldWriter(WireWriter& w) : w_(w) {}

  void Bool(bool x) { w_.Bool(x); }
  template <typename T>
  void U32(const T& x) { w_.U32(uint32_t(x)); }
  template <typename T>
  void U64(const T& x) { w_.U64(uint64_t(x)); }
  template <typename T>
  void Packed(const T& x) { w_.U64(x.Packed()); }
  template <typename T>
  void Enum(const T& x, std::type_identity_t<T>, const char*) {
    w_.U8(uint8_t(x));
  }
  template <typename L, typename W>
  void List(const L& list, W walk) {
    w_.U32(uint32_t(list.size()));
    for (const auto& e : list) walk(*this, e);
  }
  void Bloom(const BloomFilter& f) { WriteBloom(w_, f); }

 private:
  WireWriter& w_;
};

// Reads through even after a failure (the reader returns zeros and every
// count is 0), so a walk needs no per-field error plumbing: the registry
// rejects the result at the end.
class FieldReader {
 public:
  explicit FieldReader(WireReader& r) : r_(r) {}

  void Bool(bool& x) { x = r_.Bool(); }
  template <typename T>
  void U32(T& x) { x = T(r_.U32()); }
  template <typename T>
  void U64(T& x) { x = T(r_.U64()); }
  template <typename T>
  void Packed(T& x) { x = T::FromPacked(r_.U64()); }
  template <typename T>
  void Enum(T& x, std::type_identity_t<T> max, const char* error) {
    uint8_t raw = r_.U8();
    if (raw > uint8_t(max)) {
      r_.Fail(error);
      return;
    }
    x = T(raw);
  }
  /// The count is capped by the bytes left at the element walk's minimum
  /// width, so a forged count cannot size an allocation.
  template <typename L, typename W>
  void List(L& list, W walk) {
    using E = WireElement<L>;
    size_t n = r_.Count(kWireMaxElements, WireShapeOf<E>(W{}).bytes);
    list.reserve(n);
    for (size_t i = 0; i < n && r_.ok(); ++i) {
      E e{};
      walk(*this, e);
      list.push_back(std::move(e));
    }
  }
  void Bloom(BloomFilter& f) { f = ReadBloom(r_); }

 private:
  WireReader& r_;
};

// MakeEntry<T> binds the writer and reader to T's walk; a message type
// without one (a ping, an ack, a NACK) has an empty payload.
template <typename T>
WireRegistry::Entry MakeEntry(const char* name) {
  constexpr bool kHasWalk = std::is_base_of_v<WireMessage<T>, T>;
  WireRegistry::Entry entry;
  entry.name = name;
  entry.encode = [](const Message& msg, WireWriter& w) {
    if constexpr (kHasWalk) {
      FieldWriter v(w);
      T::Walk(v, MessageCast<T>(msg));
    }
  };
  entry.decode = [](WireReader& r) -> MessagePtr {
    auto msg = std::make_unique<T>();
    if constexpr (kHasWalk) {
      FieldReader v(r);
      T::Walk(v, *msg);
    }
    if (!r.ok()) return nullptr;
    return msg;
  };
  return entry;
}

}  // namespace

WireRegistry::WireRegistry() {
  Register(kTransportNack, MakeEntry<TransportNackMsg>("transport.nack"));
  Register(kRpcRefused, MakeEntry<RpcRefusedMsg>("rpc.refused"));

  Register(kChordFindSuccessor,
           MakeEntry<ChordFindSuccessorMsg>("chord.find_successor"));
  Register(kChordForwardAck,
           MakeEntry<ChordForwardAckMsg>("chord.forward_ack"));
  Register(kChordLookupResult,
           MakeEntry<ChordLookupResultMsg>("chord.lookup_result"));
  Register(kChordGetNeighbors,
           MakeEntry<ChordGetNeighborsMsg>("chord.get_neighbors"));
  Register(kChordNeighborsReply,
           MakeEntry<ChordNeighborsReplyMsg>("chord.neighbors_reply"));
  Register(kChordNotify, MakeEntry<ChordNotifyMsg>("chord.notify"));
  Register(kChordNotifyReply,
           MakeEntry<ChordNotifyReplyMsg>("chord.notify_reply"));
  Register(kChordGetFingers,
           MakeEntry<ChordGetFingersMsg>("chord.get_fingers"));
  Register(kChordFingersReply,
           MakeEntry<ChordFingersReplyMsg>("chord.fingers_reply"));
  Register(kChordPing, MakeEntry<ChordPingMsg>("chord.ping"));
  Register(kChordPong, MakeEntry<ChordPongMsg>("chord.pong"));
  Register(kChordLeave, MakeEntry<ChordLeaveMsg>("chord.leave"));

  Register(kGossipShuffle, MakeEntry<GossipShuffleMsg>("gossip.shuffle"));
  Register(kGossipShuffleReply,
           MakeEntry<GossipShuffleReplyMsg>("gossip.shuffle_reply"));

  Register(kFlowerDirQuery, MakeEntry<FlowerDirQueryMsg>("flower.dir_query"));
  Register(kFlowerDirQueryReply,
           MakeEntry<FlowerDirQueryReplyMsg>("flower.dir_query_reply"));
  Register(kFlowerFetch, MakeEntry<FlowerFetchMsg>("flower.fetch"));
  Register(kFlowerFetchReply,
           MakeEntry<FlowerFetchReplyMsg>("flower.fetch_reply"));
  Register(kFlowerGossip, MakeEntry<FlowerGossipMsg>("flower.gossip"));
  Register(kFlowerGossipReply,
           MakeEntry<FlowerGossipReplyMsg>("flower.gossip_reply"));
  Register(kFlowerKeepalive,
           MakeEntry<FlowerKeepaliveMsg>("flower.keepalive"));
  Register(kFlowerKeepaliveReply,
           MakeEntry<FlowerKeepaliveReplyMsg>("flower.keepalive_reply"));
  Register(kFlowerPush, MakeEntry<FlowerPushMsg>("flower.push"));
  Register(kFlowerPushReply,
           MakeEntry<FlowerPushReplyMsg>("flower.push_reply"));
  Register(kFlowerPromote, MakeEntry<FlowerPromoteMsg>("flower.promote"));
  Register(kFlowerDirHandoff,
           MakeEntry<FlowerDirHandoffMsg>("flower.dir_handoff"));
  Register(kFlowerDirProbe, MakeEntry<FlowerDirProbeMsg>("flower.dir_probe"));
  Register(kFlowerDirProbeReply,
           MakeEntry<FlowerDirProbeReplyMsg>("flower.dir_probe_reply"));
  Register(kFlowerForwardedQuery,
           MakeEntry<FlowerForwardedQueryMsg>("flower.forwarded_query"));
  Register(kFlowerKeywordQuery,
           MakeEntry<FlowerKeywordQueryMsg>("flower.keyword_query"));
  Register(kFlowerKeywordReply,
           MakeEntry<FlowerKeywordReplyMsg>("flower.keyword_reply"));
  Register(kFlowerReplicaSync,
           MakeEntry<FlowerReplicaSyncMsg>("flower.replica_sync"));
  Register(kFlowerReplicaSyncReply,
           MakeEntry<FlowerReplicaSyncReplyMsg>("flower.replica_sync_reply"));

  Register(kSquirrelQuery, MakeEntry<SquirrelQueryMsg>("squirrel.query"));
  Register(kSquirrelQueryReply,
           MakeEntry<SquirrelQueryReplyMsg>("squirrel.query_reply"));
  Register(kSquirrelFetch, MakeEntry<SquirrelFetchMsg>("squirrel.fetch"));
  Register(kSquirrelFetchReply,
           MakeEntry<SquirrelFetchReplyMsg>("squirrel.fetch_reply"));
  Register(kSquirrelUpdate, MakeEntry<SquirrelUpdateMsg>("squirrel.update"));
  Register(kSquirrelHandoff,
           MakeEntry<SquirrelHandoffMsg>("squirrel.handoff"));
}

void WireRegistry::Register(MessageType type, Entry entry) {
  FLOWERCDN_CHECK(Find(type) == nullptr)
      << "duplicate wire registration for type " << type;
  entries_.emplace_back(type, entry);
  std::sort(entries_.begin(), entries_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

const WireRegistry& WireRegistry::Global() {
  static const WireRegistry* registry = new WireRegistry();
  return *registry;
}

const WireRegistry::Entry* WireRegistry::Find(MessageType type) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), type,
      [](const auto& entry, MessageType t) { return entry.first < t; });
  if (it == entries_.end() || it->first != type) return nullptr;
  return &it->second;
}

std::vector<MessageType> WireRegistry::RegisteredTypes() const {
  std::vector<MessageType> types;
  types.reserve(entries_.size());
  for (const auto& [type, entry] : entries_) types.push_back(type);
  return types;
}

void WireEncodeTo(const Message& msg, std::vector<uint8_t>* out) {
  const WireRegistry::Entry* entry = WireRegistry::Global().Find(msg.type);
  FLOWERCDN_CHECK(entry != nullptr)
      << "encoding unregistered message type " << msg.type;
  WireWriter w(out);
  w.U32(msg.type);
  w.U8(msg.is_response ? 1 : 0);
  w.U64(msg.src);
  w.U64(msg.dst);
  w.U64(msg.rpc_id);
  entry->encode(msg, w);
}

std::vector<uint8_t> WireEncode(const Message& msg) {
  std::vector<uint8_t> out;
  WireEncodeTo(msg, &out);
  return out;
}

Result<MessagePtr> WireDecode(const uint8_t* data, size_t size) {
  if (size < kWireHeaderBytes) {
    return Status::InvalidArgument("wire: buffer shorter than header");
  }
  WireReader r(data, size);
  MessageType type = r.U32();
  uint8_t flags = r.U8();
  PeerId src = r.U64();
  PeerId dst = r.U64();
  uint64_t rpc_id = r.U64();
  if ((flags & ~uint8_t(1)) != 0) {
    return Status::InvalidArgument("wire: reserved flag bits set");
  }
  const WireRegistry::Entry* entry = WireRegistry::Global().Find(type);
  if (entry == nullptr) {
    return Status::InvalidArgument("wire: unknown message type " +
                                   std::to_string(type));
  }
  MessagePtr msg = entry->decode(r);
  if (msg == nullptr || !r.ok()) {
    return Status::InvalidArgument(std::string("wire: malformed ") +
                                   entry->name + " payload: " +
                                   (r.ok() ? "decoder rejected" : r.error()));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument(std::string("wire: ") +
                                   std::to_string(r.remaining()) +
                                   " trailing bytes after " + entry->name);
  }
  msg->src = src;
  msg->dst = dst;
  msg->rpc_id = rpc_id;
  msg->is_response = (flags & 1) != 0;
  return msg;
}

}  // namespace flowercdn
