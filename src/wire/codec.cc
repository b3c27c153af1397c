#include "wire/codec.h"

#include <algorithm>
#include <utility>

#include "chord/messages.h"
#include "flower/messages.h"
#include "gossip/cyclon.h"
#include "squirrel/messages.h"
#include "util/bloom_filter.h"
#include "util/logging.h"

namespace flowercdn {
namespace {

// ---------------------------------------------------------------------------
// Shared sub-encodings. Each composite value has exactly one layout, reused
// by every message that ships it (the per-type tables in docs/PROTOCOL.md
// reference these by name).

void WriteRingPeer(WireWriter& w, const RingPeer& p) {
  w.U64(p.peer);
  w.U64(p.id);
}

RingPeer ReadRingPeer(WireReader& r) {
  RingPeer p;
  p.peer = r.U64();
  p.id = r.U64();
  return p;
}

void WriteContact(WireWriter& w, const Contact& c) {
  w.U64(c.peer);
  w.U32(c.age);
}

Contact ReadContact(WireReader& r) {
  Contact c;
  c.peer = r.U64();
  c.age = r.U32();
  return c;
}

void WriteContacts(WireWriter& w, const std::vector<Contact>& contacts) {
  w.U32(uint32_t(contacts.size()));
  for (const Contact& c : contacts) WriteContact(w, c);
}

std::vector<Contact> ReadContacts(WireReader& r) {
  size_t n = r.Count(kWireMaxElements, 12);
  std::vector<Contact> contacts;
  contacts.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) contacts.push_back(ReadContact(r));
  return contacts;
}

void WriteObjectId(WireWriter& w, const ObjectId& o) { w.U64(o.Packed()); }

ObjectId ReadObjectId(WireReader& r) { return ObjectId::FromPacked(r.U64()); }

void WriteDirInfo(WireWriter& w, const DirInfo& d) {
  w.U64(d.dir);
  w.U32(uint32_t(d.instance));
  w.U32(d.age);
}

DirInfo ReadDirInfo(WireReader& r) {
  DirInfo d;
  d.dir = r.U64();
  d.instance = int(r.U32());
  d.age = r.U32();
  return d;
}

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

// ---------------------------------------------------------------------------
// Per-type payload codecs. Encoders write fields in declaration order;
// decoders mirror them exactly. A decoder reads through even after a
// failure (the reader returns zeros) and the registry rejects the result,
// so none of them needs per-field error plumbing.

// --- transport ---

void EncodePayload(const TransportNackMsg&, WireWriter&) {}
void DecodePayload(WireReader&, TransportNackMsg&) {}
void EncodePayload(const RpcRefusedMsg&, WireWriter&) {}
void DecodePayload(WireReader&, RpcRefusedMsg&) {}

// --- chord ---

void EncodePayload(const ChordFindSuccessorMsg& m, WireWriter& w) {
  w.U64(m.key);
  w.U64(m.origin);
  w.U64(m.lookup_id);
  w.U32(uint32_t(m.hops));
}

void DecodePayload(WireReader& r, ChordFindSuccessorMsg& m) {
  m.key = r.U64();
  m.origin = r.U64();
  m.lookup_id = r.U64();
  m.hops = int(r.U32());
}

void EncodePayload(const ChordForwardAckMsg&, WireWriter&) {}
void DecodePayload(WireReader&, ChordForwardAckMsg&) {}

void EncodePayload(const ChordLookupResultMsg& m, WireWriter& w) {
  w.U64(m.lookup_id);
  WriteRingPeer(w, m.owner);
  w.U32(uint32_t(m.hops));
}

void DecodePayload(WireReader& r, ChordLookupResultMsg& m) {
  m.lookup_id = r.U64();
  m.owner = ReadRingPeer(r);
  m.hops = int(r.U32());
}

void EncodePayload(const ChordGetNeighborsMsg&, WireWriter&) {}
void DecodePayload(WireReader&, ChordGetNeighborsMsg&) {}

void EncodePayload(const ChordNeighborsReplyMsg& m, WireWriter& w) {
  w.Bool(m.has_predecessor);
  WriteRingPeer(w, m.predecessor);
  w.U32(uint32_t(m.successors.size()));
  for (const RingPeer& p : m.successors) WriteRingPeer(w, p);
}

void DecodePayload(WireReader& r, ChordNeighborsReplyMsg& m) {
  m.has_predecessor = r.Bool();
  m.predecessor = ReadRingPeer(r);
  size_t n = r.Count(kWireMaxElements, 16);
  m.successors.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i)
    m.successors.push_back(ReadRingPeer(r));
}

void EncodePayload(const ChordNotifyMsg& m, WireWriter& w) {
  w.U64(m.notifier_id);
}

void DecodePayload(WireReader& r, ChordNotifyMsg& m) {
  m.notifier_id = r.U64();
}

void EncodePayload(const ChordNotifyReplyMsg& m, WireWriter& w) {
  w.Bool(m.duplicate_id);
  w.Bool(m.has_predecessor);
  WriteRingPeer(w, m.predecessor);
}

void DecodePayload(WireReader& r, ChordNotifyReplyMsg& m) {
  m.duplicate_id = r.Bool();
  m.has_predecessor = r.Bool();
  m.predecessor = ReadRingPeer(r);
}

void EncodePayload(const ChordGetFingersMsg&, WireWriter&) {}
void DecodePayload(WireReader&, ChordGetFingersMsg&) {}

void EncodePayload(const ChordFingersReplyMsg& m, WireWriter& w) {
  w.U32(uint32_t(m.fingers.size()));
  for (const RingPeer& p : m.fingers) WriteRingPeer(w, p);
}

void DecodePayload(WireReader& r, ChordFingersReplyMsg& m) {
  size_t n = r.Count(kWireMaxElements, 16);
  m.fingers.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) m.fingers.push_back(ReadRingPeer(r));
}

void EncodePayload(const ChordPingMsg&, WireWriter&) {}
void DecodePayload(WireReader&, ChordPingMsg&) {}

void EncodePayload(const ChordPongMsg&, WireWriter&) {}
void DecodePayload(WireReader&, ChordPongMsg&) {}

void EncodePayload(const ChordLeaveMsg& m, WireWriter& w) {
  w.Bool(m.has_predecessor);
  WriteRingPeer(w, m.predecessor);
  w.U32(uint32_t(m.successors.size()));
  for (const RingPeer& p : m.successors) WriteRingPeer(w, p);
}

void DecodePayload(WireReader& r, ChordLeaveMsg& m) {
  m.has_predecessor = r.Bool();
  m.predecessor = ReadRingPeer(r);
  size_t n = r.Count(kWireMaxElements, 16);
  m.successors.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i)
    m.successors.push_back(ReadRingPeer(r));
}

// --- gossip ---

void EncodePayload(const GossipShuffleMsg& m, WireWriter& w) {
  WriteContacts(w, m.contacts);
}

void DecodePayload(WireReader& r, GossipShuffleMsg& m) {
  m.contacts = ReadContacts(r);
}

void EncodePayload(const GossipShuffleReplyMsg& m, WireWriter& w) {
  WriteContacts(w, m.contacts);
}

void DecodePayload(WireReader& r, GossipShuffleReplyMsg& m) {
  m.contacts = ReadContacts(r);
}

// --- flower ---

void EncodePayload(const FlowerDirQueryMsg& m, WireWriter& w) {
  w.U32(m.website);
  w.U32(uint32_t(m.locality));
  w.Bool(m.has_object);
  WriteObjectId(w, m.object);
  w.Bool(m.wants_join);
  w.U32(uint32_t(m.scan_hops));
}

void DecodePayload(WireReader& r, FlowerDirQueryMsg& m) {
  m.website = r.U32();
  m.locality = LocalityId(r.U32());
  m.has_object = r.Bool();
  m.object = ReadObjectId(r);
  m.wants_join = r.Bool();
  m.scan_hops = int(r.U32());
}

void EncodePayload(const FlowerDirQueryReplyMsg& m, WireWriter& w) {
  w.U8(uint8_t(m.result));
  w.U64(m.provider);
  w.U64(m.forward_to);
  w.Bool(m.admitted);
  w.U32(uint32_t(m.instance));
  WriteContacts(w, m.view_seed);
}

void DecodePayload(WireReader& r, FlowerDirQueryReplyMsg& m) {
  uint8_t result = r.U8();
  if (result > uint8_t(DirQueryResult::kForward)) {
    r.Fail("bad DirQueryResult");
    return;
  }
  m.result = DirQueryResult(result);
  m.provider = r.U64();
  m.forward_to = r.U64();
  m.admitted = r.Bool();
  m.instance = int(r.U32());
  m.view_seed = ReadContacts(r);
}

void EncodePayload(const FlowerFetchMsg& m, WireWriter& w) {
  WriteObjectId(w, m.object);
}

void DecodePayload(WireReader& r, FlowerFetchMsg& m) {
  m.object = ReadObjectId(r);
}

void EncodePayload(const FlowerFetchReplyMsg& m, WireWriter& w) {
  w.Bool(m.has_object);
}

void DecodePayload(WireReader& r, FlowerFetchReplyMsg& m) {
  m.has_object = r.Bool();
}

void EncodePayload(const FlowerGossipMsg& m, WireWriter& w) {
  WriteContacts(w, m.contacts);
  WriteBloom(w, m.summary);
  WriteDirInfo(w, m.dir_info);
}

void DecodePayload(WireReader& r, FlowerGossipMsg& m) {
  m.contacts = ReadContacts(r);
  m.summary = ReadBloom(r);
  m.dir_info = ReadDirInfo(r);
}

void EncodePayload(const FlowerGossipReplyMsg& m, WireWriter& w) {
  WriteContacts(w, m.contacts);
  WriteBloom(w, m.summary);
  WriteDirInfo(w, m.dir_info);
}

void DecodePayload(WireReader& r, FlowerGossipReplyMsg& m) {
  m.contacts = ReadContacts(r);
  m.summary = ReadBloom(r);
  m.dir_info = ReadDirInfo(r);
}

void EncodePayload(const FlowerKeepaliveMsg&, WireWriter&) {}
void DecodePayload(WireReader&, FlowerKeepaliveMsg&) {}

void EncodePayload(const FlowerKeepaliveReplyMsg& m, WireWriter& w) {
  w.Bool(m.accepted);
  w.U32(uint32_t(m.instance));
}

void DecodePayload(WireReader& r, FlowerKeepaliveReplyMsg& m) {
  m.accepted = r.Bool();
  m.instance = int(r.U32());
}

void EncodePayload(const FlowerPushMsg& m, WireWriter& w) {
  w.U32(uint32_t(m.objects.size()));
  for (const ObjectId& o : m.objects) WriteObjectId(w, o);
}

void DecodePayload(WireReader& r, FlowerPushMsg& m) {
  size_t n = r.Count(kWireMaxElements, 8);
  m.objects.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) m.objects.push_back(ReadObjectId(r));
}

void EncodePayload(const FlowerPushReplyMsg& m, WireWriter& w) {
  w.Bool(m.accepted);
  w.U32(uint32_t(m.instance));
}

void DecodePayload(WireReader& r, FlowerPushReplyMsg& m) {
  m.accepted = r.Bool();
  m.instance = int(r.U32());
}

void EncodePayload(const FlowerPromoteMsg& m, WireWriter& w) {
  w.U32(m.website);
  w.U32(uint32_t(m.locality));
  w.U32(uint32_t(m.new_instance));
}

void DecodePayload(WireReader& r, FlowerPromoteMsg& m) {
  m.website = r.U32();
  m.locality = LocalityId(r.U32());
  m.new_instance = int(r.U32());
}

void EncodePayload(const FlowerDirHandoffMsg& m, WireWriter& w) {
  w.U32(m.website);
  w.U32(uint32_t(m.locality));
  w.U32(uint32_t(m.instance));
  WriteContacts(w, m.view);
  w.U32(uint32_t(m.index.peers.size()));
  for (const auto& [peer, objects] : m.index.peers) {
    w.U64(peer);
    w.U32(uint32_t(objects.size()));
    for (const ObjectId& o : objects) WriteObjectId(w, o);
  }
}

void DecodePayload(WireReader& r, FlowerDirHandoffMsg& m) {
  m.website = r.U32();
  m.locality = LocalityId(r.U32());
  m.instance = int(r.U32());
  m.view = ReadContacts(r);
  size_t peers = r.Count(kWireMaxElements, 12);
  m.index.peers.reserve(peers);
  for (size_t i = 0; i < peers && r.ok(); ++i) {
    PeerId peer = r.U64();
    size_t objects = r.Count(kWireMaxElements, 8);
    std::vector<ObjectId> ids;
    ids.reserve(objects);
    for (size_t j = 0; j < objects && r.ok(); ++j)
      ids.push_back(ReadObjectId(r));
    m.index.peers.emplace_back(peer, std::move(ids));
  }
}

void EncodePayload(const FlowerDirProbeMsg& m, WireWriter& w) {
  WriteObjectId(w, m.object);
}

void DecodePayload(WireReader& r, FlowerDirProbeMsg& m) {
  m.object = ReadObjectId(r);
}

void EncodePayload(const FlowerDirProbeReplyMsg& m, WireWriter& w) {
  w.Bool(m.has_provider);
  w.U64(m.provider);
}

void DecodePayload(WireReader& r, FlowerDirProbeReplyMsg& m) {
  m.has_provider = r.Bool();
  m.provider = r.U64();
}

void EncodePayload(const FlowerForwardedQueryMsg& m, WireWriter& w) {
  WriteObjectId(w, m.object);
  w.Bool(m.admitted);
  w.U32(uint32_t(m.instance));
  WriteContacts(w, m.view_seed);
}

void DecodePayload(WireReader& r, FlowerForwardedQueryMsg& m) {
  m.object = ReadObjectId(r);
  m.admitted = r.Bool();
  m.instance = int(r.U32());
  m.view_seed = ReadContacts(r);
}

void EncodePayload(const FlowerKeywordQueryMsg& m, WireWriter& w) {
  w.U32(m.website);
  w.U32(m.keyword);
  w.U32(m.max_results);
}

void DecodePayload(WireReader& r, FlowerKeywordQueryMsg& m) {
  m.website = r.U32();
  m.keyword = r.U32();
  m.max_results = r.U32();
}

void EncodePayload(const FlowerKeywordReplyMsg& m, WireWriter& w) {
  w.Bool(m.accepted);
  w.U32(uint32_t(m.matches.size()));
  for (const auto& match : m.matches) {
    WriteObjectId(w, match.object);
    w.U64(match.provider);
  }
}

void DecodePayload(WireReader& r, FlowerKeywordReplyMsg& m) {
  m.accepted = r.Bool();
  size_t n = r.Count(kWireMaxElements, 16);
  m.matches.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) {
    FlowerKeywordReplyMsg::Match match;
    match.object = ReadObjectId(r);
    match.provider = r.U64();
    m.matches.push_back(match);
  }
}

void EncodePayload(const FlowerReplicaSyncMsg& m, WireWriter& w) {
  w.U32(m.website);
  w.U32(uint32_t(m.locality));
  w.U32(uint32_t(m.instance));
  w.U32(m.rank);
  w.Bool(m.full);
  w.U64(m.base_version);
  w.U64(m.version);
  WriteContacts(w, m.view);
  w.U32(uint32_t(m.index.peers.size()));
  for (const auto& [peer, objects] : m.index.peers) {
    w.U64(peer);
    w.U32(uint32_t(objects.size()));
    for (const ObjectId& o : objects) WriteObjectId(w, o);
  }
  w.U32(uint32_t(m.ops.size()));
  for (const FlowerReplicaSyncMsg::Op& op : m.ops) {
    w.U8(op.kind);
    w.U64(op.peer);
    w.U32(uint32_t(op.objects.size()));
    for (const ObjectId& o : op.objects) WriteObjectId(w, o);
  }
}

void DecodePayload(WireReader& r, FlowerReplicaSyncMsg& m) {
  m.website = r.U32();
  m.locality = LocalityId(r.U32());
  m.instance = int(r.U32());
  m.rank = r.U32();
  m.full = r.Bool();
  m.base_version = r.U64();
  m.version = r.U64();
  m.view = ReadContacts(r);
  size_t peers = r.Count(kWireMaxElements, 12);
  m.index.peers.reserve(peers);
  for (size_t i = 0; i < peers && r.ok(); ++i) {
    PeerId peer = r.U64();
    size_t objects = r.Count(kWireMaxElements, 8);
    std::vector<ObjectId> ids;
    ids.reserve(objects);
    for (size_t j = 0; j < objects && r.ok(); ++j)
      ids.push_back(ReadObjectId(r));
    m.index.peers.emplace_back(peer, std::move(ids));
  }
  size_t ops = r.Count(kWireMaxElements, 13);
  m.ops.reserve(ops);
  for (size_t i = 0; i < ops && r.ok(); ++i) {
    FlowerReplicaSyncMsg::Op op;
    op.kind = r.U8();
    if (op.kind > FlowerReplicaSyncMsg::kRemovePeer) {
      r.Fail("bad replica-sync op kind");
      return;
    }
    op.peer = r.U64();
    size_t objects = r.Count(kWireMaxElements, 8);
    op.objects.reserve(objects);
    for (size_t j = 0; j < objects && r.ok(); ++j)
      op.objects.push_back(ReadObjectId(r));
    m.ops.push_back(std::move(op));
  }
}

void EncodePayload(const FlowerReplicaSyncReplyMsg& m, WireWriter& w) {
  w.Bool(m.accepted);
  w.U64(m.acked_version);
}

void DecodePayload(WireReader& r, FlowerReplicaSyncReplyMsg& m) {
  m.accepted = r.Bool();
  m.acked_version = r.U64();
}

// --- squirrel ---

void EncodePayload(const SquirrelQueryMsg& m, WireWriter& w) {
  WriteObjectId(w, m.object);
}

void DecodePayload(WireReader& r, SquirrelQueryMsg& m) {
  m.object = ReadObjectId(r);
}

void EncodePayload(const SquirrelQueryReplyMsg& m, WireWriter& w) {
  w.Bool(m.has_delegate);
  w.U64(m.delegate);
  w.Bool(m.served_directly);
}

void DecodePayload(WireReader& r, SquirrelQueryReplyMsg& m) {
  m.has_delegate = r.Bool();
  m.delegate = r.U64();
  m.served_directly = r.Bool();
}

void EncodePayload(const SquirrelFetchMsg& m, WireWriter& w) {
  WriteObjectId(w, m.object);
}

void DecodePayload(WireReader& r, SquirrelFetchMsg& m) {
  m.object = ReadObjectId(r);
}

void EncodePayload(const SquirrelFetchReplyMsg& m, WireWriter& w) {
  w.Bool(m.has_object);
}

void DecodePayload(WireReader& r, SquirrelFetchReplyMsg& m) {
  m.has_object = r.Bool();
}

void EncodePayload(const SquirrelUpdateMsg& m, WireWriter& w) {
  WriteObjectId(w, m.object);
}

void DecodePayload(WireReader& r, SquirrelUpdateMsg& m) {
  m.object = ReadObjectId(r);
}

void EncodePayload(const SquirrelHandoffMsg& m, WireWriter& w) {
  w.U32(uint32_t(m.entries.size()));
  for (const SquirrelHandoffMsg::Entry& e : m.entries) {
    WriteObjectId(w, e.object);
    w.Bool(e.stored_copy);
    w.U32(uint32_t(e.delegates.size()));
    for (PeerId d : e.delegates) w.U64(d);
  }
}

void DecodePayload(WireReader& r, SquirrelHandoffMsg& m) {
  size_t entries = r.Count(kWireMaxElements, 13);
  m.entries.reserve(entries);
  for (size_t i = 0; i < entries && r.ok(); ++i) {
    SquirrelHandoffMsg::Entry e;
    e.object = ReadObjectId(r);
    e.stored_copy = r.Bool();
    size_t delegates = r.Count(kWireMaxElements, 8);
    e.delegates.reserve(delegates);
    for (size_t j = 0; j < delegates && r.ok(); ++j)
      e.delegates.push_back(r.U64());
    m.entries.push_back(std::move(e));
  }
}

// ---------------------------------------------------------------------------
// Registry machinery. MakeEntry<T> binds the overload pair above to the
// type-erased Entry signature.

template <typename T>
WireRegistry::Entry MakeEntry(const char* name) {
  WireRegistry::Entry entry;
  entry.name = name;
  entry.encode = [](const Message& msg, WireWriter& w) {
    EncodePayload(MessageCast<T>(msg), w);
  };
  entry.decode = [](WireReader& r) -> MessagePtr {
    auto msg = std::make_unique<T>();
    DecodePayload(r, *msg);
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

size_t WireEncodedSize(const Message& msg) {
  // Unregistered types (the TrafficBreakdown `other` family: reserved
  // ranges, test traffic) have no encoder; charge the modeled estimate so
  // --wire=encoded accounts them instead of CHECK-failing in WireEncodeTo.
  if (WireRegistry::Global().Find(msg.type) == nullptr) {
    return msg.SizeBytes();
  }
  thread_local std::vector<uint8_t> scratch;
  scratch.clear();
  WireEncodeTo(msg, &scratch);
  return scratch.size();
}

}  // namespace flowercdn
