#ifndef FLOWERCDN_CHORD_MESSAGES_H_
#define FLOWERCDN_CHORD_MESSAGES_H_

#include <memory>
#include <vector>

#include "chord/id.h"
#include "sim/message.h"
#include "util/small_vector.h"

namespace flowercdn {

/// Wire messages of the Chord protocol (range [kChordMessageBase,
/// kChordMessageBase + 100)).
enum ChordMessageType : MessageType {
  kChordFindSuccessor = kChordMessageBase + 0,
  kChordForwardAck = kChordMessageBase + 1,
  kChordLookupResult = kChordMessageBase + 2,
  kChordGetNeighbors = kChordMessageBase + 3,
  kChordNeighborsReply = kChordMessageBase + 4,
  kChordNotify = kChordMessageBase + 5,
  kChordNotifyReply = kChordMessageBase + 6,
  kChordGetFingers = kChordMessageBase + 7,
  kChordFingersReply = kChordMessageBase + 8,
  kChordPing = kChordMessageBase + 9,
  kChordPong = kChordMessageBase + 10,
  kChordLeave = kChordMessageBase + 11,
};

/// True if `t` belongs to the Chord protocol range.
inline bool IsChordMessage(MessageType t) {
  return t >= kChordMessageBase && t < kChordMessageBase + 100;
}

/// A successor list as messages carry it: the default list size
/// (ChordNode::Params::successor_list_size, 8) fits inside the message, so
/// a stabilization reply makes no allocation of its own; longer lists
/// spill to the heap.
using SuccessorList = SmallVector<RingPeer, 8>;

/// Wire layout of a RingPeer: peer u64, id u64.
inline constexpr auto kRingPeerWalk = [](auto& v, auto& p) {
  v.U64(p.peer);
  v.U64(p.id);
};

/// Recursive lookup step: forwarded hop by hop toward successor(key). The
/// receiving hop immediately acks (failure detection) and either answers
/// the origin directly or forwards further.
struct ChordFindSuccessorMsg : WireMessage<ChordFindSuccessorMsg> {
  ChordFindSuccessorMsg() { type = kChordFindSuccessor; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.U64(m.key);
    v.U64(m.origin);
    v.U64(m.lookup_id);
    v.U32(m.hops);
  }
  ChordId key = 0;
  PeerId origin = kInvalidPeer;
  uint64_t lookup_id = 0;
  int hops = 0;
};

/// A lookup step to send (the network consumes each message it sends, so
/// every hop and every attempt builds its own).
inline std::unique_ptr<ChordFindSuccessorMsg> MakeFindSuccessor(
    ChordId key, PeerId origin, uint64_t lookup_id, int hops) {
  auto msg = std::make_unique<ChordFindSuccessorMsg>();
  msg->key = key;
  msg->origin = origin;
  msg->lookup_id = lookup_id;
  msg->hops = hops;
  return msg;
}

/// Per-hop ack for a forwarded ChordFindSuccessorMsg.
struct ChordForwardAckMsg : Message {
  ChordForwardAckMsg() { type = kChordForwardAck; }
};

/// Final answer of a lookup, sent directly to the origin.
struct ChordLookupResultMsg : WireMessage<ChordLookupResultMsg> {
  ChordLookupResultMsg() { type = kChordLookupResult; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.U64(m.lookup_id);
    kRingPeerWalk(v, m.owner);
    v.U32(m.hops);
  }
  uint64_t lookup_id = 0;
  RingPeer owner;
  int hops = 0;
};

/// Stabilization probe: "who is your predecessor, and give me your
/// successor list" in one round trip.
struct ChordGetNeighborsMsg : Message {
  ChordGetNeighborsMsg() { type = kChordGetNeighbors; }
};

struct ChordNeighborsReplyMsg : WireMessage<ChordNeighborsReplyMsg> {
  ChordNeighborsReplyMsg() { type = kChordNeighborsReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.has_predecessor);
    kRingPeerWalk(v, m.predecessor);
    v.List(m.successors, kRingPeerWalk);
  }
  bool has_predecessor = false;
  RingPeer predecessor;
  SuccessorList successors;
};

/// "I believe I am your predecessor."
struct ChordNotifyMsg : WireMessage<ChordNotifyMsg> {
  ChordNotifyMsg() { type = kChordNotify; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.U64(m.notifier_id);
  }
  ChordId notifier_id = 0;
};

struct ChordNotifyReplyMsg : WireMessage<ChordNotifyReplyMsg> {
  ChordNotifyReplyMsg() { type = kChordNotifyReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.duplicate_id);
    v.Bool(m.has_predecessor);
    kRingPeerWalk(v, m.predecessor);
  }
  /// Set when the notifier's ring id equals the receiver's: two peers
  /// claimed the same deterministic D-ring position (the join race of
  /// §5.2.2); the notifier must abort its join.
  bool duplicate_id = false;
  /// The receiver's predecessor after processing the notify. When it is
  /// not the notifier itself, a closer peer sits between the two — the
  /// notifier adopts it immediately instead of waiting a stabilize period.
  bool has_predecessor = false;
  RingPeer predecessor;
};

/// Finger-table warm start for a fresh joiner.
struct ChordGetFingersMsg : Message {
  ChordGetFingersMsg() { type = kChordGetFingers; }
};

struct ChordFingersReplyMsg : WireMessage<ChordFingersReplyMsg> {
  ChordFingersReplyMsg() { type = kChordFingersReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.List(m.fingers, kRingPeerWalk);
  }
  std::vector<RingPeer> fingers;  // populated entries only
};

struct ChordPingMsg : Message {
  ChordPingMsg() { type = kChordPing; }
};

struct ChordPongMsg : Message {
  ChordPongMsg() { type = kChordPong; }
};

/// Graceful departure: hands neighbors the leaver's links so the ring heals
/// without waiting for timeouts.
struct ChordLeaveMsg : WireMessage<ChordLeaveMsg> {
  ChordLeaveMsg() { type = kChordLeave; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.has_predecessor);
    kRingPeerWalk(v, m.predecessor);
    v.List(m.successors, kRingPeerWalk);
  }
  bool has_predecessor = false;
  RingPeer predecessor;
  SuccessorList successors;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_CHORD_MESSAGES_H_
