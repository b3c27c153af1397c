#ifndef FLOWERCDN_FLOWER_MESSAGES_H_
#define FLOWERCDN_FLOWER_MESSAGES_H_

#include <vector>

#include "flower/directory_index.h"
#include "gossip/view.h"
#include "sim/message.h"
#include "sim/topology.h"
#include "storage/keywords.h"
#include "storage/object_id.h"
#include "util/bloom_filter.h"

namespace flowercdn {

/// Wire messages of Flower-CDN / PetalUp-CDN.
enum FlowerMessageType : MessageType {
  kFlowerDirQuery = kFlowerMessageBase + 0,
  kFlowerDirQueryReply = kFlowerMessageBase + 1,
  kFlowerFetch = kFlowerMessageBase + 2,
  kFlowerFetchReply = kFlowerMessageBase + 3,
  kFlowerGossip = kFlowerMessageBase + 4,
  kFlowerGossipReply = kFlowerMessageBase + 5,
  kFlowerKeepalive = kFlowerMessageBase + 6,
  kFlowerKeepaliveReply = kFlowerMessageBase + 7,
  kFlowerPush = kFlowerMessageBase + 8,
  kFlowerPushReply = kFlowerMessageBase + 9,
  kFlowerPromote = kFlowerMessageBase + 10,
  kFlowerDirHandoff = kFlowerMessageBase + 11,
  kFlowerDirProbe = kFlowerMessageBase + 12,
  kFlowerDirProbeReply = kFlowerMessageBase + 13,
  kFlowerForwardedQuery = kFlowerMessageBase + 14,
  kFlowerKeywordQuery = kFlowerMessageBase + 15,
  kFlowerKeywordReply = kFlowerMessageBase + 16,
  kFlowerReplicaSync = kFlowerMessageBase + 17,
  kFlowerReplicaSyncReply = kFlowerMessageBase + 18,
};

inline bool IsFlowerMessage(MessageType t) {
  return t >= kFlowerMessageBase && t < kFlowerMessageBase + 100;
}

/// What a content peer believes about its directory peer (paper §5.1).
/// Exchanged during gossip; between peers of the same instance, the
/// fresher (smaller-age) information wins.
struct DirInfo {
  PeerId dir = kInvalidPeer;
  int instance = 0;
  uint32_t age = 0;
};

/// Wire layout of a DirInfo: dir u64, instance u32, age u32.
inline constexpr auto kDirInfoWalk = [](auto& v, auto& d) {
  v.U64(d.dir);
  v.U32(d.instance);
  v.U32(d.age);
};

/// Wire layout of one directory-index entry: peer u64, then its objects.
inline constexpr auto kIndexEntryWalk = [](auto& v, auto& entry) {
  v.U64(entry.first);
  v.List(entry.second, kPackedWalk);
};

/// Client -> directory peer: resolve a query and/or admit me to the petal.
/// Routed to d^0(ws, loc) over the D-ring for new clients; sent directly
/// (dir-info) by content peers.
struct FlowerDirQueryMsg : WireMessage<FlowerDirQueryMsg> {
  FlowerDirQueryMsg() { type = kFlowerDirQuery; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.U32(m.website);
    v.U32(m.locality);
    v.Bool(m.has_object);
    v.Packed(m.object);
    v.Bool(m.wants_join);
    v.U32(m.scan_hops);
  }
  WebsiteId website = 0;
  LocalityId locality = 0;
  bool has_object = false;
  ObjectId object;
  /// New client asking to be admitted as a content peer.
  bool wants_join = false;
  /// PetalUp scan progress (bounds the instance-to-instance forwarding).
  int scan_hops = 0;
};

enum class DirQueryResult : uint8_t {
  /// `provider` holds the object — go fetch it.
  kProvider,
  /// Nobody in the petal (or collaborating petals) has it: fetch from the
  /// origin server.
  kMiss,
  /// The receiving peer is not a directory for (ws, loc): the position is
  /// vacant and the client may claim it (paper §5.2.2 case 2).
  kVacant,
  /// PetalUp: this instance is overloaded; re-ask `forward_to` (d^{i+1}).
  kForward,
};

struct FlowerDirQueryReplyMsg : WireMessage<FlowerDirQueryReplyMsg> {
  FlowerDirQueryReplyMsg() { type = kFlowerDirQueryReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Enum(m.result, DirQueryResult::kForward, "bad DirQueryResult");
    v.U64(m.provider);
    v.U64(m.forward_to);
    v.Bool(m.admitted);
    v.U32(m.instance);
    v.List(m.view_seed, kContactWalk);
  }
  DirQueryResult result = DirQueryResult::kMiss;
  PeerId provider = kInvalidPeer;
  PeerId forward_to = kInvalidPeer;
  /// Set when the directory admitted the requester into its view/index.
  bool admitted = false;
  /// Identity of the answering directory instance (for the client's
  /// dir-info).
  int instance = 0;
  /// Petal-view bootstrap handed to newly admitted content peers (§4).
  std::vector<Contact> view_seed;
};

/// Peer-to-peer content request inside (or across) petals.
struct FlowerFetchMsg : WireMessage<FlowerFetchMsg> {
  FlowerFetchMsg() { type = kFlowerFetch; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Packed(m.object);
  }
  ObjectId object;
};

struct FlowerFetchReplyMsg : WireMessage<FlowerFetchReplyMsg> {
  FlowerFetchReplyMsg() { type = kFlowerFetchReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.has_object);
  }
  bool has_object = false;
};

/// Petal gossip exchange (§3.1): contacts, the sender's content summary and
/// its dir-info, answered symmetrically.
struct FlowerGossipMsg : WireMessage<FlowerGossipMsg> {
  FlowerGossipMsg() { type = kFlowerGossip; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.List(m.contacts, kContactWalk);
    v.Bloom(m.summary);
    kDirInfoWalk(v, m.dir_info);
  }
  std::vector<Contact> contacts;
  BloomFilter summary;
  DirInfo dir_info;
};

struct FlowerGossipReplyMsg : WireMessage<FlowerGossipReplyMsg> {
  FlowerGossipReplyMsg() { type = kFlowerGossipReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.List(m.contacts, kContactWalk);
    v.Bloom(m.summary);
    kDirInfoWalk(v, m.dir_info);
  }
  std::vector<Contact> contacts;
  BloomFilter summary;
  DirInfo dir_info;
};

/// Content peer -> directory peer liveness beacon (§5.1).
struct FlowerKeepaliveMsg : Message {
  FlowerKeepaliveMsg() { type = kFlowerKeepalive; }
};

struct FlowerKeepaliveReplyMsg : WireMessage<FlowerKeepaliveReplyMsg> {
  FlowerKeepaliveReplyMsg() { type = kFlowerKeepaliveReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.accepted);
    v.U32(m.instance);
  }
  /// False when the receiver is no longer a directory peer — the sender
  /// must run the replacement protocol.
  bool accepted = false;
  /// Directory instance, refreshing the sender's dir-info.
  int instance = 0;
};

/// Content peer -> directory peer: full stored-object list after the push
/// threshold tripped (§5.1).
struct FlowerPushMsg : WireMessage<FlowerPushMsg> {
  FlowerPushMsg() { type = kFlowerPush; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.List(m.objects, kPackedWalk);
  }
  std::vector<ObjectId> objects;
};

struct FlowerPushReplyMsg : WireMessage<FlowerPushReplyMsg> {
  FlowerPushReplyMsg() { type = kFlowerPushReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.accepted);
    v.U32(m.instance);
  }
  /// False when the receiver is no longer a directory peer.
  bool accepted = false;
  int instance = 0;
};

/// PetalUp (§4): overloaded final instance d^i orders one of its content
/// peers to join the D-ring as d^{i+1}.
struct FlowerPromoteMsg : WireMessage<FlowerPromoteMsg> {
  FlowerPromoteMsg() { type = kFlowerPromote; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.U32(m.website);
    v.U32(m.locality);
    v.U32(m.new_instance);
  }
  WebsiteId website = 0;
  LocalityId locality = 0;
  int new_instance = 0;
};

/// Voluntary directory leave (§5.2.2): the departing directory transfers a
/// copy of its view and directory-index to its replacement.
struct FlowerDirHandoffMsg : WireMessage<FlowerDirHandoffMsg> {
  FlowerDirHandoffMsg() { type = kFlowerDirHandoff; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.U32(m.website);
    v.U32(m.locality);
    v.U32(m.instance);
    v.List(m.view, kContactWalk);
    v.List(m.index.peers, kIndexEntryWalk);
  }
  WebsiteId website = 0;
  LocalityId locality = 0;
  int instance = 0;
  std::vector<Contact> view;
  DirectoryIndex::Snapshot index;
};

/// Directory -> content peer, on behalf of a querying client (§3.2: "the
/// query is finally forwarded to some content peer that holds the
/// requested content"). Carries the client's RPC correlation (the message
/// is addressed *from* the client), so the provider's answer — a
/// FlowerDirQueryReplyMsg confirming possession — flows straight back to
/// the client, saving a redirect round trip.
struct FlowerForwardedQueryMsg : WireMessage<FlowerForwardedQueryMsg> {
  FlowerForwardedQueryMsg() { type = kFlowerForwardedQuery; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Packed(m.object);
    v.Bool(m.admitted);
    v.U32(m.instance);
    v.List(m.view_seed, kContactWalk);
  }
  ObjectId object;
  /// Admission state decided by the directory, relayed to the client.
  bool admitted = false;
  int instance = 0;
  std::vector<Contact> view_seed;
};

/// Content peer -> directory peer: semantic search (the paper's §7 future
/// work) — "which indexed objects of our website carry this keyword, and
/// who provides them?"
struct FlowerKeywordQueryMsg : WireMessage<FlowerKeywordQueryMsg> {
  FlowerKeywordQueryMsg() { type = kFlowerKeywordQuery; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.U32(m.website);
    v.U32(m.keyword);
    v.U32(m.max_results);
  }
  WebsiteId website = 0;
  KeywordId keyword = 0;
  /// Cap on returned matches.
  uint32_t max_results = 16;
};

struct FlowerKeywordReplyMsg : WireMessage<FlowerKeywordReplyMsg> {
  FlowerKeywordReplyMsg() { type = kFlowerKeywordReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.accepted);
    v.List(m.matches, [](auto& v, auto& match) {
      v.Packed(match.object);
      v.U64(match.provider);
    });
  }
  /// False when the receiver is not a directory peer.
  bool accepted = false;
  struct Match {
    ObjectId object;
    PeerId provider = kInvalidPeer;
  };
  std::vector<Match> matches;
};

/// Directory primary -> D-ring successor: one replica-sync round for
/// petal (website, locality, instance). Either a full index snapshot
/// (anti-entropy: replica join, version gap, primary change) or the delta
/// operations accumulated since the receiver's acknowledged version. The
/// petal view rides along in both forms so a promoting replica always
/// hands over fresh (age-reconciled) contacts.
struct FlowerReplicaSyncMsg : WireMessage<FlowerReplicaSyncMsg> {
  FlowerReplicaSyncMsg() { type = kFlowerReplicaSync; }

  enum OpKind : uint8_t {
    /// Replace the peer's whole object set (push).
    kReplaceObjects = 0,
    /// Register one object for the peer (query admission).
    kAddObject = 1,
    /// Forget the peer entirely (expiry, promotion).
    kRemovePeer = 2,
  };

  /// One incremental index mutation, replayed in order on the replica.
  struct Op {
    uint8_t kind = kReplaceObjects;
    PeerId peer = kInvalidPeer;
    std::vector<ObjectId> objects;  // empty for kRemovePeer
  };

  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.U32(m.website);
    v.U32(m.locality);
    v.U32(m.instance);
    v.U32(m.rank);
    v.Bool(m.full);
    v.U64(m.base_version);
    v.U64(m.version);
    v.List(m.view, kContactWalk);
    v.List(m.index.peers, kIndexEntryWalk);
    v.List(m.ops, [](auto& v, auto& op) {
      v.Enum(op.kind, kRemovePeer, "bad replica-sync op kind");
      v.U64(op.peer);
      v.List(op.objects, kPackedWalk);
    });
  }

  WebsiteId website = 0;
  LocalityId locality = 0;
  int instance = 0;
  /// 1-based position of the receiver in the primary's successor list;
  /// staggers replica failover (rank 1 acts first).
  uint32_t rank = 1;
  bool full = false;
  /// Delta only: replica state version this delta applies on top of. A
  /// mismatch means missed syncs; the replica rejects and the primary
  /// falls back to a full snapshot.
  uint64_t base_version = 0;
  /// State version after applying this message.
  uint64_t version = 0;
  /// Primary's current petal view (content-peer contacts with ages).
  std::vector<Contact> view;
  /// Full snapshot of the directory-index (full == true only).
  DirectoryIndex::Snapshot index;
  /// Incremental operations (full == false only).
  std::vector<Op> ops;
};

struct FlowerReplicaSyncReplyMsg : WireMessage<FlowerReplicaSyncReplyMsg> {
  FlowerReplicaSyncReplyMsg() { type = kFlowerReplicaSyncReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.accepted);
    v.U64(m.acked_version);
  }
  /// False when the receiver could not apply a delta (version gap, unknown
  /// petal, replication disabled) — the primary resyncs with a snapshot.
  bool accepted = false;
  /// Receiver's replica state version after processing.
  uint64_t acked_version = 0;
};

/// Directory-to-directory collaboration probe (§3.2): "do you know a
/// provider for this object of our common website?"
struct FlowerDirProbeMsg : WireMessage<FlowerDirProbeMsg> {
  FlowerDirProbeMsg() { type = kFlowerDirProbe; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Packed(m.object);
  }
  ObjectId object;
};

struct FlowerDirProbeReplyMsg : WireMessage<FlowerDirProbeReplyMsg> {
  FlowerDirProbeReplyMsg() { type = kFlowerDirProbeReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.has_provider);
    v.U64(m.provider);
  }
  bool has_provider = false;
  PeerId provider = kInvalidPeer;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_FLOWER_MESSAGES_H_
