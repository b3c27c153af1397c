#ifndef FLOWERCDN_GOSSIP_CYCLON_H_
#define FLOWERCDN_GOSSIP_CYCLON_H_

#include <vector>

#include "gossip/view.h"
#include "sim/message.h"

namespace flowercdn {

/// Cyclon shuffle payload (Voulgaris, Gavidia, van Steen [17] — the
/// membership protocol family the paper's petal maintenance is "inspired
/// of"). No peer sends these: the petal gossip is `PeerView` plus
/// `FlowerPeer`'s own rounds. The two types stay registered because the
/// wire golden vectors pin their encodings and runner JSON's `gossip`
/// traffic family (always 0) counts them.
enum GossipMessageType : MessageType {
  kGossipShuffle = kGossipMessageBase + 0,
  kGossipShuffleReply = kGossipMessageBase + 1,
};

inline bool IsGossipMessage(MessageType t) {
  return t >= kGossipMessageBase && t < kGossipMessageBase + 100;
}

struct GossipShuffleMsg : WireMessage<GossipShuffleMsg> {
  GossipShuffleMsg() { type = kGossipShuffle; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.List(m.contacts, kContactWalk);
  }
  std::vector<Contact> contacts;
};

struct GossipShuffleReplyMsg : WireMessage<GossipShuffleReplyMsg> {
  GossipShuffleReplyMsg() { type = kGossipShuffleReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.List(m.contacts, kContactWalk);
  }
  std::vector<Contact> contacts;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_GOSSIP_CYCLON_H_
