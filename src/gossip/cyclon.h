#ifndef FLOWERCDN_GOSSIP_CYCLON_H_
#define FLOWERCDN_GOSSIP_CYCLON_H_

#include <memory>

#include "gossip/view.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/rpc.h"
#include "util/random.h"

namespace flowercdn {

/// Cyclon shuffle payload (Voulgaris, Gavidia, van Steen [17] — the
/// membership protocol family the paper's petal maintenance is "inspired
/// of" and proven robust under churn).
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

/// A standalone Cyclon membership endpoint: periodically shuffles a slice
/// of its bounded view with its oldest neighbor, keeping the overlay
/// connected and expelling dead pointers under churn. Provided both as a
/// reference implementation of the gossip substrate (tested and benchmarked
/// on its own) and as the blueprint the Flower petal gossip follows.
class CyclonNode {
 public:
  struct Params {
    size_t view_size = 20;
    /// Number of contacts exchanged per shuffle.
    size_t shuffle_length = 5;
    SimDuration period = 10 * kSecond;
    SimDuration rpc_timeout = 1200 * kMillisecond;
  };

  CyclonNode(Network* network, PeerId self, Rng rng, const Params& params);
  CyclonNode(const CyclonNode&) = delete;
  CyclonNode& operator=(const CyclonNode&) = delete;

  /// Binds to the host's incarnation and starts the periodic shuffle.
  void Start(Incarnation incarnation);

  /// Seeds the initial view.
  void AddNeighbor(PeerId peer) { view_.Upsert(Contact{peer, 0}); }

  /// Feeds a message; returns true if consumed.
  bool HandleMessage(MessagePtr& msg);

  const PeerView& view() const { return view_; }
  PeerId self() const { return self_; }
  uint64_t shuffles_initiated() const { return shuffles_initiated_; }
  uint64_t partners_expired() const { return partners_expired_; }

 private:
  void ScheduleShuffle();
  void ShuffleRound();
  /// Builds the outgoing slice: self (age 0) plus random others.
  std::vector<Contact> BuildSlice(PeerId partner, bool include_self);
  void MergeSlice(const std::vector<Contact>& received,
                  const std::vector<Contact>& sent);

  Network* network_;
  PeerId self_;
  Rng rng_;
  Params params_;
  RpcEndpoint rpc_;
  Incarnation incarnation_ = 0;
  PeerView view_;
  bool running_ = false;
  uint64_t shuffles_initiated_ = 0;
  uint64_t partners_expired_ = 0;
};

/// Minimal SimNode host wrapping a lone CyclonNode — used by tests and the
/// gossip micro-benchmarks.
class CyclonHost : public SimNode {
 public:
  CyclonHost(Network* network, PeerId self, Rng rng,
             const CyclonNode::Params& params)
      : cyclon_(network, self, rng, params) {}

  void HandleMessage(MessagePtr msg) override {
    cyclon_.HandleMessage(msg);
  }

  CyclonNode& cyclon() { return cyclon_; }

 private:
  CyclonNode cyclon_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_GOSSIP_CYCLON_H_
