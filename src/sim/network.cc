#include "sim/network.h"

#include <utility>

#include "sim/transport.h"
#include "util/logging.h"

namespace flowercdn {

const char* WireModeName(WireMode mode) {
  switch (mode) {
    case WireMode::kModeled:
      return "modeled";
    case WireMode::kEncoded:
      return "encoded";
  }
  return "?";
}

Network::Network(Simulator* sim, Topology* topology)
    : sim_(sim),
      topology_(topology),
      default_transport_(std::make_unique<InProcessTransport>(this)) {
  FLOWERCDN_CHECK(sim != nullptr);
  FLOWERCDN_CHECK(topology != nullptr);
  transport_ = default_transport_.get();
  sim_->SetGuardCheck(&Network::PeerGuardCheck, this);
}

Network::~Network() { sim_->SetGuardCheck(nullptr, nullptr); }

void Network::SetTransport(Transport* transport) {
  transport_ = transport != nullptr ? transport : default_transport_.get();
}

Transport* Network::transport() const { return transport_; }

void Network::RegisterIdentity(PeerId peer, Coord coord) {
  FLOWERCDN_CHECK(peer != kInvalidPeer);
  FLOWERCDN_CHECK(!Registered(peer))
      << "identity " << peer << " already registered";
  if (peer >= registered_.size()) {
    const size_t n = static_cast<size_t>(peer) + 1;
    coords_.resize(n);
    nodes_.resize(n, nullptr);
    incarnations_.resize(n, 0);
    registered_.resize(n, 0);
  }
  registered_[peer] = 1;
  coords_[peer] = coord;
}

bool Network::HasIdentity(PeerId peer) const { return Registered(peer); }

Coord Network::CoordOf(PeerId peer) const {
  FLOWERCDN_CHECK(Registered(peer)) << "unknown identity " << peer;
  return coords_[peer];
}

LocalityId Network::LocalityOf(PeerId peer) const {
  return topology_->LocalityOf(CoordOf(peer));
}

double Network::LatencyMs(PeerId a, PeerId b) const {
  if (a == b) return 0.0;
  return topology_->LatencyMs(CoordOf(a), CoordOf(b));
}

Incarnation Network::Attach(PeerId peer, SimNode* node) {
  FLOWERCDN_CHECK(node != nullptr);
  FLOWERCDN_CHECK(Registered(peer)) << "unknown identity " << peer;
  FLOWERCDN_CHECK(nodes_[peer] == nullptr)
      << "peer " << peer << " already attached";
  nodes_[peer] = node;
  ++alive_count_;
  return ++incarnations_[peer];
}

void Network::Detach(PeerId peer) {
  FLOWERCDN_CHECK(Registered(peer)) << "unknown identity " << peer;
  FLOWERCDN_CHECK(nodes_[peer] != nullptr) << "peer " << peer
                                           << " not attached";
  nodes_[peer] = nullptr;
  --alive_count_;
}

bool Network::IsAlive(PeerId peer) const {
  return peer < nodes_.size() && nodes_[peer] != nullptr;
}

Incarnation Network::IncarnationOf(PeerId peer) const {
  return peer < incarnations_.size() ? incarnations_[peer] : 0;
}

void Network::Send(PeerId src, PeerId dst, MessagePtr msg) {
  FLOWERCDN_CHECK(msg != nullptr);
  msg->src = src;
  msg->dst = dst;
  if (!msg->trace.active()) msg->trace = current_trace_;
  ++messages_sent_;
  size_t size = sizer_ != nullptr ? sizer_(*msg) : msg->SizeBytes();
  bytes_sent_ += size;
  TrafficBreakdown::Family* family = nullptr;
  if (msg->type == kTransportNack) {
    family = &traffic_.nack;
  } else if (msg->type >= kChordMessageBase &&
             msg->type < kChordMessageBase + 100) {
    family = &traffic_.chord;
  } else if (msg->type >= kGossipMessageBase &&
             msg->type < kGossipMessageBase + 100) {
    family = &traffic_.gossip;
  } else if (msg->type >= kFlowerMessageBase &&
             msg->type < kFlowerMessageBase + 100) {
    family = &traffic_.flower;
  } else if (msg->type >= kSquirrelMessageBase &&
             msg->type < kSquirrelMessageBase + 100) {
    family = &traffic_.squirrel;
  } else {
    family = &traffic_.other;
  }
  ++family->messages;
  family->bytes += size;
  double latency = LatencyMs(src, dst);
  if (fault_hook_ != nullptr) {
    FaultDecision decision = fault_hook_->OnSend(src, dst, *msg);
    if (decision.drop) {
      // A lossy link (or partition) gives the sender no signal at all: no
      // NACK, no delivery — only the caller's timeout notices.
      ++messages_dropped_;
      ++traffic_.injected_loss.messages;
      traffic_.injected_loss.bytes += size;
      return;
    }
    if (decision.duplicates > 0) {
      // Duplicated copies cost bandwidth but are deduplicated by the
      // transport before the application (sequence-number model): account
      // them without a second HandleMessage.
      uint64_t copies = static_cast<uint64_t>(decision.duplicates);
      messages_sent_ += copies;
      bytes_sent_ += copies * size;
      family->messages += copies;
      family->bytes += copies * size;
    }
    latency += decision.extra_delay_ms;
  }
  transport_->Carry(src, dst, static_cast<SimDuration>(latency), size,
                    std::move(msg));
}

void Network::Deliver(PeerId dst, SimDuration latency, size_t accounted_bytes,
                      MessagePtr msg) {
  size_t size = accounted_bytes;
  sim_->Schedule(
      latency,
      [this, dst, size, msg = std::move(msg)]() mutable {
        if (!IsAlive(dst)) {
          ++messages_dropped_;  // receiver failed mid-flight
          ++traffic_.dropped.messages;
          traffic_.dropped.bytes += size;
          if (msg->rpc_id != 0 && !msg->is_response) {
            // Connection-refused semantics: bounce a transport NACK to the
            // caller so it detects the dead peer in one round trip.
            auto nack = std::make_unique<TransportNackMsg>();
            nack->rpc_id = msg->rpc_id;
            nack->trace = msg->trace;
            Send(msg->dst, msg->src, std::move(nack));
          }
          return;
        }
        ++messages_delivered_;
        // Everything the handler sends (responses, forwards, follow-up
        // queries) inherits the delivered message's trace context.
        NetworkTraceScope scope(this, msg->trace);
        nodes_[dst]->HandleMessage(std::move(msg));
      });
}

void Network::NoteTransportDrop(const Message& msg, size_t accounted_bytes) {
  (void)msg;  // reserved for per-family drop classification
  ++messages_dropped_;
  ++traffic_.transport_drop.messages;
  traffic_.transport_drop.bytes += accounted_bytes;
}

bool Network::PeerGuardCheck(void* ctx, PeerId peer, Incarnation inc) {
  auto* network = static_cast<Network*>(ctx);
  return network->IsAlive(peer) && network->incarnations_[peer] == inc;
}

EventId Network::SchedulePeer(PeerId peer, Incarnation inc, SimDuration delay,
                              EventFn fn) {
  // The liveness check rides in the scheduler node's EventGuard rather
  // than a wrapping lambda: a 56-byte EventFn capture can't nest inside
  // another EventFn's 48-byte inline buffer, so a wrapper would force a
  // heap allocation per protocol timer (millions per trial).
  FLOWERCDN_CHECK(peer != kInvalidPeer);
  return sim_->ScheduleGuarded(delay, EventGuard{peer, inc}, std::move(fn));
}

}  // namespace flowercdn
