#ifndef FLOWERCDN_SIM_MESSAGE_H_
#define FLOWERCDN_SIM_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <new>

#include "simcore/message_pool.h"
#include "sim/types.h"

namespace flowercdn {

/// Numeric message-type tag. Each protocol owns a disjoint range so a host
/// node can route an incoming message to the right sub-protocol without
/// RTTI. See the k*MessageBase constants below.
using MessageType = uint32_t;

/// Transport-level negative acknowledgement: the network delivers it to the
/// sender of an RPC request whose destination was dead (models the
/// connection refusal / RST of a connection-oriented transport — failure is
/// detected in ~1 RTT instead of a full timeout). Timeouts remain the
/// backstop for peers that die with requests in flight.
constexpr MessageType kTransportNack = 1;

/// Application-level refusal: a live peer answers an RPC request it cannot
/// serve (a Chord request to a node that is no longer a ring member) with
/// this instead of staying silent, so the caller reacts in one round trip
/// rather than after its timeout. RpcEndpoint reports it like a NACK
/// (Status::Unavailable).
constexpr MessageType kRpcRefused = 2;

constexpr MessageType kChordMessageBase = 1000;
constexpr MessageType kGossipMessageBase = 2000;
constexpr MessageType kFlowerMessageBase = 3000;
constexpr MessageType kSquirrelMessageBase = 4000;
constexpr MessageType kContentMessageBase = 5000;

/// Distributed trace context: identifies the query a message is working
/// for (trace_id) and the span that caused it to be sent (span_id), so a
/// gateway request's phases can be stitched back together across cluster
/// ranks. All-zero means untraced — the default, and the only state the
/// deterministic sim ever sees unless a collector is installed. Carried
/// out-of-band: it does not contribute to SizeBytes() or the wire codec's
/// canonical message encoding (socket transports ship it in the frame
/// header extension instead, see wire/frame.h).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

/// Base class of everything the simulated network transports. Concrete
/// protocols subclass it with their payload fields. Routing metadata
/// (src/dst/rpc correlation) lives here so the network and the RPC layer
/// can operate on any message uniformly.
struct Message {
  virtual ~Message() = default;

  /// Messages allocate from the simcore thread-local pool: they are the
  /// highest-churn heap objects in a trial (one per Send), small, and
  /// confined to the worker thread running the trial. The sized delete —
  /// exact thanks to the virtual destructor — lets freed blocks return to
  /// their size-class freelist without a header.
  static void* operator new(size_t size) { return PooledAlloc(size); }
  static void operator delete(void* p, size_t size) noexcept {
    PooledFree(p, size);
  }

  /// Estimated wire size in bytes (headers + payload) — drives the
  /// network's traffic accounting. Subclasses add their payload on top of
  /// the base header estimate.
  virtual size_t SizeBytes() const { return kHeaderBytes; }

  /// Rough transport+protocol header estimate per message.
  static constexpr size_t kHeaderBytes = 48;

  MessageType type = 0;
  PeerId src = kInvalidPeer;
  PeerId dst = kInvalidPeer;
  /// Non-zero when the message participates in a request/response exchange.
  uint64_t rpc_id = 0;
  bool is_response = false;
  /// Trace context propagated from the sending peer's current activity
  /// (stamped by Network::Send when unset). Inert unless tracing is on.
  TraceContext trace;
};

using MessagePtr = std::unique_ptr<Message>;

struct TransportNackMsg : Message {
  TransportNackMsg() {
    type = kTransportNack;
    is_response = true;
  }
};

struct RpcRefusedMsg : Message {
  RpcRefusedMsg() {
    type = kRpcRefused;
    is_response = true;
  }
};

/// Downcasts a message to its concrete type. The caller must have already
/// checked `msg.type`; mismatches are programming errors.
template <typename T>
const T& MessageCast(const Message& msg) {
  return static_cast<const T&>(msg);
}

template <typename T>
T& MessageCast(Message& msg) {
  return static_cast<T&>(msg);
}

}  // namespace flowercdn

#endif  // FLOWERCDN_SIM_MESSAGE_H_
