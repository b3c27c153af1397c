#ifndef FLOWERCDN_SIM_MESSAGE_H_
#define FLOWERCDN_SIM_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

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
/// out-of-band: it does not contribute to WireSize() or the wire codec's
/// canonical message encoding (socket transports ship it in the frame
/// header extension instead, see wire/frame.h).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

/// Length of the header every encoded message starts with: type u32,
/// flags u8, src, dst and rpc_id u64 (layout in src/wire/codec.h).
constexpr size_t kWireHeaderBytes = 29;

/// What a field walk adds up to: an encoded length, and whether every
/// value of the walked type has that length (no list or filter inside).
struct WireShape {
  size_t bytes = 0;
  bool fixed = true;
};

/// The shape of a default-constructed `E` under `walk` — the width of
/// every element when fixed, the minimum width otherwise.
template <typename E, typename W>
constexpr WireShape WireShapeOf(W walk);

/// The element type of a list a walk visits.
template <typename L>
using WireElement = std::remove_cvref_t<decltype(*std::declval<L&>().begin())>;

/// The size visitor of a field walk: adds up the encoded width of every
/// field and writes nothing. A field walk lists a message's payload once,
/// as calls on a visitor `v` — `v.Bool`, `v.U32`, `v.U64` (integers of
/// that width), `v.Packed` (a value with Packed()/FromPacked(), 8 bytes),
/// `v.Enum` (one byte with an upper bound), `v.List` (a u32 count, then
/// each element through an element walk) and `v.Bloom` (a BloomFilter).
/// src/wire binds the same walks to its writer and reader, so the
/// accounted length is the encoded length by construction.
class WireSizer {
 public:
  constexpr void Bool(bool) { shape_.bytes += 1; }
  template <typename T>
  constexpr void U32(const T&) { shape_.bytes += 4; }
  template <typename T>
  constexpr void U64(const T&) { shape_.bytes += 8; }
  template <typename T>
  constexpr void Packed(const T&) { shape_.bytes += 8; }
  template <typename T>
  constexpr void Enum(const T&, std::type_identity_t<T>, const char*) {
    shape_.bytes += 1;
  }
  template <typename L, typename W>
  constexpr void List(const L& list, W walk) {
    shape_.bytes += 4;
    shape_.fixed = false;
    using E = WireElement<L>;
    if constexpr (constexpr WireShape element = WireShapeOf<E>(W{});
                  element.fixed) {
      shape_.bytes += list.size() * element.bytes;
    } else {
      for (const E& e : list) walk(*this, e);
    }
  }
  /// bit_count u64, num_hashes u32, inserted_count u64, then the words.
  template <typename Filter>
  constexpr void Bloom(const Filter& filter) {
    shape_.bytes += 20 + 8 * filter.words().size();
    shape_.fixed = false;
  }

  constexpr WireShape shape() const { return shape_; }

 private:
  WireShape shape_;
};

template <typename E, typename W>
constexpr WireShape WireShapeOf(W walk) {
  WireSizer sizer;
  const E element{};
  walk(sizer, element);
  return sizer.shape();
}

/// Element walks shared by every list of plain 64-bit values.
inline constexpr auto kU64Walk = [](auto& v, auto& x) { v.U64(x); };
inline constexpr auto kPackedWalk = [](auto& v, auto& x) { v.Packed(x); };

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

  /// Encoded length in bytes, header included — the network's traffic
  /// accounting. A message without a payload walk (a ping, a NACK) is the
  /// header alone; WireMessage adds its walk's fields.
  virtual size_t WireSize() const { return kWireHeaderBytes; }

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

/// A message with a payload. `T` lists its fields once, as
///
///     template <typename V, typename M>
///     static void Walk(V& v, M& m);  // M is T or const T
///
/// which sizes it here and encodes and decodes it in src/wire.
template <typename T>
struct WireMessage : Message {
  size_t WireSize() const final {
    WireSizer sizer;
    T::Walk(sizer, static_cast<const T&>(*this));
    return kWireHeaderBytes + sizer.shape().bytes;
  }
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
