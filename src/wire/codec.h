#ifndef FLOWERCDN_WIRE_CODEC_H_
#define FLOWERCDN_WIRE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/message.h"
#include "util/result.h"
#include "wire/buffer.h"

namespace flowercdn {

// Deterministic binary wire format for every protocol message
// (docs/PROTOCOL.md, "Wire format"). Fixed little-endian framing: a common
// 29-byte header
//
//     offset  size  field
//          0     4  type (MessageType)
//          4     1  flags (bit 0 = is_response; others must be zero)
//          5     8  src PeerId
//         13     8  dst PeerId
//         21     8  rpc_id
//
// (kWireHeaderBytes, sim/message.h) followed by the payload the type's
// field walk lists (WireMessage). Same message -> same bytes, on every
// platform: encode(decode(encode(m))) == encode(m) is a tested fixed
// point, and Message::WireSize() is the encoded length.

/// Decode-side sanity caps. Real messages sit far below both; buffers that
/// claim more are rejected before any allocation is sized from them.
constexpr size_t kWireMaxElements = 1 << 20;
constexpr size_t kWireMaxBloomBits = 1 << 27;  // 16 MiB of filter

/// Per-type payload codec registry. Every MessageType the simulator can
/// send is registered here (codec.cc); the transport refuses
/// unregistered types loudly rather than guessing.
class WireRegistry {
 public:
  using EncodeFn = void (*)(const Message& msg, WireWriter& w);
  /// Returns null after calling r.Fail() on malformed payloads.
  using DecodeFn = MessagePtr (*)(WireReader& r);

  struct Entry {
    const char* name = nullptr;  // stable lowercase label, e.g. "chord.ping"
    EncodeFn encode = nullptr;
    DecodeFn decode = nullptr;
  };

  /// The process-wide registry with every built-in protocol message.
  static const WireRegistry& Global();

  /// Looks up a codec; null for unregistered types.
  const Entry* Find(MessageType type) const;

  /// All registered types, ascending (drives the exhaustive codec tests).
  std::vector<MessageType> RegisteredTypes() const;

  size_t size() const { return entries_.size(); }

 private:
  WireRegistry();
  void Register(MessageType type, Entry entry);

  // Dense-enough direct map would waste space across the 1000-spaced
  // protocol bases; a flat sorted vector gives cache-friendly lookups.
  std::vector<std::pair<MessageType, Entry>> entries_;
};

/// Encodes `msg` (header + payload) into a fresh buffer. The message type
/// must be registered — encoding an unknown type is a programming error.
std::vector<uint8_t> WireEncode(const Message& msg);

/// Appends the encoding of `msg` to `out` (transport hot path).
void WireEncodeTo(const Message& msg, std::vector<uint8_t>* out);

/// Decodes one message from an untrusted buffer. Errors (never crashes) on
/// truncated input, unknown types, bad flags, implausible counts and
/// trailing bytes.
Result<MessagePtr> WireDecode(const uint8_t* data, size_t size);

inline Result<MessagePtr> WireDecode(const std::vector<uint8_t>& buf) {
  return WireDecode(buf.data(), buf.size());
}

}  // namespace flowercdn

#endif  // FLOWERCDN_WIRE_CODEC_H_
