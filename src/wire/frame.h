#ifndef FLOWERCDN_WIRE_FRAME_H_
#define FLOWERCDN_WIRE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/message.h"
#include "sim/types.h"

namespace flowercdn {

/// Transport frame shared by every socket backend (docs/PROTOCOL.md,
/// "Transport framing"). One frame carries one wire-encoded message plus
/// the two pieces of simulation metadata that must survive the hop:
///
///     offset  size  field            (little-endian)
///          0     4  flags|payload_len  bit 31: trace extension present;
///                                      bits 0..30: encoded message length
///          4     8  accounted_bytes  what Network::Send charged
///         12     8  latency_ms       simulated one-way delay (>= 0)
///   [     20     8  trace_id         only when bit 31 is set            ]
///   [     28     8  trace_span       parent span id, same condition     ]
///      20|36     -  payload          src/wire encoded message
///
/// The trace extension carries the sender's TraceContext across ranks so a
/// distributed query's spans stitch under one trace_id. Untraced frames
/// are byte-identical to the pre-extension layout (bit 31 clear), so old
/// and new peers interoperate as long as tracing stays off.
///
/// The TCP backend concatenates frames on a byte stream and reassembles
/// them with FrameAssembler below.
constexpr size_t kFrameHeaderBytes = 4 + 8 + 8;
constexpr size_t kFrameTraceExtBytes = 8 + 8;
constexpr uint32_t kFrameTraceFlag = 0x80000000u;

/// Decode-side cap on a frame's payload. Far above any real message (the
/// largest protocol encodings are a few KiB); a stream that claims more is
/// corrupt or hostile and is rejected before any allocation is sized from
/// the claim.
constexpr size_t kMaxFramePayload = 1 << 20;

struct FrameHeader {
  uint32_t payload_len = 0;  // flag bit already stripped
  uint64_t accounted_bytes = 0;
  SimDuration latency = 0;
  /// Trace extension (all-zero TraceContext when bit 31 was clear).
  bool traced = false;
  TraceContext trace;
  /// Bytes this header occupied on the wire (20, or 36 when traced).
  size_t HeaderBytes() const {
    return kFrameHeaderBytes + (traced ? kFrameTraceExtBytes : 0);
  }
};

/// Appends one complete frame (header + encoded `msg`) to `out`; returns
/// the payload length. The message type must be registered with the wire
/// codec. An active `trace` emits the flagged 36-byte header; the default
/// empty context emits the classic 20-byte layout, byte-for-byte.
size_t EncodeFrame(const Message& msg, uint64_t accounted_bytes,
                   SimDuration latency, const TraceContext& trace,
                   std::vector<uint8_t>* out);
inline size_t EncodeFrame(const Message& msg, uint64_t accounted_bytes,
                          SimDuration latency, std::vector<uint8_t>* out) {
  return EncodeFrame(msg, accounted_bytes, latency, TraceContext(), out);
}

/// Parses a frame header (including the trace extension when flagged) from
/// the start of `data`. Returns false (and sets *error) on input shorter
/// than the header's wire size or a negative latency. Does not validate
/// payload_len against a cap — stream callers check it against
/// kMaxFramePayload.
bool ParseFrameHeader(const uint8_t* data, size_t size, FrameHeader* out,
                      std::string* error);

/// Wire size of the header starting at `data` (20 or 36 depending on the
/// flag bit), for callers sizing reads. Requires size >= 4.
size_t FrameHeaderWireBytes(const uint8_t* data);

/// Incremental reassembler for frames on a byte stream (TCP). Feed it
/// whatever recv() returned — a read may end in the middle of the 4-byte
/// length prefix, a header, a payload, or carry several frames at once —
/// and pop complete frames in order.
///
/// The assembler latches into a failed state on a malformed header
/// (negative latency) or an oversized payload claim; a failed stream must
/// be torn down, not resynchronized (there are no frame boundaries to
/// recover on a byte stream).
class FrameAssembler {
 public:
  explicit FrameAssembler(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  struct Frame {
    FrameHeader header;
    std::vector<uint8_t> payload;
  };

  /// Appends raw stream bytes. No-op once failed.
  void Append(const uint8_t* data, size_t n);

  /// Pops the next complete frame into `*out`. Returns false when the
  /// buffered bytes do not yet form a complete frame (or the stream has
  /// failed — check failed()).
  bool Next(Frame* out);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  void Fail(const std::string& reason);

  size_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;  // prefix of buf_ already handed out as frames
  bool failed_ = false;
  std::string error_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_WIRE_FRAME_H_
