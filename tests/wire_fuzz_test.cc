// Adversarial decode: WireDecode must return an error — never crash, hang
// or over-allocate — on any byte soup. Run under ASan/UBSan in CI, this is
// the "decoder is safe on untrusted input" guarantee.

#include <gtest/gtest.h>

#include "chord/messages.h"
#include "flower/messages.h"
#include "util/random.h"
#include "wire/buffer.h"
#include "wire/codec.h"
#include "wire/sample_messages.h"

namespace flowercdn {
namespace {

void PatchU32(std::vector<uint8_t>& buf, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) buf[offset + i] = uint8_t(v >> (8 * i));
}

TEST(WireFuzzTest, EmptyAndTinyBuffersError) {
  EXPECT_FALSE(WireDecode(nullptr, 0).ok());
  uint8_t byte = 0;
  EXPECT_FALSE(WireDecode(&byte, 1).ok());
  std::vector<uint8_t> below(kWireHeaderBytes - 1, 0);
  EXPECT_FALSE(WireDecode(below).ok());
}

// Every strict prefix of a valid encoding must be rejected: the payload
// layouts are fixed-width or length-prefixed, so truncation always starves
// a later read.
TEST(WireFuzzTest, AllTruncationsError) {
  for (const MessagePtr& msg : BuildSampleMessages()) {
    std::vector<uint8_t> bytes = WireEncode(*msg);
    for (size_t len = 0; len < bytes.size(); ++len) {
      Result<MessagePtr> r = WireDecode(bytes.data(), len);
      EXPECT_FALSE(r.ok()) << "type " << msg->type << " accepted a " << len
                           << "-byte prefix of " << bytes.size();
    }
  }
}

TEST(WireFuzzTest, TrailingBytesError) {
  for (const MessagePtr& msg : BuildSampleMessages()) {
    std::vector<uint8_t> bytes = WireEncode(*msg);
    bytes.push_back(0);
    EXPECT_FALSE(WireDecode(bytes).ok()) << "type " << msg->type;
    bytes.insert(bytes.end(), 100, 0xab);
    EXPECT_FALSE(WireDecode(bytes).ok()) << "type " << msg->type;
  }
}

TEST(WireFuzzTest, UnknownTypeErrors) {
  std::vector<uint8_t> bytes = WireEncode(*BuildSampleMessages().front());
  for (uint32_t type : {0u, 3u, 999u, 1999u, 5000u, 0xffffffffu}) {
    PatchU32(bytes, 0, type);
    Result<MessagePtr> r = WireDecode(bytes);
    EXPECT_FALSE(r.ok()) << "accepted unknown type " << type;
  }
}

TEST(WireFuzzTest, ReservedFlagBitsError) {
  for (const MessagePtr& msg : BuildSampleMessages()) {
    std::vector<uint8_t> bytes = WireEncode(*msg);
    for (uint8_t bit = 1; bit < 8; ++bit) {
      std::vector<uint8_t> forged = bytes;
      forged[4] |= uint8_t(1) << bit;
      EXPECT_FALSE(WireDecode(forged).ok())
          << "type " << msg->type << " accepted flag bit " << int(bit);
    }
  }
}

// A forged element count must never drive a huge allocation: the decoder
// validates counts against the bytes actually present.
TEST(WireFuzzTest, ForgedCountsErrorWithoutAllocating) {
  ChordFingersReplyMsg fingers;
  fingers.fingers = {{1, 2}, {3, 4}};
  std::vector<uint8_t> bytes = WireEncode(fingers);
  // The count is the first payload field.
  for (uint32_t forged : {3u, 1000u, 0x7fffffffu, 0xffffffffu}) {
    PatchU32(bytes, kWireHeaderBytes, forged);
    EXPECT_FALSE(WireDecode(bytes).ok()) << "accepted count " << forged;
  }

  FlowerGossipMsg gossip;
  gossip.summary = BloomFilter(64, 0.05);
  std::vector<uint8_t> gbytes = WireEncode(gossip);
  // Payload starts with the (empty) contact count; the bloom bit_count u64
  // follows. Forge the bit count to demand gigabytes of words.
  size_t bloom_off = kWireHeaderBytes + 4;
  PatchU32(gbytes, bloom_off, 0xffffffffu);
  PatchU32(gbytes, bloom_off + 4, 0xffffffffu);
  EXPECT_FALSE(WireDecode(gbytes).ok());
}

// Seeded random single-byte mutations over every sample: decode must never
// crash. When a mutation still decodes, the format's canonicality must
// hold: re-encoding reproduces the mutated buffer bit for bit.
TEST(WireFuzzTest, RandomMutationsNeverCrash) {
  Rng rng(20260806);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const MessagePtr& msg : BuildSampleMessages()) {
    const std::vector<uint8_t> original = WireEncode(*msg);
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<uint8_t> mutated = original;
      size_t flips = 1 + size_t(rng.NextBounded(3));
      for (size_t f = 0; f < flips; ++f) {
        size_t pos = size_t(rng.NextBounded(uint64_t(mutated.size())));
        mutated[pos] = uint8_t(rng.NextBounded(256));
      }
      Result<MessagePtr> r = WireDecode(mutated);
      if (r.ok()) {
        ++accepted;
        EXPECT_EQ(WireEncode(**r), mutated)
            << "type " << msg->type << ": non-canonical accept";
      } else {
        ++rejected;
        EXPECT_FALSE(r.status().message().empty());
      }
    }
  }
  // Most mutations land in wide-open integer fields (peer ids, keys) and
  // still decode; structural fields reject. Both paths must be exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Pure garbage of many lengths: valid-looking type prefix, random tail.
TEST(WireFuzzTest, RandomGarbagePayloadsNeverCrash) {
  Rng rng(424242);
  std::vector<MessageType> types = WireRegistry::Global().RegisteredTypes();
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = size_t(rng.NextBounded(300));
    std::vector<uint8_t> buf(len);
    for (uint8_t& b : buf) b = uint8_t(rng.NextBounded(256));
    if (len >= 4 && rng.NextBounded(2) == 0) {
      // Half the trials aim at a real codec instead of the unknown-type
      // early-out.
      MessageType t = types[size_t(rng.NextBounded(uint64_t(types.size())))];
      PatchU32(buf, 0, t);
    }
    Result<MessagePtr> r = WireDecode(buf.data(), buf.size());
    if (r.ok()) {
      // Fine — but then canonicality must hold.
      EXPECT_EQ(WireEncode(**r), buf);
    }
  }
}

TEST(WireFuzzTest, ReaderLatchesAfterUnderflow) {
  uint8_t two[2] = {0xaa, 0xbb};
  WireReader r(two, sizeof(two));
  EXPECT_EQ(r.U64(), 0u);  // underflow: latched, returns zero
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0u);  // stays failed, still returns zero
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_EQ(r.Count(10, 1), 0u);
  EXPECT_FALSE(r.error().empty());
}

}  // namespace
}  // namespace flowercdn
