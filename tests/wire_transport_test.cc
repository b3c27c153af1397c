// Transport-equivalence tests: the transport seam must be invisible to the
// simulation. A run whose messages are framed, encoded and decoded between
// send and delivery must produce bit-identical dynamics to the default
// in-process delivery, and --wire=encoded must change only the byte
// accounting, never the protocol behaviour.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "expt/env.h"
#include "expt/flower_system.h"
#include "sim/network.h"
#include "sim/transport.h"
#include "sim/types.h"
#include "wire/codec.h"
#include "wire/frame.h"

namespace flowercdn {
namespace {

struct RunOutcome {
  uint64_t queries = 0;
  uint64_t hits = 0;
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t events_processed = 0;
  size_t final_population = 0;
};

ExperimentConfig SmallConfig(WireMode wire_mode) {
  ExperimentConfig config;
  config.target_population = 20;
  config.duration = 1 * kHour;
  config.catalog.num_websites = 2;
  config.catalog.num_active = 2;
  config.catalog.objects_per_website = 30;
  config.topology.num_localities = 2;
  config.wire_mode = wire_mode;
  return config;
}

RunOutcome RunOnce(const ExperimentConfig& config) {
  ExperimentEnv env(config);
  FlowerSystem system(&env, config.flower);
  system.Setup();
  env.sim().RunUntil(config.duration);

  RunOutcome out;
  out.queries = env.metrics().total_queries();
  out.hits = env.metrics().hits();
  out.messages_sent = env.network().messages_sent();
  out.bytes_sent = env.network().bytes_sent();
  out.events_processed = env.sim().events_processed();
  out.final_population = env.network().alive_count();
  return out;
}

// Carries every message through the full socket-side codec path without
// a socket: EncodeFrame -> ParseFrameHeader -> WireDecode ->
// DeliverFromTransport, synchronously, so delivery order matches the
// in-process backend.
class CodecLoopbackTransport : public Transport {
 public:
  explicit CodecLoopbackTransport(Network* network) : network_(network) {}

  void Carry(PeerId /*src*/, PeerId dst, SimDuration latency,
             size_t accounted_bytes, MessagePtr msg) override {
    frame_.clear();
    EncodeFrame(*msg, accounted_bytes, latency, msg->trace, &frame_);
    frame_bytes_ += frame_.size();
    ++frames_;

    FrameHeader header;
    std::string error;
    ASSERT_TRUE(ParseFrameHeader(frame_.data(), frame_.size(), &header,
                                 &error))
        << error;
    ASSERT_EQ(header.payload_len, frame_.size() - header.HeaderBytes());
    Result<MessagePtr> decoded =
        WireDecode(frame_.data() + header.HeaderBytes(), header.payload_len);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    MessagePtr copy = std::move(decoded).value();
    copy->trace = header.trace;
    network_->DeliverFromTransport(dst, header.latency,
                                   size_t(header.accounted_bytes),
                                   std::move(copy));
  }

  const char* name() const override { return "codec-loopback"; }

  uint64_t frames() const { return frames_; }
  uint64_t frame_bytes() const { return frame_bytes_; }

 private:
  Network* network_;
  std::vector<uint8_t> frame_;
  uint64_t frames_ = 0;
  uint64_t frame_bytes_ = 0;
};

// Delivering decoded copies must reproduce the in-process run exactly:
// same queries, same hits, same message/byte counters, same event count,
// same final population.
TEST(WireTransportTest, CodecLoopbackMatchesInProcessExactly) {
  ExperimentConfig config = SmallConfig(WireMode::kEncoded);

  RunOutcome in_process = RunOnce(config);

  ExperimentEnv env(config);
  CodecLoopbackTransport codec(&env.network());
  env.network().SetTransport(&codec);
  FlowerSystem system(&env, config.flower);
  system.Setup();
  env.sim().RunUntil(config.duration);

  EXPECT_EQ(env.metrics().total_queries(), in_process.queries);
  EXPECT_EQ(env.metrics().hits(), in_process.hits);
  EXPECT_EQ(env.network().messages_sent(), in_process.messages_sent);
  EXPECT_EQ(env.network().bytes_sent(), in_process.bytes_sent);
  EXPECT_EQ(env.sim().events_processed(), in_process.events_processed);
  EXPECT_EQ(env.network().alive_count(), in_process.final_population);

  // And every message really did cross the codec.
  EXPECT_GT(codec.frames(), 0u);
  EXPECT_EQ(codec.frames(), in_process.messages_sent);
  EXPECT_GT(codec.frame_bytes(), 0u);
}

// Encoded sizing changes byte accounting only: the protocol's decisions
// (queries issued, hits, messages exchanged, events) are unaffected.
TEST(WireTransportTest, EncodedModeChangesBytesOnly) {
  RunOutcome modeled = RunOnce(SmallConfig(WireMode::kModeled));
  RunOutcome encoded = RunOnce(SmallConfig(WireMode::kEncoded));

  EXPECT_EQ(encoded.queries, modeled.queries);
  EXPECT_EQ(encoded.hits, modeled.hits);
  EXPECT_EQ(encoded.messages_sent, modeled.messages_sent);
  EXPECT_EQ(encoded.events_processed, modeled.events_processed);
  EXPECT_EQ(encoded.final_population, modeled.final_population);

  EXPECT_GT(modeled.bytes_sent, 0u);
  EXPECT_GT(encoded.bytes_sent, 0u);
  EXPECT_NE(encoded.bytes_sent, modeled.bytes_sent);
}

}  // namespace
}  // namespace flowercdn
