// Google-benchmark micro bench of the src/wire codec: encode and decode
// throughput per protocol family (messages/s and bytes/s), plus the
// round-trip and Message::WireSize(), the size walk the network's traffic
// accounting runs once per message. The committed baseline lives in
// BENCH_wire.json.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "sim/message.h"
#include "wire/codec.h"
#include "wire/sample_messages.h"

namespace flowercdn {
namespace {

/// The canonical samples from src/wire/sample_messages.cc, filtered to one
/// protocol family by message-type range ("all" keeps everything).
std::vector<MessagePtr> FamilySamples(MessageType lo, MessageType hi) {
  std::vector<MessagePtr> family;
  for (MessagePtr& msg : BuildSampleMessages()) {
    if (msg->type >= lo && msg->type < hi) family.push_back(std::move(msg));
  }
  return family;
}

std::vector<MessagePtr> SamplesFor(const std::string& family) {
  if (family == "chord") {
    return FamilySamples(kChordMessageBase, kChordMessageBase + 100);
  }
  if (family == "gossip") {
    return FamilySamples(kGossipMessageBase, kGossipMessageBase + 100);
  }
  if (family == "flower") {
    return FamilySamples(kFlowerMessageBase, kFlowerMessageBase + 100);
  }
  if (family == "squirrel") {
    return FamilySamples(kSquirrelMessageBase, kSquirrelMessageBase + 100);
  }
  return FamilySamples(0, ~MessageType(0));  // "all"
}

const char* FamilyName(int index) {
  static const char* kNames[] = {"all", "chord", "gossip", "flower",
                                 "squirrel"};
  return kNames[index];
}

void BM_WireEncode(benchmark::State& state) {
  std::vector<MessagePtr> samples = SamplesFor(FamilyName(state.range(0)));
  std::vector<uint8_t> scratch;
  size_t bytes_per_pass = 0;
  for (const MessagePtr& msg : samples) bytes_per_pass += msg->WireSize();
  for (auto _ : state) {
    for (const MessagePtr& msg : samples) {
      scratch.clear();
      WireEncodeTo(*msg, &scratch);
      benchmark::DoNotOptimize(scratch.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * samples.size());
  state.SetBytesProcessed(state.iterations() * bytes_per_pass);
  state.SetLabel(FamilyName(state.range(0)));
}
BENCHMARK(BM_WireEncode)->DenseRange(0, 4);

void BM_WireDecode(benchmark::State& state) {
  std::vector<std::vector<uint8_t>> encodings;
  size_t bytes_per_pass = 0;
  for (const MessagePtr& msg : SamplesFor(FamilyName(state.range(0)))) {
    encodings.push_back(WireEncode(*msg));
    bytes_per_pass += encodings.back().size();
  }
  for (auto _ : state) {
    for (const std::vector<uint8_t>& bytes : encodings) {
      Result<MessagePtr> decoded = WireDecode(bytes);
      benchmark::DoNotOptimize(decoded);
    }
  }
  state.SetItemsProcessed(state.iterations() * encodings.size());
  state.SetBytesProcessed(state.iterations() * bytes_per_pass);
  state.SetLabel(FamilyName(state.range(0)));
}
BENCHMARK(BM_WireDecode)->DenseRange(0, 4);

void BM_WireRoundTrip(benchmark::State& state) {
  std::vector<MessagePtr> samples = SamplesFor("all");
  size_t bytes_per_pass = 0;
  for (const MessagePtr& msg : samples) bytes_per_pass += msg->WireSize();
  for (auto _ : state) {
    for (const MessagePtr& msg : samples) {
      Result<MessagePtr> decoded = WireDecode(WireEncode(*msg));
      benchmark::DoNotOptimize(decoded);
    }
  }
  state.SetItemsProcessed(state.iterations() * samples.size());
  state.SetBytesProcessed(state.iterations() * bytes_per_pass);
}
BENCHMARK(BM_WireRoundTrip);

// The traffic-accounting hot path: Network::Send calls WireSize() once per
// message; the size walk adds up field widths and writes nothing.
void BM_WireSizeWalk(benchmark::State& state) {
  std::vector<MessagePtr> samples = SamplesFor("all");
  for (auto _ : state) {
    for (const MessagePtr& msg : samples) {
      benchmark::DoNotOptimize(msg->WireSize());
    }
  }
  state.SetItemsProcessed(state.iterations() * samples.size());
}
BENCHMARK(BM_WireSizeWalk);

}  // namespace
}  // namespace flowercdn

BENCHMARK_MAIN();
