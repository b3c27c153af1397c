// Google-benchmark micro benchmarks of the substrate components: RNG/Zipf
// sampling, Bloom summaries, Chord id math, D-ring key management, and
// end-to-end simulation event rate.

#include <benchmark/benchmark.h>

#include "chord/id.h"
#include "expt/experiment.h"
#include "flower/dring.h"
#include "sim/simulator.h"
#include "storage/content_store.h"
#include "util/bloom_filter.h"
#include "util/random.h"

namespace flowercdn {
namespace {

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int remaining = 100000;
    std::function<void()> tick = [&]() {
      if (--remaining > 0) sim.Schedule(1, [&]() { tick(); });
    };
    sim.Schedule(1, [&]() { tick(); });
    sim.Run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_RngNext(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(500, 0.8);
  Rng rng(9);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Sample(rng));
}
BENCHMARK(BM_ZipfSample);

void BM_BloomInsert(benchmark::State& state) {
  BloomFilter filter(10000, 0.02);
  uint64_t key = 0;
  for (auto _ : state) filter.Insert(++key);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQuery(benchmark::State& state) {
  BloomFilter filter(10000, 0.02);
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) filter.Insert(rng.Next());
  uint64_t key = 0;
  for (auto _ : state) benchmark::DoNotOptimize(filter.MayContain(++key));
}
BENCHMARK(BM_BloomQuery);

void BM_ContentSummaryBuild(benchmark::State& state) {
  ContentStore store;
  for (uint32_t i = 0; i < 200; ++i) store.Insert({1, i});
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.BuildSummary(0.02));
  }
}
BENCHMARK(BM_ContentSummaryBuild);

void BM_ChordIntervalCheck(benchmark::State& state) {
  Rng rng(13);
  ChordId a = rng.Next(), b = rng.Next(), x = rng.Next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(InIntervalOpenClosed(x, a, b));
    x += 0x9e3779b97f4a7c15ULL;
  }
}
BENCHMARK(BM_ChordIntervalCheck);

void BM_DRingKeyDerivation(benchmark::State& state) {
  DRingKeyspace keyspace(100, 6, 16);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        keyspace.IdOf(i % 100, (i / 100) % 6, (i / 600) % 16));
    ++i;
  }
}
BENCHMARK(BM_DRingKeyDerivation);

void BM_DRingPositionInverse(benchmark::State& state) {
  DRingKeyspace keyspace(100, 6, 16);
  ChordId id = keyspace.IdOf(42, 3, 1);
  for (auto _ : state) benchmark::DoNotOptimize(keyspace.PositionOf(id));
}
BENCHMARK(BM_DRingPositionInverse);

/// End-to-end simulation throughput: a small Flower-CDN deployment, one
/// simulated hour per iteration; reports simulated events per second.
void BM_EndToEndSimulatedHour(benchmark::State& state) {
  uint64_t total_events = 0;
  for (auto _ : state) {
    ExperimentConfig config;
    config.seed = 42;
    config.target_population = 300;
    config.duration = kHour;
    config.catalog.num_websites = 20;
    config.catalog.num_active = 3;
    ExperimentResult r = RunExperiment(config, SystemKind::kFlowerCdn);
    total_events += r.events_processed;
    benchmark::DoNotOptimize(r.hit_ratio);
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_events));
}
BENCHMARK(BM_EndToEndSimulatedHour)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace flowercdn

BENCHMARK_MAIN();
