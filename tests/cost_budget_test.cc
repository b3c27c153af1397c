// Deterministic cost budgets. A trial's wall time is too noisy to gate a
// change on, but the work it does is exactly repeatable: events, cancelled
// events, the event slab's peak, messages and bytes per traffic family,
// and heap allocations. tests/golden/cost_budget.json holds a budget for
// each count of two trials, flowercdn-sim's
//
//   --population=2000 --hours=24 --seed=42      (trial 0)
//   --population=100000 --hours=1 --seed=1      (trial 0)
//
// A count above its budget fails. A count below it passes and prints the
// new figure, so the change that saved it can lower the budget. A budget
// is raised only like a golden file is regenerated: the change names the
// count that rose and says why.
//
// A counting global operator new sees every allocation RunExperiment
// makes in a fresh process. Sanitizer builds keep their own allocator and
// turn off the message pool, so they skip that column.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "expt/config.h"
#include "expt/experiment.h"
#include "runner/seed.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FLOWERCDN_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FLOWERCDN_TEST_SANITIZED 1
#endif
#endif

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

#ifndef FLOWERCDN_TEST_SANITIZED
namespace {

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // FLOWERCDN_TEST_SANITIZED

namespace flowercdn {
namespace {

/// One run of the budget file: the flowercdn-sim flags it stands for and
/// its budget per count.
struct BudgetRun {
  std::string name;
  uint64_t population = 0;
  uint64_t hours = 0;
  uint64_t seed = 0;
  std::map<std::string, uint64_t> budget;
};

/// Reads the budget file. Each run starts at its "name" key; "population",
/// "hours" and "seed" give its command, and every other key with a whole
/// number is a budget. Other string-valued keys document the file.
std::vector<BudgetRun> LoadBudget() {
  std::ifstream in(FLOWERCDN_COST_BUDGET_FILE);
  std::stringstream text_stream;
  text_stream << in.rdbuf();
  const std::string text = text_stream.str();
  static const std::regex kPair(R"re("([^"]+)"\s*:\s*(?:"([^"]*)"|(\d+)))re");
  std::vector<BudgetRun> runs;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kPair);
       it != std::sregex_iterator(); ++it) {
    const std::smatch& m = *it;
    const std::string key = m[1];
    if (key == "name") {
      runs.emplace_back().name = m[2];
      continue;
    }
    if (runs.empty() || !m[3].matched) continue;
    const uint64_t value = std::stoull(m[3]);
    BudgetRun& run = runs.back();
    if (key == "population") {
      run.population = value;
    } else if (key == "hours") {
      run.hours = value;
    } else if (key == "seed") {
      run.seed = value;
    } else {
      run.budget[key] = value;
    }
  }
  return runs;
}

/// Every count of one trial, keyed as in the budget file. Allocations are
/// counted only for the first trial of the process: later ones reuse what
/// the first left behind (the message pool's slabs, lazily built tables),
/// so ctest runs each budget in a process of its own.
std::map<std::string, uint64_t> MeasureCounts(const BudgetRun& run) {
  static bool first_trial = true;
  ExperimentConfig config;
  config.target_population = run.population;
  config.duration = static_cast<SimDuration>(run.hours) * kHour;
  config.seed = DeriveTrialSeed(run.seed, 0);  // flowercdn-sim's trial 0

  const uint64_t allocations_before = g_allocations.load();
  ExperimentResult r = RunExperiment(config, SystemKind::kFlowerCdn);
  const uint64_t allocations = g_allocations.load() - allocations_before;

  std::map<std::string, uint64_t> counts = {
      {"events", r.events_processed},
      {"events_cancelled", r.events_cancelled},
      {"events_pending_peak", r.events_pending_peak},
  };
  const std::pair<const char*, const Network::TrafficBreakdown::Family*>
      families[] = {
          {"chord", &r.traffic.chord},
          {"gossip", &r.traffic.gossip},
          {"flower", &r.traffic.flower},
          {"squirrel", &r.traffic.squirrel},
          {"other", &r.traffic.other},
          {"nack", &r.traffic.nack},
          {"refused", &r.traffic.refused},
          {"dropped", &r.traffic.dropped},
          {"injected_loss", &r.traffic.injected_loss},
      };
  for (const auto& [family, f] : families) {
    counts[std::string("messages.") + family] = f->messages;
    counts[std::string("bytes.") + family] = f->bytes;
  }
#ifndef FLOWERCDN_TEST_SANITIZED
  if (first_trial) counts["allocations"] = allocations;
#else
  (void)allocations;
#endif
  first_trial = false;
  return counts;
}

class CostBudgetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CostBudgetTest, CountsStayWithinBudget) {
  const std::vector<BudgetRun> runs = LoadBudget();
  const BudgetRun* run = nullptr;
  for (const BudgetRun& r : runs) {
    if (r.name == GetParam()) run = &r;
  }
  ASSERT_NE(run, nullptr) << GetParam() << " is not in "
                          << FLOWERCDN_COST_BUDGET_FILE;

  const std::map<std::string, uint64_t> counts = MeasureCounts(*run);
  bool changed = false;
  for (const auto& [name, count] : counts) {
    auto it = run->budget.find(name);
    if (it == run->budget.end()) {
      ADD_FAILURE() << run->name << ": no budget for " << name;
      changed = true;
      continue;
    }
    EXPECT_LE(count, it->second)
        << run->name << ": " << name << " rose above its budget";
    if (count < it->second) {
      std::printf("%s: %s fell to %llu (budget %llu); lower the budget\n",
                  run->name.c_str(), name.c_str(),
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(it->second));
    }
    changed |= count != it->second;
  }
  // A budget without a measured count is a typo or a count that is gone.
  for (const auto& [name, budget] : run->budget) {
    if (name == "allocations") continue;  // not always measured
    EXPECT_TRUE(counts.count(name)) << run->name << ": budget for unknown "
                                    << name;
  }
  if (changed) {
    std::printf("%s measured \"budget\": {", run->name.c_str());
    const char* sep = "";
    for (const auto& [name, count] : counts) {
      std::printf("%s\"%s\": %llu", sep, name.c_str(),
                  static_cast<unsigned long long>(count));
      sep = ", ";
    }
    std::printf("}\n");
  }
}

INSTANTIATE_TEST_SUITE_P(Runs, CostBudgetTest,
                         ::testing::Values("flower-2k-24h", "flower-100k-1h"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           std::string name = p.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace flowercdn
