#ifndef FLOWERCDN_RUNNER_JSON_EXPORT_H_
#define FLOWERCDN_RUNNER_JSON_EXPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "runner/trial_runner.h"
#include "util/status.h"

namespace flowercdn {

/// Minimal streaming JSON writer. Output is deterministic: keys are
/// emitted in call order and doubles use the shortest round-trip decimal
/// form (std::to_chars), so equal data yields byte-equal documents —
/// the property the runner's "same seed, any --jobs" guarantee rests on.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits the key of the next object member.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view s);
  JsonWriter& Value(const char* s) { return Value(std::string_view(s)); }
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<uint64_t>(v)); }
  JsonWriter& Value(bool v);
  /// Emits an explicit JSON null ("metric not observed", as opposed to 0).
  JsonWriter& Null();

 private:
  void Separate();

  std::ostream& os_;
  // One entry per open scope: number of elements written so far.
  std::vector<size_t> counts_;
  bool after_key_ = false;
};

/// Serializes a full sweep: metadata, one entry per cell with its
/// aggregate, and (optionally) every per-trial result. Layout documented
/// in EXPERIMENTS.md ("Runner JSON schema").
///
/// `include_timing` adds a per-trial "timing" object (wall seconds, events
/// per wall second). Off by default because wall time is nondeterministic
/// — with it off, equal simulations yield byte-equal documents at any
/// --jobs.
void WriteSweepJson(std::ostream& os, uint64_t base_seed,
                    const std::vector<CellResult>& cells,
                    bool include_trials, bool include_timing = false);

/// Same, returned as a string (tests compare these byte-for-byte).
std::string SweepJsonString(uint64_t base_seed,
                            const std::vector<CellResult>& cells,
                            bool include_trials, bool include_timing = false);

/// Writes the document to `path` (kUnavailable on I/O failure).
Status WriteSweepJsonFile(const std::string& path, uint64_t base_seed,
                          const std::vector<CellResult>& cells,
                          bool include_trials, bool include_timing = false);

}  // namespace flowercdn

#endif  // FLOWERCDN_RUNNER_JSON_EXPORT_H_
