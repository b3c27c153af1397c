#ifndef FLOWERCDN_RUNNER_SWEEP_H_
#define FLOWERCDN_RUNNER_SWEEP_H_

#include <string>
#include <string_view>
#include <vector>

#include "expt/config.h"
#include "expt/experiment.h"
#include "runner/trial_runner.h"
#include "squirrel/squirrel_peer.h"
#include "util/result.h"

namespace flowercdn {

/// Which protocol stack a sweep cell runs. Distinguishes the two Squirrel
/// variants (directory vs home-store), which share SystemKind::kSquirrel.
struct SystemChoice {
  SystemKind kind = SystemKind::kFlowerCdn;
  SquirrelMode squirrel_mode = SquirrelMode::kDirectory;
  /// Stable CLI name: "flower", "squirrel" or "squirrel-homestore".
  const char* name = "flower";
};

/// Parses a CLI system name; errors on anything else.
Result<SystemChoice> ParseSystemChoice(std::string_view name);

/// Parses a positive decimal count of `unit` ("0.25" hours, "90" minutes)
/// into a SimDuration. Errors on empty, non-numeric, non-finite, zero or
/// negative input, and on anything shorter than one simulated millisecond.
Result<SimDuration> ParseDuration(std::string_view text, SimDuration unit);

/// Parses a whole decimal number in [lo, hi] — the full uint64 range for a
/// seed. Errors on empty, signed, fractional or non-numeric input and on
/// values outside the range.
Result<uint64_t> ParseWhole(std::string_view text, uint64_t lo, uint64_t hi);

/// Parses a finite decimal number no smaller than `lo`.
Result<double> ParseDecimal(std::string_view text, double lo);

/// A grid of experiment configurations: the cross product of every swept
/// dimension, times `systems`, times `trials` repetitions per cell. Each
/// trial's seed derives from (base_seed, trial index) — see seed.h — so a
/// sweep is reproducible from one base seed at any parallelism.
struct SweepSpec {
  /// Defaults for everything the sweep does not touch.
  ExperimentConfig base;

  // Swept dimensions. An empty vector means "keep base's value".
  std::vector<size_t> populations;
  std::vector<double> zipf_alphas;
  std::vector<SimDuration> mean_uptimes;     // churn rates (m, in ms)
  std::vector<ScenarioScript> scenarios;     // chaos scenarios (files/none)
  std::vector<SystemChoice> systems;         // default: flower only
  std::vector<WireMode> wire_modes;          // traffic sizing backends
  std::vector<int> replications;             // directory replication factors
  size_t trials = 1;
  uint64_t base_seed = 42;

  /// Parses a compact sweep string of semicolon-separated `key=v1,v2,...`
  /// clauses onto `base`. Keys: population, zipf, uptime-min, chaos,
  /// system, wire, replication, trials, seed, hours. `chaos` values are
  /// scenario file paths (or the literal `none` for a fault-free cell);
  /// `wire` values are modeled|encoded; `replication` values are total
  /// directory copies (k >= 1; only Flower cells react). Example:
  ///   "population=2000,3000;system=flower,squirrel;trials=8"
  ///   "chaos=scenarios/dirkill.json;replication=1,3"
  /// Unknown keys, empty value lists and malformed numbers are errors.
  static Result<SweepSpec> Parse(std::string_view spec,
                                 const ExperimentConfig& base);

  /// Number of grid cells (configurations x systems).
  size_t NumCells() const;

  /// Expands the grid into per-trial jobs, cell-major (all trials of cell 0
  /// first). Cell order: population (outer), zipf, uptime, chaos, system,
  /// wire, replication (inner). Labels name the system plus every dimension
  /// with >1 swept value.
  std::vector<TrialJob> Expand() const;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_RUNNER_SWEEP_H_
