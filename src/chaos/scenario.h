#ifndef FLOWERCDN_CHAOS_SCENARIO_H_
#define FLOWERCDN_CHAOS_SCENARIO_H_

#include <string>
#include <vector>

#include "sim/types.h"
#include "storage/object_id.h"
#include "util/result.h"

namespace flowercdn {

// LocalityId lives in sim/topology.h, but pulling the full topology into
// every scenario user is unnecessary; it is a plain int there.
using ScenarioLocality = int;

/// Largest time a scenario field may name, in minutes (about 1.9 years of
/// simulated time). Scenario times are finite minutes in [0, this].
constexpr double kMaxScenarioMinutes = 1e6;

/// One timed fault action of a chaos scenario. A tagged union kept as a
/// plain struct (only the fields of the active `type` are meaningful) so
/// scripts stay trivially copyable and serializable.
struct ScenarioAction {
  enum class Type {
    /// Kill the directory peer of petal (website, locality) at time `t`.
    kKillDirectory,
    /// Bidirectional partition between localities `loc_a` and `loc_b`
    /// during [t, t + duration): every message crossing the cut is lost.
    kPartition,
    /// Message-loss rate ramping linearly from 0 at `t` to `rate` at
    /// `t + duration`, then holding `rate` until the end of the run.
    kLossRamp,
    /// Churn intensity multiplied by `factor` during [t, t + duration):
    /// arrivals come `factor`x faster and new sessions live 1/`factor`
    /// as long.
    kChurnSpike,
    /// Query rate for `website` multiplied by `factor` from `t` until
    /// `t + duration` (duration 0 = until the end of the run).
    kFlashCrowd,
  };

  Type type = Type::kKillDirectory;
  SimTime t = 0;               ///< activation time (ms of simulated time)
  SimDuration duration = 0;    ///< partition / spike / crowd / ramp length
  WebsiteId website = 0;       ///< kill_directory, flash_crowd
  ScenarioLocality loc_a = 0;  ///< kill_directory locality; partition side A
  ScenarioLocality loc_b = 0;  ///< partition side B
  double rate = 0;             ///< loss_ramp target rate in [0,1]
  double factor = 1.0;         ///< churn_spike / flash_crowd multiplier

  /// Stable lowercase tag used in the JSON schema ("kill_directory", ...).
  static const char* TypeName(Type type);
};

/// A complete, deterministic fault timeline plus the always-on base fault
/// parameters. Build programmatically through the Add* methods or parse
/// from the JSON schema documented in docs/CHAOS.md. The script itself is
/// pure data — the chaos engine interprets it against the simulator clock.
struct ScenarioScript {
  std::string name;  ///< label echoed into reports ("" = anonymous)

  // --- Base fault layer (active for the whole run) -------------------------
  /// Probability that any message is silently lost, in [0, 1].
  double loss_rate = 0;
  /// Extra one-way delay drawn uniformly from [0, delay_jitter_ms] per
  /// message.
  double delay_jitter_ms = 0;
  /// Probability that a message is duplicated in flight, in [0, 1].
  double duplicate_rate = 0;

  /// Timeline, kept sorted by `t` (Add* methods insert in order).
  std::vector<ScenarioAction> actions;

  bool empty() const {
    return actions.empty() && loss_rate == 0 && delay_jitter_ms == 0 &&
           duplicate_rate == 0;
  }

  // --- Builders ------------------------------------------------------------
  ScenarioScript& AddKillDirectory(WebsiteId ws, ScenarioLocality loc,
                                   SimTime t);
  ScenarioScript& AddPartition(ScenarioLocality a, ScenarioLocality b,
                               SimTime t, SimDuration duration);
  ScenarioScript& AddLossRamp(double rate, SimTime t0, SimTime t1);
  ScenarioScript& AddChurnSpike(double factor, SimTime t,
                                SimDuration duration);
  ScenarioScript& AddFlashCrowd(WebsiteId ws, SimTime t, double multiplier,
                                SimDuration duration = 0);

  /// Validates ranges (rates in [0,1], factors > 0, durations >= 0).
  Status Validate() const;

  /// Rejects a kill_directory or flash_crowd website outside a catalog of
  /// `num_websites` sites (ids 0 .. num_websites - 1).
  Status CheckWebsites(int num_websites) const;

  /// Canonical JSON form (deterministic field order; parseable back).
  std::string ToJson() const;

  /// Parses the docs/CHAOS.md schema. Unknown fields are rejected so typos
  /// fail loudly instead of silently running a milder scenario.
  static Result<ScenarioScript> ParseJson(const std::string& text);

  /// Reads and parses a scenario file.
  static Result<ScenarioScript> LoadFile(const std::string& path);
};

}  // namespace flowercdn

#endif  // FLOWERCDN_CHAOS_SCENARIO_H_
