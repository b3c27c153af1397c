#include "runner/sweep.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "runner/seed.h"
#include "util/table_printer.h"

namespace flowercdn {

Result<SystemChoice> ParseSystemChoice(std::string_view name) {
  if (name == "flower") {
    return SystemChoice{SystemKind::kFlowerCdn, SquirrelMode::kDirectory,
                        "flower"};
  }
  if (name == "squirrel") {
    return SystemChoice{SystemKind::kSquirrel, SquirrelMode::kDirectory,
                        "squirrel"};
  }
  if (name == "squirrel-homestore") {
    return SystemChoice{SystemKind::kSquirrel, SquirrelMode::kHomeStore,
                        "squirrel-homestore"};
  }
  return Status::InvalidArgument("unknown system '" + std::string(name) +
                                 "' (want flower|squirrel|"
                                 "squirrel-homestore)");
}

namespace {

std::vector<std::string_view> SplitList(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    size_t pos = s.find(sep);
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

}  // namespace

Result<SimDuration> ParseDuration(std::string_view text, SimDuration unit) {
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (buf.empty() || end != buf.c_str() + buf.size() || errno != 0 ||
      !std::isfinite(v) || v <= 0) {
    return Status::InvalidArgument("'" + buf +
                                   "' is not a positive decimal number");
  }
  const double ms = v * static_cast<double>(unit);
  if (ms < 1 || ms > 1e18) {
    return Status::InvalidArgument("'" + buf + "' is out of range");
  }
  return static_cast<SimDuration>(ms);
}

Result<uint64_t> ParseWhole(std::string_view text, uint64_t lo, uint64_t hi) {
  std::string buf(text);
  if (buf.empty() || buf.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("'" + buf + "' is not a whole number");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(buf.c_str(), nullptr, 10);
  if (errno != 0 || v < lo || v > hi) {
    return Status::InvalidArgument("'" + buf + "' is out of range [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  return static_cast<uint64_t>(v);
}

Result<double> ParseDecimal(std::string_view text, double lo) {
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (buf.empty() || end != buf.c_str() + buf.size() || errno != 0 ||
      !std::isfinite(v)) {
    return Status::InvalidArgument("'" + buf + "' is not a decimal number");
  }
  if (v < lo) {
    return Status::InvalidArgument("'" + buf + "' is below " +
                                   FormatDouble(lo, 2));
  }
  return v;
}

Result<SweepSpec> SweepSpec::Parse(std::string_view spec,
                                   const ExperimentConfig& base) {
  SweepSpec sweep;
  sweep.base = base;
  sweep.base_seed = base.seed;

  for (std::string_view clause : SplitList(spec, ';')) {
    if (clause.empty()) continue;
    size_t eq = clause.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("sweep: clause '" + std::string(clause) +
                                     "' is not key=v1,v2,...");
    }
    std::string_view key = clause.substr(0, eq);
    std::vector<std::string_view> values = SplitList(clause.substr(eq + 1),
                                                     ',');
    if (values.size() == 1 && values[0].empty()) {
      return Status::InvalidArgument("sweep: empty value list for '" +
                                     std::string(key) + "'");
    }

    if (key == "chaos") {
      for (std::string_view v : values) {
        if (v == "none") {
          sweep.scenarios.push_back(ScenarioScript{});
          continue;
        }
        Result<ScenarioScript> script =
            ScenarioScript::LoadFile(std::string(v));
        if (!script.ok()) return script.status();
        FLOWERCDN_RETURN_NOT_OK(
            script->CheckWebsites(base.catalog.num_websites));
        if (script->name.empty()) {
          // Label cells by the file stem when the scenario is anonymous.
          std::string_view stem = v;
          size_t slash = stem.rfind('/');
          if (slash != std::string_view::npos) stem.remove_prefix(slash + 1);
          size_t dot = stem.rfind('.');
          if (dot != std::string_view::npos) stem = stem.substr(0, dot);
          script->name = std::string(stem);
        }
        sweep.scenarios.push_back(std::move(*script));
      }
      continue;
    }

    if (key == "system") {
      for (std::string_view v : values) {
        Result<SystemChoice> choice = ParseSystemChoice(v);
        if (!choice.ok()) return choice.status();
        sweep.systems.push_back(*choice);
      }
      continue;
    }

    // The remaining keys are numeric. Errors name the key and the value.
    auto keyed = [key](const Status& status) {
      return Status::InvalidArgument("sweep: " + std::string(key) + " " +
                                     status.message());
    };
    if (key == "population" || key == "replication") {
      for (std::string_view v : values) {
        Result<uint64_t> n = ParseWhole(v, 1, INT_MAX);
        if (!n.ok()) return keyed(n.status());
        if (key == "population") {
          sweep.populations.push_back(static_cast<size_t>(*n));
        } else {
          sweep.replications.push_back(static_cast<int>(*n));
        }
      }
    } else if (key == "zipf") {
      for (std::string_view v : values) {
        Result<double> n = ParseDecimal(v, 0);
        if (!n.ok()) return keyed(n.status());
        sweep.zipf_alphas.push_back(*n);
      }
    } else if (key == "uptime-min") {
      for (std::string_view v : values) {
        Result<SimDuration> uptime = ParseDuration(v, kMinute);
        if (!uptime.ok()) return keyed(uptime.status());
        sweep.mean_uptimes.push_back(*uptime);
      }
    } else if (key == "trials" || key == "seed" || key == "hours") {
      if (values.size() != 1) {
        return Status::InvalidArgument("sweep: " + std::string(key) +
                                       " wants one value");
      }
      if (key == "trials") {
        Result<uint64_t> n = ParseWhole(values[0], 1, INT_MAX);
        if (!n.ok()) return keyed(n.status());
        sweep.trials = static_cast<size_t>(*n);
      } else if (key == "seed") {
        Result<uint64_t> n = ParseWhole(values[0], 0, UINT64_MAX);
        if (!n.ok()) return keyed(n.status());
        sweep.base_seed = *n;
      } else {
        Result<SimDuration> duration = ParseDuration(values[0], kHour);
        if (!duration.ok()) return keyed(duration.status());
        sweep.base.duration = *duration;
      }
    } else {
      return Status::InvalidArgument(
          "sweep: unknown key '" + std::string(key) +
          "' (want population|zipf|uptime-min|chaos|system|replication|"
          "trials|seed|hours)");
    }
  }
  return sweep;
}

size_t SweepSpec::NumCells() const {
  size_t cells = 1;
  if (!populations.empty()) cells *= populations.size();
  if (!zipf_alphas.empty()) cells *= zipf_alphas.size();
  if (!mean_uptimes.empty()) cells *= mean_uptimes.size();
  if (!scenarios.empty()) cells *= scenarios.size();
  cells *= systems.empty() ? 1 : systems.size();
  if (!replications.empty()) cells *= replications.size();
  return cells;
}

std::vector<TrialJob> SweepSpec::Expand() const {
  // Singleton fallbacks: an unswept dimension keeps the base value and
  // stays out of the labels.
  std::vector<size_t> pops =
      populations.empty() ? std::vector<size_t>{base.target_population}
                          : populations;
  std::vector<double> zipfs = zipf_alphas.empty()
                                  ? std::vector<double>{base.catalog.zipf_alpha}
                                  : zipf_alphas;
  std::vector<SimDuration> uptimes =
      mean_uptimes.empty() ? std::vector<SimDuration>{base.mean_uptime}
                           : mean_uptimes;
  std::vector<ScenarioScript> scripts =
      scenarios.empty() ? std::vector<ScenarioScript>{base.chaos} : scenarios;
  std::vector<SystemChoice> kinds =
      systems.empty() ? std::vector<SystemChoice>{SystemChoice{}} : systems;
  std::vector<int> reps = replications.empty()
                              ? std::vector<int>{base.flower.replication}
                              : replications;

  std::vector<TrialJob> jobs;
  jobs.reserve(pops.size() * zipfs.size() * uptimes.size() * scripts.size() *
               kinds.size() * reps.size() * trials);
  size_t cell = 0;
  for (size_t population : pops) {
    for (double zipf : zipfs) {
      for (SimDuration uptime : uptimes) {
        for (const ScenarioScript& script : scripts) {
          for (const SystemChoice& sys : kinds) {
            for (int replication : reps) {
              std::string label = sys.name;
              if (pops.size() > 1) {
                label += "/P=" + std::to_string(population);
              }
              if (zipfs.size() > 1) {
                label += "/zipf=" + FormatDouble(zipf, 2);
              }
              if (uptimes.size() > 1) {
                label += "/m=" + std::to_string(uptime / kMinute) + "min";
              }
              if (scripts.size() > 1) {
                label += "/chaos=" +
                         (script.empty()
                              ? std::string("none")
                              : (script.name.empty()
                                     ? std::string("scenario")
                                     : script.name));
              }
              if (reps.size() > 1) {
                label += "/k=" + std::to_string(replication);
              }
              for (size_t trial = 0; trial < trials; ++trial) {
                TrialJob job;
                job.config = base;
                job.config.target_population = population;
                job.config.catalog.zipf_alpha = zipf;
                job.config.mean_uptime = uptime;
                job.config.chaos = script;
                job.config.squirrel.mode = sys.squirrel_mode;
                job.config.flower.replication = replication;
                job.config.seed = DeriveTrialSeed(base_seed, trial);
                job.kind = sys.kind;
                job.cell = cell;
                job.trial = trial;
                job.label = label;
                jobs.push_back(std::move(job));
              }
              ++cell;
            }
          }
        }
      }
    }
  }
  return jobs;
}

}  // namespace flowercdn
