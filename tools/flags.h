// Command-line flag parsing shared by flowercdn-sim, flowercdn-node and
// flowercdn-loadgen. Numbers follow the sweep parser's rules
// (runner/sweep.h): a bad or out-of-range value prints one line naming the
// flag and exits 2.

#ifndef FLOWERCDN_TOOLS_FLAGS_H_
#define FLOWERCDN_TOOLS_FLAGS_H_

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "net/tcp_transport.h"
#include "runner/sweep.h"

namespace flowercdn {

/// Parses a comma-separated `host:port` list (one entry per cluster rank or
/// gateway) with ports in [min_port, 65535]. Errors on an empty list, an
/// entry without a host or port, and a port that is not a whole number.
inline Result<std::vector<ClusterMember>> ParseHostPorts(std::string_view spec,
                                                         uint64_t min_port) {
  std::vector<ClusterMember> members;
  size_t pos = 0;
  while (true) {
    size_t comma = spec.find(',', pos);
    std::string_view entry = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    size_t colon = entry.rfind(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("'" + std::string(entry) +
                                     "' is not host:port");
    }
    Result<uint64_t> port = ParseWhole(entry.substr(colon + 1), min_port,
                                       UINT16_MAX);
    if (!port.ok()) return port.status();
    ClusterMember member;
    member.host = std::string(entry.substr(0, colon));
    member.port = static_cast<uint16_t>(*port);
    members.push_back(std::move(member));
    if (comma == std::string_view::npos) return members;
    pos = comma + 1;
  }
}

/// One command-line argument. `Is("--name")` matches `--name=value`; the
/// typed getters then parse the value and, on a bad or out-of-range value,
/// print a one-line error and exit 2.
struct Flag {
  const char* arg;
  const char* name = nullptr;
  const char* value = nullptr;

  bool Is(const char* flag) {
    size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) != 0 || arg[len] != '=') return false;
    name = flag;
    value = arg + len + 1;
    return true;
  }

  template <typename T>
  T OrExit(Result<T> parsed) const {
    if (!parsed.ok()) Exit(parsed.status().message());
    return *parsed;
  }

  [[noreturn]] void Exit(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", name, message.c_str());
    std::exit(2);
  }

  uint64_t Whole(uint64_t lo, uint64_t hi = INT_MAX) const {
    return OrExit(ParseWhole(value, lo, hi));
  }
  double Decimal(double lo) const { return OrExit(ParseDecimal(value, lo)); }
  /// A finite decimal number above zero.
  double Positive() const {
    double v = Decimal(0);
    if (v == 0) Exit("'" + std::string(value) + "' is not positive");
    return v;
  }
  SimDuration Duration(SimDuration unit) const {
    return OrExit(ParseDuration(value, unit));
  }
  std::vector<ClusterMember> HostPorts(uint64_t min_port) const {
    return OrExit(ParseHostPorts(value, min_port));
  }
};

}  // namespace flowercdn

#endif  // FLOWERCDN_TOOLS_FLAGS_H_
