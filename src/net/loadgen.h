#ifndef FLOWERCDN_NET_LOADGEN_H_
#define FLOWERCDN_NET_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/http.h"
#include "net/tcp_transport.h"
#include "obs/latency_histogram.h"
#include "util/random.h"

namespace flowercdn {

/// Zipf-workload HTTP load generator for the cluster gateway. Two drive
/// modes:
///  * closed loop (`open_loop_qps == 0`): every connection keeps exactly
///    one request outstanding — throughput is what the system sustains;
///  * open loop (`open_loop_qps > 0`): arrivals fire at the target rate
///    regardless of completions; arrivals that find no idle connection
///    wait in a bounded backlog (overflow is counted, not silently lost),
///    so coordinated omission is visible instead of hidden.
class LoadGenerator {
 public:
  struct Options {
    /// Gateway endpoints; connections round-robin across them.
    std::vector<ClusterMember> targets;
    size_t connections = 64;
    double duration_s = 10.0;
    /// Measurement starts after this many seconds (stats reset once).
    double warmup_s = 0.0;
    double open_loop_qps = 0.0;
    uint64_t seed = 1;
    /// Request space: /<website>/<object> with website uniform in
    /// [0, num_websites) and object Zipf(zipf_alpha) in
    /// [0, objects_per_website).
    int num_websites = 6;
    int objects_per_website = 80;
    double zipf_alpha = 0.8;
  };

  struct Report {
    double duration_s = 0;       // measured (post-warmup) window
    uint64_t requests_sent = 0;
    uint64_t responses_ok = 0;   // HTTP 200
    uint64_t responses_error = 0;
    uint64_t parse_errors = 0;
    uint64_t connect_failures = 0;
    uint64_t backlog_dropped = 0;  // open loop: arrivals past the backlog cap
    double qps = 0;              // responses_ok / duration_s
    uint64_t served_petal = 0;
    uint64_t served_directory = 0;
    uint64_t served_origin = 0;
    uint64_t body_bytes_petal = 0;
    uint64_t body_bytes_directory = 0;
    uint64_t body_bytes_origin = 0;
    double p50_ms = 0, p90_ms = 0, p95_ms = 0, p99_ms = 0;
    double mean_ms = 0, max_ms = 0;
  };

  explicit LoadGenerator(Options options);

  /// Blocks for warmup_s + duration_s (plus a short drain) and returns the
  /// measured report.
  Report Run();

 private:
  struct Conn {
    int fd = -1;
    size_t target = 0;
    bool connecting = false;
    bool inflight = false;
    HttpResponseParser parser;
    std::string out;
    size_t out_offset = 0;
    int64_t sent_at_us = 0;
  };

  void OpenConn(size_t idx);
  void CloseConn(size_t idx, bool reconnect);
  void OnEvent(size_t idx, uint32_t events);
  void OnConnected(size_t idx);
  void OnReadable(size_t idx);
  void TryFlush(size_t idx);
  void IssueOn(size_t idx);
  void MaybeIssue(size_t idx);
  std::string NextTarget();
  void CountResponse(const HttpResponse& resp, int64_t latency_us);
  void ResetMeasurement();

  Options options_;
  EventLoop loop_;
  Rng rng_;
  ZipfDistribution object_zipf_;
  std::vector<Conn> conns_;
  std::deque<std::string> backlog_;  // open loop: targets awaiting a conn
  bool measuring_ = false;
  bool stop_issuing_ = false;

  LatencyHistogram latency_;
  Report report_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_NET_LOADGEN_H_
