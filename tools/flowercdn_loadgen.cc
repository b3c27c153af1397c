// flowercdn-loadgen — HTTP load generator for the cluster gateway
// (src/net/loadgen). Drives GET /<website>/<object> with uniform website
// choice and Zipf object popularity, closed loop by default or open loop
// at a fixed --qps, and reports throughput plus latency quantiles from a
// log-linear histogram. With --json-out the report is written as the
// `loadgen` record of BENCH_live.json (schema in EXPERIMENTS.md).

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "flags.h"
#include "net/loadgen.h"
#include "util/table_printer.h"

using namespace flowercdn;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --targets=H:P[,H:P...] [options]\n"
      "  --targets=...      gateway endpoints (required)\n"
      "  --connections=N    concurrent connections      (default 64)\n"
      "  --duration-s=S     measured seconds            (default 10)\n"
      "  --warmup-s=S       warmup before measuring     (default 0)\n"
      "  --qps=Q            open-loop arrival rate, 0 = closed loop\n"
      "  --seed=S           RNG seed                    (default 1)\n"
      "  --websites=W       request space websites      (default 2)\n"
      "  --objects=O        objects per website         (default 50)\n"
      "  --zipf=A           object popularity exponent  (default 0.8)\n"
      "  --json-out=PATH    write the report as JSON\n"
      "  --quiet            suppress the table\n",
      argv0);
}

bool WriteJson(const std::string& path, const LoadGenerator::Report& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(
      f,
      "{\n"
      "  \"duration_s\": %.3f,\n"
      "  \"requests_sent\": %llu,\n"
      "  \"responses_ok\": %llu,\n"
      "  \"responses_error\": %llu,\n"
      "  \"parse_errors\": %llu,\n"
      "  \"connect_failures\": %llu,\n"
      "  \"backlog_dropped\": %llu,\n"
      "  \"qps\": %.1f,\n"
      "  \"served_petal\": %llu,\n"
      "  \"served_directory\": %llu,\n"
      "  \"served_origin\": %llu,\n"
      "  \"body_bytes_petal\": %llu,\n"
      "  \"body_bytes_directory\": %llu,\n"
      "  \"body_bytes_origin\": %llu,\n"
      "  \"p50_ms\": %.3f,\n"
      "  \"p90_ms\": %.3f,\n"
      "  \"p95_ms\": %.3f,\n"
      "  \"p99_ms\": %.3f,\n"
      "  \"mean_ms\": %.3f,\n"
      "  \"max_ms\": %.3f\n"
      "}\n",
      r.duration_s, static_cast<unsigned long long>(r.requests_sent),
      static_cast<unsigned long long>(r.responses_ok),
      static_cast<unsigned long long>(r.responses_error),
      static_cast<unsigned long long>(r.parse_errors),
      static_cast<unsigned long long>(r.connect_failures),
      static_cast<unsigned long long>(r.backlog_dropped), r.qps,
      static_cast<unsigned long long>(r.served_petal),
      static_cast<unsigned long long>(r.served_directory),
      static_cast<unsigned long long>(r.served_origin),
      static_cast<unsigned long long>(r.body_bytes_petal),
      static_cast<unsigned long long>(r.body_bytes_directory),
      static_cast<unsigned long long>(r.body_bytes_origin), r.p50_ms,
      r.p90_ms, r.p95_ms, r.p99_ms, r.mean_ms, r.max_ms);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  LoadGenerator::Options options;
  options.num_websites = 2;
  options.objects_per_website = 50;
  std::string json_out;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    Flag flag{arg};
    if (flag.Is("--targets")) {
      options.targets = flag.HostPorts(1);
    } else if (flag.Is("--connections")) {
      options.connections = flag.Whole(1);
    } else if (flag.Is("--duration-s")) {
      options.duration_s = flag.Positive();
    } else if (flag.Is("--warmup-s")) {
      options.warmup_s = flag.Decimal(0);
    } else if (flag.Is("--qps")) {
      options.open_loop_qps = flag.Decimal(0);
    } else if (flag.Is("--seed")) {
      options.seed = flag.Whole(0, UINT64_MAX);
    } else if (flag.Is("--websites")) {
      options.num_websites = static_cast<int>(flag.Whole(1));
    } else if (flag.Is("--objects")) {
      options.objects_per_website = static_cast<int>(flag.Whole(1));
    } else if (flag.Is("--zipf")) {
      options.zipf_alpha = flag.Decimal(0);
    } else if (flag.Is("--json-out")) {
      json_out = flag.value;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (options.targets.empty()) {
    Usage(argv[0]);
    return 2;
  }

  LoadGenerator generator(options);
  LoadGenerator::Report report = generator.Run();

  if (!json_out.empty() && !WriteJson(json_out, report)) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_out.c_str());
    return 1;
  }

  if (!quiet) {
    TablePrinter table({"metric", "value"});
    table.AddRow({"duration s", FormatDouble(report.duration_s, 2)});
    table.AddRow({"requests sent", std::to_string(report.requests_sent)});
    table.AddRow({"responses ok", std::to_string(report.responses_ok)});
    table.AddRow({"responses error",
                  std::to_string(report.responses_error)});
    table.AddRow({"parse errors", std::to_string(report.parse_errors)});
    table.AddRow({"connect failures",
                  std::to_string(report.connect_failures)});
    table.AddRow({"backlog dropped",
                  std::to_string(report.backlog_dropped)});
    table.AddRow({"qps", FormatDouble(report.qps, 1)});
    table.AddRow({"served petal", std::to_string(report.served_petal)});
    table.AddRow({"served directory",
                  std::to_string(report.served_directory)});
    table.AddRow({"served origin", std::to_string(report.served_origin)});
    table.AddRow({"p50 ms", FormatDouble(report.p50_ms, 3)});
    table.AddRow({"p95 ms", FormatDouble(report.p95_ms, 3)});
    table.AddRow({"p99 ms", FormatDouble(report.p99_ms, 3)});
    table.AddRow({"max ms", FormatDouble(report.max_ms, 3)});
    table.Print(std::cout);
  }

  if (report.responses_ok == 0) {
    std::fprintf(stderr, "FAIL: no successful responses\n");
    return 1;
  }
  return 0;
}
