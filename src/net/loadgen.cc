#include "net/loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "net/clock.h"
#include "util/logging.h"

namespace flowercdn {

namespace {

/// Open loop: arrivals past this many queued requests are dropped and
/// counted in Report::backlog_dropped.
constexpr size_t kMaxBacklog = 100000;

}  // namespace

// --- LoadGenerator ------------------------------------------------------------

LoadGenerator::LoadGenerator(Options options)
    : options_(std::move(options)),
      rng_(options_.seed),
      object_zipf_(static_cast<size_t>(
                       std::max(options_.objects_per_website, 1)),
                   options_.zipf_alpha) {
  FLOWERCDN_CHECK(!options_.targets.empty()) << "no gateway targets";
  FLOWERCDN_CHECK(options_.connections > 0);
}

std::string LoadGenerator::NextTarget() {
  uint32_t ws = static_cast<uint32_t>(
      rng_.NextBounded(static_cast<uint64_t>(
          std::max(options_.num_websites, 1))));
  uint32_t obj = static_cast<uint32_t>(object_zipf_.Sample(rng_));
  return "/" + std::to_string(ws) + "/" + std::to_string(obj);
}

void LoadGenerator::OpenConn(size_t idx) {
  Conn& c = conns_[idx];
  FLOWERCDN_CHECK(c.fd < 0);
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  FLOWERCDN_CHECK(fd >= 0) << "socket(): " << strerror(errno);
  int flags = ::fcntl(fd, F_GETFL, 0);
  FLOWERCDN_CHECK(flags >= 0 &&
                  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  const ClusterMember& target = options_.targets[c.target];
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(target.port);
  FLOWERCDN_CHECK(::inet_pton(AF_INET, target.host.c_str(),
                              &addr.sin_addr) == 1)
      << "bad target host " << target.host;
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    ++report_.connect_failures;
    return;  // Run() reopens dead connections on the next round
  }
  c.fd = fd;
  c.connecting = true;
  c.inflight = false;
  c.parser = HttpResponseParser();
  c.out.clear();
  c.out_offset = 0;
  loop_.Add(fd, EventLoop::kReadable | EventLoop::kWritable,
            [this, idx](uint32_t events) { OnEvent(idx, events); });
}

void LoadGenerator::CloseConn(size_t idx, bool reconnect) {
  Conn& c = conns_[idx];
  if (c.fd >= 0) {
    loop_.Remove(c.fd);
    ::close(c.fd);
    c.fd = -1;
  }
  c.connecting = false;
  c.inflight = false;
  if (reconnect && !stop_issuing_) OpenConn(idx);
}

void LoadGenerator::OnEvent(size_t idx, uint32_t events) {
  Conn& c = conns_[idx];
  if (c.fd < 0) return;
  if (c.connecting) {
    OnConnected(idx);
    return;
  }
  if ((events & EventLoop::kWritable) != 0) TryFlush(idx);
  if ((events & EventLoop::kReadable) != 0) OnReadable(idx);
}

void LoadGenerator::OnConnected(size_t idx) {
  Conn& c = conns_[idx];
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
  if (err != 0) {
    ++report_.connect_failures;
    CloseConn(idx, /*reconnect=*/true);
    return;
  }
  c.connecting = false;
  loop_.Update(c.fd, EventLoop::kReadable);
  MaybeIssue(idx);
}

void LoadGenerator::IssueOn(size_t idx) {
  Conn& c = conns_[idx];
  std::string target;
  if (!backlog_.empty()) {
    target = std::move(backlog_.front());
    backlog_.pop_front();
  } else {
    target = NextTarget();
  }
  c.out = BuildHttpRequest(target);
  c.out_offset = 0;
  c.inflight = true;
  c.sent_at_us = MonotonicMicros();
  ++report_.requests_sent;
  TryFlush(idx);
}

void LoadGenerator::MaybeIssue(size_t idx) {
  Conn& c = conns_[idx];
  if (c.fd < 0 || c.connecting || c.inflight || stop_issuing_) return;
  if (options_.open_loop_qps > 0 && backlog_.empty()) return;
  IssueOn(idx);
}

void LoadGenerator::TryFlush(size_t idx) {
  Conn& c = conns_[idx];
  while (c.out_offset < c.out.size()) {
    ssize_t n = ::write(c.fd, c.out.data() + c.out_offset,
                        c.out.size() - c.out_offset);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        loop_.Update(c.fd, EventLoop::kReadable | EventLoop::kWritable);
        return;
      }
      ++report_.connect_failures;
      CloseConn(idx, /*reconnect=*/true);
      return;
    }
    c.out_offset += static_cast<size_t>(n);
  }
  loop_.Update(c.fd, EventLoop::kReadable);
}

void LoadGenerator::CountResponse(const HttpResponse& resp,
                                  int64_t latency_us) {
  if (resp.status == 200) {
    ++report_.responses_ok;
    latency_.Record(static_cast<uint64_t>(std::max<int64_t>(latency_us, 0)));
    const std::string* source = resp.Header("X-FlowerCDN-Source");
    uint64_t bytes = resp.body.size();
    if (source != nullptr && *source == "petal") {
      ++report_.served_petal;
      report_.body_bytes_petal += bytes;
    } else if (source != nullptr && *source == "directory") {
      ++report_.served_directory;
      report_.body_bytes_directory += bytes;
    } else {
      ++report_.served_origin;
      report_.body_bytes_origin += bytes;
    }
  } else {
    ++report_.responses_error;
  }
}

void LoadGenerator::OnReadable(size_t idx) {
  Conn& c = conns_[idx];
  char buf[64 * 1024];
  while (true) {
    ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseConn(idx, /*reconnect=*/true);
      return;
    }
    if (n == 0) {
      CloseConn(idx, /*reconnect=*/true);
      return;
    }
    c.parser.Append(buf, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }

  HttpResponse resp;
  while (c.parser.Next(&resp)) {
    c.inflight = false;
    CountResponse(resp, MonotonicMicros() - c.sent_at_us);
    MaybeIssue(idx);
  }
  if (c.parser.failed()) {
    ++report_.parse_errors;
    CloseConn(idx, /*reconnect=*/true);
  }
}

void LoadGenerator::ResetMeasurement() {
  Report fresh;
  // Connection-level failures before the warmup line are start-up noise;
  // everything measured restarts here.
  report_ = fresh;
  latency_.Reset();
}

LoadGenerator::Report LoadGenerator::Run() {
  conns_.resize(options_.connections);
  for (size_t i = 0; i < conns_.size(); ++i) {
    conns_[i].target = i % options_.targets.size();
    OpenConn(i);
  }

  const int64_t start_us = MonotonicMicros();
  const int64_t warmup_end_us =
      start_us + static_cast<int64_t>(options_.warmup_s * 1e6);
  const int64_t end_us =
      warmup_end_us + static_cast<int64_t>(options_.duration_s * 1e6);
  int64_t measure_start_us = warmup_end_us;
  measuring_ = options_.warmup_s <= 0;

  // Open loop: fixed inter-arrival gap in microseconds.
  const bool open_loop = options_.open_loop_qps > 0;
  const int64_t gap_us =
      open_loop ? std::max<int64_t>(
                      static_cast<int64_t>(1e6 / options_.open_loop_qps), 1)
                : 0;
  int64_t next_arrival_us = start_us;

  while (true) {
    int64_t now_us = MonotonicMicros();
    if (now_us >= end_us) break;
    if (!measuring_ && now_us >= warmup_end_us) {
      measuring_ = true;
      measure_start_us = now_us;
      ResetMeasurement();
    }

    if (open_loop) {
      while (next_arrival_us <= now_us) {
        next_arrival_us += gap_us;
        if (backlog_.size() >= kMaxBacklog) {
          ++report_.backlog_dropped;
          continue;
        }
        backlog_.push_back(NextTarget());
      }
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i].fd < 0) OpenConn(i);
        if (backlog_.empty()) continue;
        MaybeIssue(i);
      }
    } else {
      // Closed loop: reopen any connection that died and keep one request
      // outstanding everywhere.
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i].fd < 0) OpenConn(i);
        MaybeIssue(i);
      }
    }

    int timeout_ms = 5;
    if (open_loop) {
      int64_t to_next = (next_arrival_us - MonotonicMicros()) / 1000;
      timeout_ms = static_cast<int>(std::clamp<int64_t>(to_next, 0, 5));
    }
    int64_t to_boundary_ms =
        ((measuring_ ? end_us : warmup_end_us) - MonotonicMicros()) / 1000;
    timeout_ms = static_cast<int>(
        std::clamp<int64_t>(to_boundary_ms, 0, timeout_ms));
    loop_.PollOnce(timeout_ms);
  }

  // Drain: let in-flight responses land, but issue nothing new.
  stop_issuing_ = true;
  const int64_t drain_end_us = MonotonicMicros() + 200 * 1000;
  while (MonotonicMicros() < drain_end_us) {
    bool any_inflight = false;
    for (const Conn& c : conns_) any_inflight |= c.inflight;
    if (!any_inflight) break;
    loop_.PollOnce(5);
  }
  const int64_t finish_us = MonotonicMicros();

  for (size_t i = 0; i < conns_.size(); ++i) {
    CloseConn(i, /*reconnect=*/false);
  }

  report_.duration_s =
      static_cast<double>(finish_us - measure_start_us) / 1e6;
  if (report_.duration_s > 0) {
    report_.qps = static_cast<double>(report_.responses_ok) /
                  report_.duration_s;
  }
  report_.p50_ms = static_cast<double>(latency_.QuantileMicros(0.50)) / 1000;
  report_.p90_ms = static_cast<double>(latency_.QuantileMicros(0.90)) / 1000;
  report_.p95_ms = static_cast<double>(latency_.QuantileMicros(0.95)) / 1000;
  report_.p99_ms = static_cast<double>(latency_.QuantileMicros(0.99)) / 1000;
  report_.mean_ms = latency_.mean_micros() / 1000;
  report_.max_ms = static_cast<double>(latency_.max_micros()) / 1000;
  return report_;
}

}  // namespace flowercdn
