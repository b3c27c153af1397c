#include "net/tcp_transport.h"

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
#include "obs/stats.h"
#include "util/logging.h"
#include "wire/codec.h"
#include "util/result.h"

namespace flowercdn {

namespace {

int MakeNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) return -1;
  return 0;
}

bool FillAddr(const ClusterMember& member, sockaddr_in* addr) {
  memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(member.port);
  return ::inet_pton(AF_INET, member.host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

TcpTransport::TcpTransport(Network* network, EventLoop* loop, int self_rank,
                           std::vector<ClusterMember> members, OwnerFn owner,
                           Options options, StatsRegistry* stats)
    : network_(network),
      loop_(loop),
      self_rank_(self_rank),
      members_(std::move(members)),
      owner_(std::move(owner)),
      options_(options),
      stats_(stats) {
  FLOWERCDN_CHECK(self_rank_ >= 0 &&
                  static_cast<size_t>(self_rank_) < members_.size())
      << "self rank " << self_rank_ << " outside cluster of "
      << members_.size();
  FLOWERCDN_CHECK(stats != nullptr);
  FLOWERCDN_CHECK(options_.queue_low_watermark <=
                  options_.queue_high_watermark)
      << "watermarks inverted";
  FLOWERCDN_CHECK(options_.queue_high_watermark <= options_.queue_hard_cap)
      << "high watermark above the hard cap";
}

TcpTransport::~TcpTransport() { CloseAll(); }

void TcpTransport::CloseAll() {
  for (auto& [rank, conn] : outbound_) {
    if (conn.fd >= 0) {
      loop_->Remove(conn.fd);
      ::close(conn.fd);
      conn.fd = -1;
    }
    conn.state = OutConn::State::kIdle;
  }
  for (auto& [fd, conn] : inbound_) {
    loop_->Remove(fd);
    ::close(fd);
  }
  inbound_.clear();
  if (listen_fd_ >= 0) {
    loop_->Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

// --- Listening / inbound ------------------------------------------------------

bool TcpTransport::Listen() {
  FLOWERCDN_CHECK(listen_fd_ < 0) << "already listening";
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  FLOWERCDN_CHECK(fd >= 0) << "socket(): " << strerror(errno);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  FLOWERCDN_CHECK(MakeNonBlocking(fd) == 0) << "fcntl(): " << strerror(errno);

  sockaddr_in addr;
  FLOWERCDN_CHECK(FillAddr(members_[self_rank_], &addr))
      << "bad listen host " << members_[self_rank_].host;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    FLOWERCDN_LOG(kWarning) << "tcp: bind(" << members_[self_rank_].host
                            << ":" << members_[self_rank_].port
                            << "): " << strerror(errno);
    ::close(fd);
    return false;
  }
  FLOWERCDN_CHECK(::listen(fd, 256) == 0) << "listen(): " << strerror(errno);

  socklen_t len = sizeof(addr);
  FLOWERCDN_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                                &len) == 0)
      << "getsockname(): " << strerror(errno);
  listen_port_ = ntohs(addr.sin_port);
  members_[self_rank_].port = listen_port_;

  listen_fd_ = fd;
  loop_->Add(fd, EventLoop::kReadable, [this](uint32_t) { AcceptReady(); });
  return true;
}

void TcpTransport::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      FLOWERCDN_LOG(kWarning) << "tcp: accept(): " << strerror(errno);
      return;
    }
    if (inbound_.size() >= options_.max_accepted) EvictOldestInbound();
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto [it, inserted] =
        inbound_.emplace(fd, InConn(options_.max_frame_payload));
    FLOWERCDN_CHECK(inserted);
    it->second.fd = fd;
    it->second.last_activity = ++use_clock_;
    loop_->Add(fd, EventLoop::kReadable,
               [this, fd](uint32_t) { ReadInbound(fd); });
  }
}

void TcpTransport::EvictOldestInbound() {
  auto victim = inbound_.end();
  for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
    if (victim == inbound_.end() ||
        it->second.last_activity < victim->second.last_activity) {
      victim = it;
    }
  }
  if (victim == inbound_.end()) return;
  stats_->Add("net.tcp.accepted_evicted");
  CloseInbound(victim->first);
}

void TcpTransport::CloseInbound(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  loop_->Remove(fd);
  ::close(fd);
  inbound_.erase(it);
}

void TcpTransport::ReadInbound(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  InConn& conn = it->second;
  conn.last_activity = ++use_clock_;

  uint8_t buf[64 * 1024];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseInbound(fd);
      return;
    }
    if (n == 0) {  // peer closed (its outbound side went away)
      CloseInbound(fd);
      return;
    }
    bytes_received_ += static_cast<uint64_t>(n);
    conn.assembler.Append(buf, static_cast<size_t>(n));

    FrameAssembler::Frame frame;
    while (conn.assembler.Next(&frame)) {
      Result<MessagePtr> decoded =
          WireDecode(frame.payload.data(), frame.payload.size());
      if (!decoded.ok()) {
        stats_->Add("net.tcp.decode_errors");
        FLOWERCDN_LOG(kWarning) << "tcp: undecodable frame payload ("
                                << frame.payload.size() << " bytes): "
                                << decoded.status().ToString()
                                << "; closing stream";
        CloseInbound(fd);
        return;
      }
      ++frames_received_;
      MessagePtr msg = std::move(decoded).value();
      msg->trace = frame.header.trace;  // restore cross-rank trace context
      PeerId dst = msg->dst;
      network_->DeliverFromTransport(dst, frame.header.latency,
                                     static_cast<size_t>(
                                         frame.header.accounted_bytes),
                                     std::move(msg));
    }
    if (conn.assembler.failed()) {
      stats_->Add("net.tcp.decode_errors");
      FLOWERCDN_LOG(kWarning) << "tcp: corrupt frame stream: "
                              << conn.assembler.error()
                              << "; closing stream";
      CloseInbound(fd);
      return;
    }
    if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained
  }
}

// --- Outbound -----------------------------------------------------------------

TcpTransport::OutConn& TcpTransport::Out(int rank) {
  return outbound_[rank];  // value-initialized kIdle on first use
}

void TcpTransport::SetQueueBytes(OutConn& c, size_t bytes) {
  queued_bytes_total_ -= c.queue_bytes;
  c.queue_bytes = bytes;
  queued_bytes_total_ += bytes;
  peak_queued_bytes_ = std::max(peak_queued_bytes_, queued_bytes_total_);
  if (!c.backpressured && bytes > options_.queue_high_watermark) {
    c.backpressured = true;
    stats_->Add("net.tcp.backpressure_events");
  } else if (c.backpressured && bytes <= options_.queue_low_watermark) {
    c.backpressured = false;
  }
}

void TcpTransport::Carry(PeerId src, PeerId dst, SimDuration latency,
                         size_t accounted_bytes, MessagePtr msg) {
  (void)src;
  int owner = owner_(dst);
  if (owner == self_rank_) {
    // Locally-hosted destination: no socket hop, straight back into the
    // simulator (same as the in-process backend).
    network_->DeliverFromTransport(dst, latency, accounted_bytes,
                                   std::move(msg));
    return;
  }
  FLOWERCDN_CHECK(owner >= 0 && static_cast<size_t>(owner) < members_.size())
      << "owner rank " << owner << " outside cluster";

  frame_.clear();
  EncodeFrame(*msg, accounted_bytes, latency, msg->trace, &frame_);

  OutConn& c = Out(owner);
  if (c.queue_bytes + frame_.size() > options_.queue_hard_cap) {
    stats_->Add("net.tcp.frames_dropped");
    network_->NoteTransportDrop(*msg, accounted_bytes);
    return;
  }
  c.queue.emplace_back(frame_);
  SetQueueBytes(c, c.queue_bytes + frame_.size());

  switch (c.state) {
    case OutConn::State::kIdle:
      StartConnect(owner);
      break;
    case OutConn::State::kConnected:
      TryFlush(owner);
      break;
    case OutConn::State::kConnecting:
    case OutConn::State::kBackoff:
      break;  // queued; flushes when the dial completes / retries
  }
}

void TcpTransport::StartConnect(int rank) {
  OutConn& c = Out(rank);
  FLOWERCDN_CHECK(c.fd < 0) << "connect with live fd";
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  FLOWERCDN_CHECK(fd >= 0) << "socket(): " << strerror(errno);
  FLOWERCDN_CHECK(MakeNonBlocking(fd) == 0) << "fcntl(): " << strerror(errno);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr;
  FLOWERCDN_CHECK(FillAddr(members_[static_cast<size_t>(rank)], &addr))
      << "bad member host " << members_[static_cast<size_t>(rank)].host;
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    int err = errno;  // close() below may clobber errno
    ::close(fd);
    Disconnect(rank, strerror(err));
    return;
  }
  c.fd = fd;
  c.state = OutConn::State::kConnecting;
  c.want_writable = true;
  loop_->Add(fd, EventLoop::kReadable | EventLoop::kWritable,
             [this, rank](uint32_t events) {
               OutConn& conn = Out(rank);
               if (conn.state == OutConn::State::kConnecting) {
                 HandleConnectResult(rank);
                 return;
               }
               if ((events & EventLoop::kReadable) != 0) {
                 HandleOutReadable(rank);
               }
               if ((events & EventLoop::kWritable) != 0 &&
                   conn.state == OutConn::State::kConnected) {
                 TryFlush(rank);
               }
             });
}

void TcpTransport::HandleConnectResult(int rank) {
  OutConn& c = Out(rank);
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    err = errno;
  }
  if (err != 0) {
    Disconnect(rank, strerror(err));
    return;
  }
  c.state = OutConn::State::kConnected;
  if (c.backoff_ms > 0) {
    stats_->Add("net.tcp.reconnects");
  }
  c.backoff_ms = 0;
  TryFlush(rank);
}

void TcpTransport::HandleOutReadable(int rank) {
  // Outbound connections are write-only; readability means EOF or error
  // (the remote never sends on our dialed stream).
  OutConn& c = Out(rank);
  uint8_t buf[256];
  ssize_t n = ::read(c.fd, buf, sizeof(buf));
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  Disconnect(rank, n > 0 ? "unexpected inbound data"
                         : (n == 0 ? "peer closed" : strerror(errno)));
}

void TcpTransport::Disconnect(int rank, const char* why) {
  OutConn& c = Out(rank);
  if (c.fd >= 0) {
    loop_->Remove(c.fd);
    ::close(c.fd);
    c.fd = -1;
  }
  if (c.state == OutConn::State::kConnected) {
    stats_->Add("net.tcp.conn_drops");
  } else {
    stats_->Add("net.tcp.connect_failures");
  }
  // A partially-written front frame cannot be resumed mid-stream; the
  // fresh connection is a fresh stream, so resend it from the top.
  c.first_offset = 0;
  c.want_writable = false;
  c.state = OutConn::State::kBackoff;
  c.backoff_ms = c.backoff_ms == 0
                     ? options_.reconnect_initial_ms
                     : std::min(c.backoff_ms * 2, options_.reconnect_max_ms);
  c.next_attempt_ms = MonotonicMillis() + c.backoff_ms;
  FLOWERCDN_LOG(kInfo) << "tcp: rank " << rank << " unreachable (" << why
                       << "); retry in " << c.backoff_ms << " ms, "
                       << c.queue_bytes << " bytes queued";
}

void TcpTransport::TryFlush(int rank) {
  OutConn& c = Out(rank);
  while (!c.queue.empty()) {
    const std::vector<uint8_t>& front = c.queue.front();
    ssize_t n = ::write(c.fd, front.data() + c.first_offset,
                        front.size() - c.first_offset);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      Disconnect(rank, strerror(errno));
      return;
    }
    bytes_sent_ += static_cast<uint64_t>(n);
    c.first_offset += static_cast<size_t>(n);
    SetQueueBytes(c, c.queue_bytes - static_cast<size_t>(n));
    if (c.first_offset == front.size()) {
      ++frames_sent_;
      c.queue.pop_front();
      c.first_offset = 0;
    }
  }
  bool want = !c.queue.empty();
  if (want != c.want_writable) {
    c.want_writable = want;
    loop_->Update(c.fd, EventLoop::kReadable |
                            (want ? EventLoop::kWritable : 0u));
  }
}

int TcpTransport::Tick() {
  int64_t now = MonotonicMillis();
  int next = -1;
  for (auto& [rank, c] : outbound_) {
    if (c.state != OutConn::State::kBackoff) continue;
    if (c.next_attempt_ms <= now) {
      c.state = OutConn::State::kIdle;
      StartConnect(rank);
      // StartConnect may fail synchronously and re-enter kBackoff with a
      // fresh deadline; fall through to pick it up below.
    }
    if (c.state == OutConn::State::kBackoff) {
      int delay = static_cast<int>(c.next_attempt_ms - now);
      if (delay < 0) delay = 0;
      next = next < 0 ? delay : std::min(next, delay);
    }
  }
  return next;
}

size_t TcpTransport::connected_ranks() const {
  size_t n = 0;
  for (const auto& [rank, c] : outbound_) {
    if (c.state == OutConn::State::kConnected) ++n;
  }
  return n;
}

void TcpTransport::ExportGauges() {
  stats_->Set("net.tcp.queued_bytes", static_cast<double>(queued_bytes_total_));
  stats_->Set("net.tcp.peak_queued_bytes",
              static_cast<double>(peak_queued_bytes_));
  stats_->Set("net.tcp.out_connected", static_cast<double>(connected_ranks()));
  stats_->Set("net.tcp.accepted", static_cast<double>(inbound_.size()));
  // Per-connection write-queue depth: one gauge per remote rank this
  // process has ever dialed (queue depth is the earliest backpressure
  // signal — a single slow peer shows up here long before the aggregate).
  char name[64];
  for (const auto& [rank, conn] : outbound_) {
    snprintf(name, sizeof(name), "net.tcp.out_queue_bytes.rank%d", rank);
    stats_->Set(name, static_cast<double>(conn.queue_bytes));
  }
}

}  // namespace flowercdn
