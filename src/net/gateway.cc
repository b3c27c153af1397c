#include "net/gateway.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "net/admin.h"
#include "net/clock.h"
#include "obs/stats.h"
#include "util/hash.h"
#include "util/logging.h"

namespace flowercdn {

namespace {

/// Parses a non-empty decimal segment; returns false on anything else.
bool ParseIndex(std::string_view s, uint32_t* out) {
  if (s.empty() || s.size() > 9) return false;
  uint32_t value = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + static_cast<uint32_t>(ch - '0');
  }
  *out = value;
  return true;
}

}  // namespace

Gateway::Gateway(EventLoop* loop, const WebsiteCatalog* catalog,
                 EntryPicker picker, Options options, StatsRegistry* stats)
    : loop_(loop),
      catalog_(catalog),
      picker_(std::move(picker)),
      options_(std::move(options)),
      stats_(stats) {
  FLOWERCDN_CHECK(stats != nullptr);
  requests_ = stats->counter("net.gateway.requests");
  responses_ = stats->counter("net.gateway.responses");
  bad_requests_ = stats->counter("net.gateway.bad_requests");
  unavailable_ = stats->counter("net.gateway.unavailable");
  served_petal_ = stats->counter("net.gateway.served_petal");
  served_directory_ = stats->counter("net.gateway.served_directory");
  served_origin_ = stats->counter("net.gateway.served_origin");
  body_bytes_petal_ = stats->counter("net.gateway.body_bytes_petal");
  body_bytes_directory_ = stats->counter("net.gateway.body_bytes_directory");
  body_bytes_origin_ = stats->counter("net.gateway.body_bytes_origin");
  slow_requests_ = stats->counter("net.gateway.slow_requests");
}

Gateway::~Gateway() { CloseAll(); }

size_t Gateway::ObjectBodyBytes(const ObjectId& id) {
  return 1024 + (Mix64(id.Packed()) & 0x3FFF);  // 1 KiB .. ~17 KiB
}

void Gateway::CloseAll() {
  for (auto& [id, conn] : conns_) {
    loop_->Remove(conn.fd);
    ::close(conn.fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    loop_->Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool Gateway::Listen() {
  FLOWERCDN_CHECK(listen_fd_ < 0) << "already listening";
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  FLOWERCDN_CHECK(fd >= 0) << "socket(): " << strerror(errno);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  int flags = ::fcntl(fd, F_GETFL, 0);
  FLOWERCDN_CHECK(flags >= 0 &&
                  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0)
      << "fcntl(): " << strerror(errno);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    FLOWERCDN_LOG(kWarning) << "gateway: bind(" << options_.host << ":"
                            << options_.port << "): " << strerror(errno);
    ::close(fd);
    return false;
  }
  FLOWERCDN_CHECK(::listen(fd, 512) == 0) << "listen(): " << strerror(errno);
  socklen_t len = sizeof(addr);
  FLOWERCDN_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                                &len) == 0)
      << "getsockname(): " << strerror(errno);
  port_ = ntohs(addr.sin_port);

  listen_fd_ = fd;
  loop_->Add(fd, EventLoop::kReadable, [this](uint32_t) { AcceptReady(); });
  return true;
}

void Gateway::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      FLOWERCDN_LOG(kWarning) << "gateway: accept(): " << strerror(errno);
      return;
    }
    if (conns_.size() >= options_.max_connections) {
      ::close(fd);  // shed load; the client sees a reset
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    loop_->Add(fd, EventLoop::kReadable, [this, id](uint32_t events) {
      if ((events & EventLoop::kWritable) != 0) TryFlush(id);
      if ((events & EventLoop::kReadable) != 0) OnReadable(id);
    });
  }
}

void Gateway::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  loop_->Remove(it->second.fd);
  ::close(it->second.fd);
  conns_.erase(it);
}

void Gateway::OnReadable(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  char buf[16 * 1024];
  while (true) {
    ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseConn(id);
      return;
    }
    if (n == 0) {
      CloseConn(id);
      return;
    }
    conn.parser.Append(buf, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }
  MaybeServeNext(id);
}

void Gateway::MaybeServeNext(uint64_t id) {
  // Serves the buffered (pipelined) requests in a loop. A synchronous
  // answer (admin, 404/405/503, petal hit) re-enters here through
  // Respond -> TryFlush; `serving` turns that re-entry into the next turn
  // of this loop, so stack depth stays constant however many requests one
  // connection has buffered. The loop pauses while a query is in flight or
  // a response is still unwritten; OnQueryDone and TryFlush resume it.
  auto it = conns_.find(id);
  if (it == conns_.end() || it->second.serving) return;
  it->second.serving = true;
  HttpRequest req;
  bool malformed = false;
  while (true) {
    Conn& conn = it->second;
    if (conn.busy || conn.close_after_write || !conn.out.empty()) break;
    if (!conn.parser.Next(&req)) {
      malformed = conn.parser.failed();
      break;
    }
    ServeRequest(id, req);
    it = conns_.find(id);
    if (it == conns_.end()) return;  // closed while answering
  }
  Conn& conn = it->second;
  conn.serving = false;
  if (malformed) {
    bad_requests_->Add();
    Respond(id, 400, "Bad Request", {}, conn.parser.error(),
            /*close_after=*/true);
  }
}

void Gateway::ServeRequest(uint64_t id, const HttpRequest& req) {
  // The admin plane rides the public port (no --admin-port configured):
  // intercept its paths before they are parsed as content targets. Admin
  // traffic is counted on its own, not as gateway requests.
  if (options_.admin != nullptr) {
    AdminHandler::Response admin_resp;
    if (options_.admin->Handle(req.target, &admin_resp)) {
      stats_->Add("net.admin.requests");
      Respond(id, admin_resp.status, admin_resp.reason,
              {{"Content-Type", admin_resp.content_type}}, admin_resp.body,
              /*close_after=*/false);
      return;
    }
  }

  requests_->Add();

  if (req.method != "GET") {
    bad_requests_->Add();
    Respond(id, 405, "Method Not Allowed", {}, "GET only",
            /*close_after=*/false);
    return;
  }
  // Target shape: /<website>/<object>, both decimal catalog indices.
  std::string_view target = req.target;
  ObjectId object;
  bool ok = !target.empty() && target.front() == '/';
  if (ok) {
    target.remove_prefix(1);
    size_t slash = target.find('/');
    ok = slash != std::string_view::npos &&
         ParseIndex(target.substr(0, slash), &object.website) &&
         ParseIndex(target.substr(slash + 1), &object.object) &&
         static_cast<int>(object.website) < catalog_->num_websites() &&
         static_cast<int>(object.object) < catalog_->objects_per_website();
  }
  if (!ok) {
    bad_requests_->Add();
    Respond(id, 404, "Not Found", {}, "expected /<website>/<object>",
            /*close_after=*/false);
    return;
  }

  FlowerPeer* entry = picker_(object.website, id);
  if (entry == nullptr) {
    unavailable_->Add();
    Respond(id, 503, "Service Unavailable", {},
            "no hosted peer for this website", /*close_after=*/false);
    return;
  }

  Conn& conn = conns_[id];
  conn.busy = true;
  conn.serve_start_us = MonotonicMicros();
  entry->QueryExternal(object, [this, id, object](bool hit,
                                                  ServedSource source,
                                                  double lookup_ms) {
    OnQueryDone(id, object, hit, source, lookup_ms);
  });
}

void Gateway::OnQueryDone(uint64_t id, const ObjectId& object, bool hit,
                          ServedSource source, double lookup_ms) {
  size_t body_bytes = ObjectBodyBytes(object);
  switch (source) {
    case ServedSource::kPetal:
      served_petal_->Add();
      body_bytes_petal_->Add(body_bytes);
      break;
    case ServedSource::kDirectory:
      served_directory_->Add();
      body_bytes_directory_->Add(body_bytes);
      break;
    case ServedSource::kOrigin:
      served_origin_->Add();
      body_bytes_origin_->Add(body_bytes);
      break;
  }

  auto it = conns_.find(id);
  if (it == conns_.end()) return;  // client went away mid-query
  it->second.busy = false;

  int64_t wall_us = MonotonicMicros() - it->second.serve_start_us;
  if (wall_us < 0) wall_us = 0;
  request_latency_.Record(static_cast<uint64_t>(wall_us));
  double wall_ms = static_cast<double>(wall_us) / 1000.0;
  if (options_.slow_request_ms > 0 && wall_ms >= options_.slow_request_ms) {
    slow_requests_->Add();
    FLOWERCDN_LOG(kWarning) << "gateway: slow request GET /" << object.website
                            << "/" << object.object << ": " << wall_ms
                            << " ms wall, source="
                            << ServedSourceName(source)
                            << " hit=" << (hit ? 1 : 0)
                            << " lookup_ms=" << lookup_ms;
  }

  char lookup[32];
  snprintf(lookup, sizeof(lookup), "%.1f", lookup_ms);
  std::string body(body_bytes, 'x');
  Respond(id, 200, "OK",
          {{"X-FlowerCDN-Source", ServedSourceName(source)},
           {"X-FlowerCDN-Hit", hit ? "1" : "0"},
           {"X-FlowerCDN-Lookup-Ms", lookup},
           {"Content-Type", "application/octet-stream"}},
          body, /*close_after=*/false);
}

void Gateway::Respond(uint64_t id, int status, const char* reason,
                      const std::vector<HttpHeader>& headers,
                      std::string_view body, bool close_after) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  conn.out.append(BuildHttpResponse(status, reason, headers, body));
  conn.close_after_write = conn.close_after_write || close_after;
  responses_->Add();
  TryFlush(id);
}

void Gateway::TryFlush(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  while (conn.out_offset < conn.out.size()) {
    ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_offset,
                        conn.out.size() - conn.out_offset);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseConn(id);
      return;
    }
    conn.out_offset += static_cast<size_t>(n);
  }
  if (conn.out_offset >= conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
    if (conn.close_after_write) {
      CloseConn(id);
      return;
    }
    if (conn.want_writable) {
      conn.want_writable = false;
      loop_->Update(conn.fd, EventLoop::kReadable);
    }
    // The parser may hold a pipelined request that arrived while busy.
    MaybeServeNext(id);
    return;
  }
  if (!conn.want_writable) {
    conn.want_writable = true;
    loop_->Update(conn.fd, EventLoop::kReadable | EventLoop::kWritable);
  }
}

}  // namespace flowercdn
