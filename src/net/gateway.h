#ifndef FLOWERCDN_NET_GATEWAY_H_
#define FLOWERCDN_NET_GATEWAY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "flower/flower_peer.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "obs/latency_histogram.h"
#include "storage/object_id.h"
#include "storage/website.h"

namespace flowercdn {

class AdminHandler;
class StatsCounter;
class StatsRegistry;

/// HTTP/1.1 front door of a cluster node: `GET /<website>/<object>` is
/// resolved through a hosted Flower-CDN peer (FlowerPeer::QueryExternal) —
/// petal summary hit, directory-routed lookup, or origin fallback — and
/// answered with a synthetic object body plus headers saying where the
/// bytes came from:
///
///     X-FlowerCDN-Source: petal | directory | origin
///     X-FlowerCDN-Hit:    1 | 0          (served from the overlay?)
///     X-FlowerCDN-Lookup-Ms: <sim ms>    (simulated lookup latency)
///
/// Connections are keep-alive; requests on one connection are served in
/// order (a parsed request waits until the previous response is written).
/// Object bodies are deterministic filler of ObjectBodyBytes() length, so
/// the petal-vs-origin byte split is reproducible across runs.
class Gateway {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = kernel-picked (see port())
    size_t max_connections = 4096;
    /// Non-null: /metrics, /statusz and /healthz on this port are answered
    /// by the admin handler instead of the content path (non-owning).
    AdminHandler* admin = nullptr;
    /// > 0: any request whose wall-clock service time reaches this many
    /// milliseconds is logged with its hit source and lookup latency.
    double slow_request_ms = 0;
  };

  /// Picks a hosted entry peer interested in `website` (salt spreads the
  /// load across candidates). Returning nullptr yields a 503.
  using EntryPicker = std::function<FlowerPeer*(WebsiteId, uint64_t salt)>;

  /// Requests, responses, served sources and body bytes are counted in
  /// `stats` as net.gateway.* (required).
  Gateway(EventLoop* loop, const WebsiteCatalog* catalog, EntryPicker picker,
          Options options, StatsRegistry* stats);
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;
  ~Gateway();

  bool Listen();
  uint16_t port() const { return port_; }
  void CloseAll();

  /// Deterministic synthetic body size of an object: 1–17 KiB, hashed from
  /// the id so repeated fetches agree everywhere.
  static size_t ObjectBodyBytes(const ObjectId& id);

  size_t open_connections() const { return conns_.size(); }
  /// Wall-clock latency of every query-served request (request parsed →
  /// response queued), including the event-loop and overlay time.
  const LatencyHistogram& request_latency() const { return request_latency_; }

 private:
  struct Conn {
    int fd = -1;
    HttpRequestParser parser;
    std::string out;        // response bytes not yet written
    size_t out_offset = 0;
    bool busy = false;      // a query is in flight for this connection
    bool serving = false;   // MaybeServeNext's loop is running
    bool want_writable = false;
    bool close_after_write = false;
    int64_t serve_start_us = 0;  // wall clock when the query was submitted
  };

  void AcceptReady();
  void OnReadable(uint64_t id);
  void MaybeServeNext(uint64_t id);
  void ServeRequest(uint64_t id, const HttpRequest& req);
  void OnQueryDone(uint64_t id, const ObjectId& object, bool hit,
                   ServedSource source, double lookup_ms);
  void Respond(uint64_t id, int status, const char* reason,
               const std::vector<HttpHeader>& headers, std::string_view body,
               bool close_after);
  void TryFlush(uint64_t id);
  void CloseConn(uint64_t id);

  EventLoop* loop_;
  const WebsiteCatalog* catalog_;
  EntryPicker picker_;
  Options options_;
  StatsRegistry* stats_;
  // The net.gateway.* counters, looked up once: they count every request.
  StatsCounter* requests_;
  StatsCounter* responses_;
  StatsCounter* bad_requests_;
  StatsCounter* unavailable_;  // 503: no hosted entry peer
  StatsCounter* served_petal_;
  StatsCounter* served_directory_;
  StatsCounter* served_origin_;
  StatsCounter* body_bytes_petal_;
  StatsCounter* body_bytes_directory_;
  StatsCounter* body_bytes_origin_;
  StatsCounter* slow_requests_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, Conn> conns_;
  LatencyHistogram request_latency_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_NET_GATEWAY_H_
