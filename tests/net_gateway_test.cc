// End-to-end gateway test: a single-process NodeHost (in-process message
// delivery, real HTTP sockets) serves GET /<website>/<object> through a
// hosted Flower-CDN peer. A cold object resolves through the overlay
// (directory or origin); once the entry peer's store holds it, the same
// request is a synchronous petal hit with zero lookup latency.

#include "net/node_host.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <string>

#include "expt/env.h"
#include "net/clock.h"
#include "net/gateway.h"
#include "net/http.h"

namespace flowercdn {
namespace {

ExperimentConfig ClusterConfig() {
  ExperimentConfig config;
  config.target_population = 12;
  config.catalog.num_websites = 2;
  // Cluster profile: nobody self-queries; the gateway drives all traffic.
  config.catalog.num_active = 0;
  config.catalog.objects_per_website = 30;
  config.topology.num_localities = 2;
  config.churn_enabled = false;
  config.wire_mode = WireMode::kEncoded;
  return config;
}

/// Runs `fn` to completion on a thread with a `stack_bytes` stack, so code
/// whose stack depth grows with its input overflows at test scale.
void RunOnSmallStack(size_t stack_bytes, std::function<void()> fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* arg) -> void* {
                  (*static_cast<std::function<void()>*>(arg))();
                  return nullptr;
                },
                &fn),
            0);
  pthread_attr_destroy(&attr);
  pthread_join(thread, nullptr);
}

class GatewayE2E : public ::testing::Test {
 protected:
  GatewayE2E() : config_(ClusterConfig()), env_(config_) {
    NodeHost::Options options;
    options.transport = TransportKind::kInProcess;
    options.enable_gateway = true;
    options.client_join_spread = 10 * kSecond;
    host_ = std::make_unique<NodeHost>(&env_, config_.flower, options);
  }

  /// Connects a blocking client socket to the gateway.
  int Dial() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(host_->gateway()->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << strerror(errno);
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return fd;
  }

  /// Sends one GET and pumps the host (sockets + simulated time) until the
  /// response arrives. Sim time advances in small chunks so protocol RPCs
  /// (directory lookup, origin fetch) can run to completion.
  HttpResponse Fetch(int fd, const std::string& target) {
    std::string req = BuildHttpRequest(target);
    EXPECT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    HttpResponseParser parser;
    HttpResponse resp;
    int64_t end = MonotonicMillis() + 10000;
    while (MonotonicMillis() < end) {
      host_->loop().PollOnce(0);
      env_.sim().RunUntil(env_.sim().now() + 100 * kMillisecond);
      char buf[16 * 1024];
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) parser.Append(buf, static_cast<size_t>(n));
      if (parser.Next(&resp)) return resp;
      EXPECT_FALSE(parser.failed()) << parser.error();
    }
    ADD_FAILURE() << "no response for " << target;
    return resp;
  }

  ExperimentConfig config_;
  ExperimentEnv env_;
  std::unique_ptr<NodeHost> host_;
};

TEST_F(GatewayE2E, ServesObjectThenHitsPetalOnRepeat) {
  ASSERT_TRUE(host_->Setup());
  ASSERT_NE(host_->gateway(), nullptr);
  ASSERT_GT(host_->gateway()->port(), 0);
  // Let the D-ring assemble and all clients join their petals.
  env_.sim().RunUntil(2 * kMinute);
  ASSERT_EQ(host_->hosted_peers(), 12u);

  int fd = Dial();

  HttpResponse first = Fetch(fd, "/0/3");
  EXPECT_EQ(first.status, 200);
  ASSERT_NE(first.Header("X-FlowerCDN-Source"), nullptr);
  // Cold store: the object came from the overlay or the origin, and the
  // body length is the deterministic synthetic size.
  ObjectId object;
  object.website = 0;
  object.object = 3;
  EXPECT_EQ(first.body.size(), Gateway::ObjectBodyBytes(object));

  // The entry peer stored the object while serving; the repeat is a petal
  // hit answered synchronously from its summary/store.
  HttpResponse second = Fetch(fd, "/0/3");
  EXPECT_EQ(second.status, 200);
  ASSERT_NE(second.Header("X-FlowerCDN-Source"), nullptr);
  EXPECT_EQ(*second.Header("X-FlowerCDN-Source"), "petal");
  ASSERT_NE(second.Header("X-FlowerCDN-Hit"), nullptr);
  EXPECT_EQ(*second.Header("X-FlowerCDN-Hit"), "1");
  EXPECT_EQ(second.body.size(), first.body.size());

  const StatsRegistry& stats = env_.stats();
  EXPECT_EQ(stats.Total("net.gateway.requests"), 2u);
  EXPECT_EQ(stats.Total("net.gateway.responses"), 2u);
  EXPECT_GE(stats.Total("net.gateway.served_petal"), 1u);
  EXPECT_GT(stats.Total("net.gateway.body_bytes_petal"), 0u);
  ::close(fd);
}

TEST_F(GatewayE2E, RejectsUnknownObjectAndBadRequest) {
  ASSERT_TRUE(host_->Setup());
  env_.sim().RunUntil(2 * kMinute);

  int fd = Dial();
  // Website 9 is outside the 2-website catalog.
  HttpResponse resp = Fetch(fd, "/9/0");
  EXPECT_EQ(resp.status, 404);
  // The connection stays usable after a 404.
  resp = Fetch(fd, "/not-a-number");
  EXPECT_EQ(resp.status, 404);
  ::close(fd);

  EXPECT_EQ(env_.stats().Total("net.gateway.bad_requests"), 2u);
}

TEST_F(GatewayE2E, PipelinedRequestsAreServedInOrder) {
  ASSERT_TRUE(host_->Setup());
  env_.sim().RunUntil(2 * kMinute);

  int fd = Dial();
  std::string burst = BuildHttpRequest("/0/1") + BuildHttpRequest("/1/2") +
                      BuildHttpRequest("/0/1");
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));

  HttpResponseParser parser;
  int got = 0;
  int64_t end = MonotonicMillis() + 15000;
  while (got < 3 && MonotonicMillis() < end) {
    host_->loop().PollOnce(0);
    env_.sim().RunUntil(env_.sim().now() + 100 * kMillisecond);
    char buf[16 * 1024];
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) parser.Append(buf, static_cast<size_t>(n));
    HttpResponse resp;
    while (parser.Next(&resp)) {
      EXPECT_EQ(resp.status, 200);
      ++got;
    }
    ASSERT_FALSE(parser.failed()) << parser.error();
  }
  EXPECT_EQ(got, 3);
  ::close(fd);
}

// Thousands of synchronously answered requests pipelined in one write():
// the gateway must serve them iteratively and answer every one, in order.
// A recursive serve loop grows the stack with every buffered request (and
// crashed live ranks under load); serving on a 256 KiB stack makes that
// failure show at test scale.
TEST_F(GatewayE2E, ThousandsOfPipelinedSynchronousRequests) {
  ASSERT_TRUE(host_->Setup());
  env_.sim().RunUntil(2 * kMinute);

  // Alternate a 404 (website outside the catalog) with an admin /healthz
  // 200, so the status sequence proves response order.
  constexpr int kRequests = 4000;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += BuildHttpRequest(i % 2 == 0 ? "/9/0" : "/healthz");
  }
  int fd = Dial();
  HttpResponseParser parser;
  int got = 0;
  RunOnSmallStack(256 * 1024, [&] {
    size_t written = 0;
    const int64_t end = MonotonicMillis() + 30000;
    while (got < kRequests && MonotonicMillis() < end) {
      if (written < burst.size()) {
        ssize_t n =
            ::write(fd, burst.data() + written, burst.size() - written);
        if (n > 0) written += static_cast<size_t>(n);
      }
      host_->loop().PollOnce(0);
      char buf[16 * 1024];
      ssize_t n;
      while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
        parser.Append(buf, static_cast<size_t>(n));
      }
      HttpResponse resp;
      while (parser.Next(&resp)) {
        ASSERT_EQ(resp.status, got % 2 == 0 ? 404 : 200)
            << "response " << got;
        ++got;
      }
      ASSERT_FALSE(parser.failed()) << parser.error();
    }
  });
  EXPECT_EQ(got, kRequests);
  EXPECT_EQ(env_.stats().Total("net.gateway.bad_requests"),
            static_cast<uint64_t>(kRequests / 2));
  ::close(fd);
}

}  // namespace
}  // namespace flowercdn
