// Admin-plane E2E: a single-process NodeHost serves the observability
// endpoints — /healthz, /metrics (Prometheus text exposition) and /statusz
// (JSON status document) — both on a dedicated AdminServer port and
// intercepted on the gateway's public port. Scrapes here use real sockets,
// like a prometheus scraper or tools/flowercdn_top.py would.

#include "net/node_host.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "expt/env.h"
#include "net/clock.h"
#include "net/http.h"

namespace flowercdn {
namespace {

ExperimentConfig ClusterConfig() {
  ExperimentConfig config;
  config.target_population = 12;
  config.catalog.num_websites = 2;
  config.catalog.num_active = 0;  // the gateway drives all traffic
  config.catalog.objects_per_website = 30;
  config.topology.num_localities = 2;
  config.churn_enabled = false;
  return config;
}

class AdminE2E : public ::testing::Test {
 protected:
  AdminE2E() : config_(ClusterConfig()), env_(config_) {
    NodeHost::Options options;
    options.transport = TransportKind::kInProcess;
    options.enable_gateway = true;
    options.enable_admin = true;
    options.client_join_spread = 10 * kSecond;
    host_ = std::make_unique<NodeHost>(&env_, config_.flower, options);
  }

  int Dial(uint16_t port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << strerror(errno);
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return fd;
  }

  /// One GET against `port`, pumping the host until the response lands.
  HttpResponse Scrape(uint16_t port, const std::string& target) {
    int fd = Dial(port);
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
      if (parser.Next(&resp)) {
        ::close(fd);
        return resp;
      }
      EXPECT_FALSE(parser.failed()) << parser.error();
    }
    ADD_FAILURE() << "no response for " << target << " on port " << port;
    ::close(fd);
    return resp;
  }

  ExperimentConfig config_;
  ExperimentEnv env_;
  std::unique_ptr<NodeHost> host_;
};

TEST_F(AdminE2E, HealthzOnBothPorts) {
  ASSERT_TRUE(host_->Setup());
  ASSERT_NE(host_->admin(), nullptr);
  ASSERT_GT(host_->admin()->port(), 0);
  env_.sim().RunUntil(2 * kMinute);

  HttpResponse via_admin = Scrape(host_->admin()->port(), "/healthz");
  EXPECT_EQ(via_admin.status, 200);
  EXPECT_EQ(via_admin.body, "ok\n");

  HttpResponse via_gateway = Scrape(host_->gateway()->port(), "/healthz");
  EXPECT_EQ(via_gateway.status, 200);
  EXPECT_EQ(via_gateway.body, "ok\n");
  EXPECT_GE(host_->admin_handler().requests(), 2u);
}

TEST_F(AdminE2E, MetricsExposesCountersGaugesAndSummaries) {
  ASSERT_TRUE(host_->Setup());
  env_.sim().RunUntil(2 * kMinute);

  HttpResponse resp = Scrape(host_->admin()->port(), "/metrics");
  EXPECT_EQ(resp.status, 200);
  const std::string* ctype = resp.Header("Content-Type");
  ASSERT_NE(ctype, nullptr);
  EXPECT_NE(ctype->find("version=0.0.4"), std::string::npos);

  // Schema-stable families: present even before any gateway traffic.
  EXPECT_NE(resp.body.find("# TYPE flowercdn_net_gateway_requests counter"),
            std::string::npos);
  EXPECT_NE(resp.body.find("flowercdn_net_host_hosted_peers 12"),
            std::string::npos);
  EXPECT_NE(resp.body.find("# TYPE flowercdn_eventloop_polls counter"),
            std::string::npos);
  EXPECT_NE(
      resp.body.find(
          "flowercdn_eventloop_poll_wait_seconds{quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(resp.body.find("flowercdn_gateway_request_seconds_count"),
            std::string::npos);
}

TEST_F(AdminE2E, MetricsCountersAreMonotoneAcrossScrapes) {
  ASSERT_TRUE(host_->Setup());
  env_.sim().RunUntil(2 * kMinute);

  // Drive one content request through the gateway between two scrapes.
  HttpResponse first = Scrape(host_->admin()->port(), "/metrics");
  HttpResponse obj = Scrape(host_->gateway()->port(), "/0/3");
  EXPECT_EQ(obj.status, 200);
  HttpResponse second = Scrape(host_->admin()->port(), "/metrics");

  auto value_of = [](const std::string& body, const std::string& name) {
    size_t pos = body.find("\n" + name + " ");
    EXPECT_NE(pos, std::string::npos) << name;
    if (pos == std::string::npos) return -1.0;
    return atof(body.c_str() + pos + 1 + name.size() + 1);
  };
  double before = value_of(first.body, "flowercdn_net_gateway_requests");
  double after = value_of(second.body, "flowercdn_net_gateway_requests");
  EXPECT_EQ(before, 0.0);
  EXPECT_EQ(after, 1.0);
  double lat_count =
      value_of(second.body, "flowercdn_gateway_request_seconds_count");
  EXPECT_GE(lat_count, 1.0);
}

TEST_F(AdminE2E, StatuszReportsHostAndEventLoopState) {
  ASSERT_TRUE(host_->Setup());
  env_.sim().RunUntil(2 * kMinute);

  HttpResponse resp = Scrape(host_->admin()->port(), "/statusz");
  EXPECT_EQ(resp.status, 200);
  const std::string* ctype = resp.Header("Content-Type");
  ASSERT_NE(ctype, nullptr);
  EXPECT_NE(ctype->find("application/json"), std::string::npos);

  EXPECT_NE(resp.body.find("\"rank\": 0"), std::string::npos);
  EXPECT_NE(resp.body.find("\"hosted_peers\": 12"), std::string::npos);
  EXPECT_NE(resp.body.find("\"transport\": \"in-process\""),
            std::string::npos);
  EXPECT_NE(resp.body.find("\"event_loop\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"polls\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"intervals\": []"), std::string::npos);
  // sim_time_ms reflects the simulated clock (2 minutes have passed).
  EXPECT_NE(resp.body.find("\"sim_time_ms\": "), std::string::npos);
}

TEST_F(AdminE2E, UnknownAdminPathIs404AndGatewayContentStillServes) {
  ASSERT_TRUE(host_->Setup());
  env_.sim().RunUntil(2 * kMinute);

  HttpResponse bogus = Scrape(host_->admin()->port(), "/not-an-endpoint");
  EXPECT_EQ(bogus.status, 404);

  // The gateway's content path is untouched by the admin interception.
  HttpResponse obj = Scrape(host_->gateway()->port(), "/0/3");
  EXPECT_EQ(obj.status, 200);
  ASSERT_NE(obj.Header("X-FlowerCDN-Source"), nullptr);
  EXPECT_EQ(env_.stats().Total("net.gateway.requests"), 1u);
}

}  // namespace
}  // namespace flowercdn
