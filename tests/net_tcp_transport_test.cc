// Live-socket tests of the TCP cluster transport: two transports on
// 127.0.0.1 carry real frames between two independent simulation stacks,
// reconnect after a torn listener, cap and evict their accepted pool, and
// tear down streams whose frames are corrupt or oversized.

#include "net/tcp_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <vector>

#include "chord/messages.h"
#include "net/clock.h"
#include "net/event_loop.h"
#include "obs/stats.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/random.h"
#include "wire/frame.h"

namespace flowercdn {
namespace {

class RecorderNode : public SimNode {
 public:
  void HandleMessage(MessagePtr msg) override {
    received.push_back(std::move(msg));
  }
  std::vector<MessagePtr> received;
};

/// One rank's full stack: simulator, topology, network, loop, transport.
struct Rank {
  explicit Rank(int self, std::vector<ClusterMember> members,
                TcpTransport::Options options = TcpTransport::Options())
      : topology(Topology::Params{}), network(&sim, &topology) {
    Rng rng(1);
    // The shared identity universe: peer 1 lives on rank 0, peer 2 on
    // rank 1 (pure function, identical on both sides).
    network.RegisterIdentity(1, topology.PlaceInLocality(0, rng));
    network.RegisterIdentity(2, topology.PlaceInLocality(1, rng));
    transport = std::make_unique<TcpTransport>(
        &network, &loop, self, std::move(members),
        [](PeerId peer) { return peer == 1 ? 0 : 1; }, options, &stats);
    network.SetTransport(transport.get());
  }

  Simulator sim;
  StatsRegistry stats{[this] { return sim.now(); }};
  Topology topology;
  Network network;
  EventLoop loop;
  std::unique_ptr<TcpTransport> transport;
};

/// Pumps both ranks' loops and timers until `done` or the wall deadline.
template <typename Pred>
bool PumpUntil(Rank* a, Rank* b, Pred done, int64_t deadline_ms = 5000) {
  int64_t end = MonotonicMillis() + deadline_ms;
  while (MonotonicMillis() < end) {
    if (done()) return true;
    a->loop.PollOnce(2);
    a->transport->Tick();
    a->sim.Run();
    if (b != nullptr) {
      b->loop.PollOnce(2);
      b->transport->Tick();
      b->sim.Run();
    }
  }
  return done();
}

MessagePtr Ping(uint64_t rpc_id) {
  auto msg = std::make_unique<ChordPingMsg>();
  msg->rpc_id = rpc_id;
  return msg;
}

TEST(NetTcpTransportTest, CarriesFramesBetweenRanks) {
  // Bring up rank 1 first on a kernel-picked port, then tell rank 0 the
  // real address — the same two-phase dance a launcher script does.
  std::vector<ClusterMember> members(2);
  Rank b(1, members);
  ASSERT_TRUE(b.transport->Listen());
  members[1].port = b.transport->listen_port();
  Rank a(0, members);
  ASSERT_TRUE(a.transport->Listen());

  RecorderNode node1, node2;
  b.network.Attach(2, &node2);
  a.network.Attach(1, &node1);  // sender must be alive

  for (uint64_t i = 1; i <= 5; ++i) {
    a.network.Send(1, 2, Ping(i));
  }
  ASSERT_TRUE(PumpUntil(&a, &b, [&] { return node2.received.size() >= 5; }));
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(node2.received[i]->rpc_id, i + 1);
    EXPECT_EQ(node2.received[i]->src, 1u);
    EXPECT_EQ(node2.received[i]->dst, 2u);
  }
  EXPECT_EQ(a.transport->frames_sent(), 5u);
  EXPECT_EQ(b.transport->frames_received(), 5u);
  EXPECT_EQ(b.stats.Total("net.tcp.decode_errors"), 0u);
}

TEST(NetTcpTransportTest, LocalDestinationShortCircuits) {
  std::vector<ClusterMember> members(2);
  Rank a(0, members);
  ASSERT_TRUE(a.transport->Listen());
  RecorderNode node1;
  a.network.Attach(1, &node1);
  a.network.Send(1, 1, Ping(9));
  a.sim.Run();
  ASSERT_EQ(node1.received.size(), 1u);
  EXPECT_EQ(a.transport->frames_sent(), 0u);  // never touched a socket
}

TEST(NetTcpTransportTest, ReconnectsAfterPeerRestart) {
  std::vector<ClusterMember> members(2);
  Rank b1(1, members);
  ASSERT_TRUE(b1.transport->Listen());
  members[1].port = b1.transport->listen_port();
  Rank a(0, members);
  ASSERT_TRUE(a.transport->Listen());
  RecorderNode node1, node2;
  a.network.Attach(1, &node1);

  b1.network.Attach(2, &node2);
  a.network.Send(1, 2, Ping(1));
  ASSERT_TRUE(PumpUntil(&a, &b1, [&] { return node2.received.size() >= 1; }));

  // Rank 1 "crashes": its listener and accepted streams close. The
  // transport must notice (EOF on the dialed stream), enter backoff, keep
  // later frames queued, and redial once a new incarnation listens on the
  // same port. (A frame flushed into the kernel before the crash is
  // noticed is lost, like on any real TCP stream — the sender's RPC
  // timeout is the recovery path — so the queued-frame guarantee is only
  // tested from the moment the disconnect is detected.)
  uint16_t port = b1.transport->listen_port();
  b1.transport->CloseAll();
  ASSERT_TRUE(PumpUntil(&a, nullptr, [&] {
    return a.stats.Total("net.tcp.connect_failures") > 0;
  }));

  a.network.Send(1, 2, Ping(2));  // queued: rank 1 is down

  std::vector<ClusterMember> members2(2);
  members2[1].port = port;
  Rank b2(1, members2);
  ASSERT_TRUE(b2.transport->Listen());
  RecorderNode node2b;
  b2.network.Attach(2, &node2b);

  a.network.Send(1, 2, Ping(3));
  ASSERT_TRUE(PumpUntil(&a, &b2, [&] { return node2b.received.size() >= 2; }));
  // Both the queued-while-down message and the later one arrive, in order.
  EXPECT_EQ(node2b.received[0]->rpc_id, 2u);
  EXPECT_EQ(node2b.received[1]->rpc_id, 3u);
  EXPECT_GE(a.stats.Total("net.tcp.reconnects"), 1u);
}

int DialBlocking(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << strerror(errno);
  return fd;
}

TEST(NetTcpTransportTest, AcceptedPoolCapEvictsIdleStreams) {
  TcpTransport::Options options;
  options.max_accepted = 2;
  std::vector<ClusterMember> members(1);
  Rank a(0, members, options);
  ASSERT_TRUE(a.transport->Listen());

  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    fds.push_back(DialBlocking(a.transport->listen_port()));
  }
  // Every accept past the cap evicts the least recently active stream, so
  // 4 dials against a pool of 2 must evict (at least) 2.
  int64_t end = MonotonicMillis() + 3000;
  while (a.stats.Total("net.tcp.accepted_evicted") < 2 &&
         MonotonicMillis() < end) {
    a.loop.PollOnce(2);
  }
  EXPECT_LE(a.transport->accepted_connections(), options.max_accepted);
  EXPECT_GE(a.stats.Total("net.tcp.accepted_evicted"), 2u);
  for (int fd : fds) ::close(fd);
}

TEST(NetTcpTransportTest, OversizedFrameClaimTearsDownStream) {
  std::vector<ClusterMember> members(1);
  Rank a(0, members);
  ASSERT_TRUE(a.transport->Listen());

  int fd = DialBlocking(a.transport->listen_port());
  uint8_t header[kFrameHeaderBytes] = {};
  uint32_t huge = static_cast<uint32_t>(kMaxFramePayload + 1);
  std::memcpy(header, &huge, sizeof(huge));
  ASSERT_EQ(::write(fd, header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));

  int64_t end = MonotonicMillis() + 3000;
  while (a.stats.Total("net.tcp.decode_errors") == 0 &&
         MonotonicMillis() < end) {
    a.loop.PollOnce(2);
  }
  EXPECT_EQ(a.stats.Total("net.tcp.decode_errors"), 1u);
  EXPECT_EQ(a.transport->accepted_connections(), 0u);  // torn down
  ::close(fd);
}

TEST(NetTcpTransportTest, GarbagePayloadCountsDecodeError) {
  std::vector<ClusterMember> members(1);
  Rank a(0, members);
  ASSERT_TRUE(a.transport->Listen());

  int fd = DialBlocking(a.transport->listen_port());
  // Plausible header, nonsense payload: reassembly succeeds, decode fails.
  uint8_t frame[kFrameHeaderBytes + 8] = {};
  uint32_t len = 8;
  std::memcpy(frame, &len, sizeof(len));
  std::memset(frame + kFrameHeaderBytes, 0xFF, 8);
  ASSERT_EQ(::write(fd, frame, sizeof(frame)),
            static_cast<ssize_t>(sizeof(frame)));

  int64_t end = MonotonicMillis() + 3000;
  while (a.stats.Total("net.tcp.decode_errors") == 0 &&
         MonotonicMillis() < end) {
    a.loop.PollOnce(2);
  }
  EXPECT_EQ(a.stats.Total("net.tcp.decode_errors"), 1u);
  ::close(fd);
}

TEST(NetTcpTransportTest, HardCapDropIsCountedAsTransportDrop) {
  TcpTransport::Options options;
  options.queue_low_watermark = 64;
  options.queue_high_watermark = 64;
  options.queue_hard_cap = 256;  // a handful of frames
  std::vector<ClusterMember> members(2);
  members[1].port = 1;  // unreachable: nothing listens, queue only grows
  Rank a(0, members, options);
  ASSERT_TRUE(a.transport->Listen());
  RecorderNode node1;
  a.network.Attach(1, &node1);

  for (uint64_t i = 0; i < 64; ++i) {
    a.network.Send(1, 2, Ping(i));
  }
  a.sim.Run();
  EXPECT_GT(a.stats.Total("net.tcp.frames_dropped"), 0u);
  EXPECT_EQ(a.network.traffic().transport_drop.messages,
            a.stats.Total("net.tcp.frames_dropped"));
  EXPECT_GT(a.stats.Total("net.tcp.backpressure_events"), 0u);
  EXPECT_LE(a.transport->queued_bytes(), options.queue_hard_cap);
}

}  // namespace
}  // namespace flowercdn
