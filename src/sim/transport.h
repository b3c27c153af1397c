#ifndef FLOWERCDN_SIM_TRANSPORT_H_
#define FLOWERCDN_SIM_TRANSPORT_H_

#include <cstddef>

#include "sim/message.h"
#include "sim/network.h"
#include "sim/types.h"

namespace flowercdn {

/// How an accounted, fault-filtered message travels from Network::Send to
/// its delivery. The network decides *whether* and *when* a message is
/// delivered (fault hooks, latency, dead-receiver drops); the transport
/// decides *how* it gets there. There are two backends: the default
/// InProcessTransport below hands the message straight back to the
/// network's simulated delivery path, and TcpTransport (src/net) carries it
/// to the owning cluster rank as an encoded frame on a TCP stream.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Carries `msg` toward `dst`. Implementations must (synchronously or
  /// from a later pump) invoke Network::DeliverFromTransport exactly once
  /// per call with the same (dst, latency, accounted_bytes) triple, on the
  /// simulation thread — or, if the backend cannot carry the message (send
  /// buffer exhausted, encoding oversized, write queue past its hard cap),
  /// account the loss with exactly one Network::NoteTransportDrop call
  /// instead. `accounted_bytes` is the encoded length the network charged
  /// at send time (Message::WireSize()) and is reused for drop accounting
  /// at delivery time.
  virtual void Carry(PeerId src, PeerId dst, SimDuration latency,
                     size_t accounted_bytes, MessagePtr msg) = 0;

  /// Stable backend name for logs and reports.
  virtual const char* name() const = 0;
};

/// The default backend: in-process simulated delivery, byte-identical to
/// the pre-transport network (the message never leaves the heap).
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(Network* network) : network_(network) {}

  void Carry(PeerId /*src*/, PeerId dst, SimDuration latency,
             size_t accounted_bytes, MessagePtr msg) override {
    network_->DeliverFromTransport(dst, latency, accounted_bytes,
                                   std::move(msg));
  }

  const char* name() const override { return "in-process"; }

 private:
  Network* network_;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SIM_TRANSPORT_H_
