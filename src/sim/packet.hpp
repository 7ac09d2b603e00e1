// Packet model shared by the data plane and the transports.
#pragma once

#include <cstdint>

#include "openflow/flow_table.hpp"

namespace sdt::sim {

enum class PacketKind : std::uint8_t {
  kData,  ///< transport payload (RoCE segment or TCP segment)
  kAck,   ///< TCP cumulative ack / RoCE message ack
  kCnp,   ///< DCQCN congestion notification packet
};

inline constexpr std::int64_t kWireHeaderBytes = 64;  ///< L2+L3+L4 framing
inline constexpr int kControlClass = 7;  ///< strict-priority class for ACK/CNP
inline constexpr int kNumClasses = 8;

struct Packet {
  std::uint64_t id = 0;
  std::uint64_t flowId = 0;
  int srcHost = -1;
  int dstHost = -1;
  std::int64_t payloadBytes = 0;
  PacketKind kind = PacketKind::kData;
  std::uint8_t vc = 0;       ///< virtual channel == egress queue class for data
  bool ecnCapable = false;
  bool ecnMarked = false;
  bool corrupted = false;      ///< frame damaged in flight (fault injection); NICs drop it
  std::uint64_t seq = 0;       ///< transport byte offset (TCP) / packet index (RoCE)
  std::uint64_t ackSeq = 0;    ///< cumulative ack (TCP)
  std::uint64_t messageId = 0; ///< RoCE message this segment belongs to
  /// Configuration epoch stamped at the first switch (0 = not yet stamped).
  /// Persists across hops so every lookup on the path runs under the same
  /// epoch during a two-phase reconfiguration (per-packet consistency).
  std::uint32_t epoch = 0;
  /// Sim-internal: ingress port the packet is charged to for PFC accounting
  /// while it waits in the current switch's egress queue (-1 = host-injected).
  int simIngressPort = -1;

  [[nodiscard]] std::int64_t wireBytes() const { return payloadBytes + kWireHeaderBytes; }

  /// Header view for OpenFlow flow-table matching (SDT data plane): the
  /// destination host id doubles as its IP.
  [[nodiscard]] openflow::PacketHeader header(int inPort) const {
    openflow::PacketHeader h;
    h.inPort = inPort;
    h.dstAddr = static_cast<std::uint32_t>(dstHost);
    h.trafficClass = vc;
    h.epoch = epoch;
    return h;
  }
};

}  // namespace sdt::sim
