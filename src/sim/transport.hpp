// Transport layer on top of the packet network.
//
// Two transports, matching the paper's workloads:
//  - RoCE-style message transport with DCQCN rate control (Zhu et al.,
//    SIGCOMM'15): HPC applications and IMB benchmarks send MPI messages
//    over it (lossless fabric, PFC-backpressured, ECN-marked).
//  - TCP-lite byte streams (Reno-flavored slow start / AIMD, go-back-N
//    recovery): the iperf3 incast of the Fig. 12 bandwidth experiment.
//
// The manager owns every flow and registers itself as the receiver on all
// hosts; demux is by packet kind + flow id.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "sim/network.hpp"

namespace sdt::sim {

struct DcqcnConfig {
  bool enabled = true;
};

struct TransportConfig {
  DcqcnConfig dcqcn;
};

/// Receiver-side completion: (message id, delivery time).
using MessageCallback = std::function<void(std::uint64_t, Time)>;

// Sharding note: RoCE state is split into per-host "lanes" so that a sharded
// run touches each lane only from the shard that owns the host — sender-side
// flow state lives with the source host, receiver-side completion state with
// the destination host, and cross-shard receive registration travels through
// a lookahead-padded event. TCP flows remain a single serial-mode structure
// (documented below); none of the current sharded workloads drive TCP.

class TransportManager {
 public:
  TransportManager(Simulator& sim, Network& net, TransportConfig config);
  ~TransportManager();
  TransportManager(const TransportManager&) = delete;
  TransportManager& operator=(const TransportManager&) = delete;

  /// Send a `bytes`-long message src -> dst on virtual channel `vc`
  /// (RoCE/DCQCN path). `onDelivered` fires when the last byte reaches dst.
  /// Returns the message id.
  std::uint64_t sendMessage(int src, int dst, std::int64_t bytes, int vc,
                            MessageCallback onDelivered);

  /// Start a TCP flow src -> dst carrying `totalBytes` (-1 = run forever,
  /// iperf-style). Returns the flow id.
  std::uint64_t startTcpFlow(int src, int dst, std::int64_t totalBytes = -1,
                             std::function<void(Time)> onComplete = nullptr);

  /// Bytes delivered (application-level) so far on a TCP flow.
  [[nodiscard]] std::int64_t tcpDeliveredBytes(std::uint64_t flowId) const;

  /// Total RoCE data bytes delivered to `host`.
  [[nodiscard]] std::int64_t rdmaDeliveredBytes(int host) const;

  [[nodiscard]] std::uint64_t cnpsSent() const;

  [[nodiscard]] const Network& network() const { return *net_; }

 private:
  struct RdmaPending {
    std::uint64_t messageId;
    std::int64_t bytes;
    std::int64_t sentBytes = 0;
  };

  /// Receiver-side completion bookkeeping, keyed by message id.
  struct RdmaMsgState {
    std::int64_t bytes = 0;
    MessageCallback onDelivered;
  };

  /// Unidirectional RoCE "queue pair" per (src, dst, vc).
  struct RdmaFlow {
    std::uint64_t flowId;
    int src;
    int dst;
    int vc;
    std::deque<RdmaPending> sendQueue;
    bool pumping = false;
    // DCQCN rate-control state.
    double rateGbps;
    double targetGbps;
    double alpha = 1.0;
    int recoverySteps = 0;
    bool timerRunning = false;
    Time lastCnpHandled = -1;
    Time nextSendAt = 0;
  };

  struct RdmaRecvState {
    std::int64_t receivedBytes = 0;  ///< within the current (FIFO) message
  };

  struct TcpFlow {
    std::uint64_t flowId;
    int src;
    int dst;
    std::int64_t totalBytes;
    std::function<void(Time)> onComplete;
    // Sender state.
    std::int64_t nextSeq = 0;
    std::int64_t highestAcked = 0;
    double cwnd;
    double ssthresh;
    int dupAcks = 0;
    bool pumping = false;
    bool completed = false;
    std::uint64_t rtoEpoch = 0;
    // RTT estimation (ns).
    double srtt = 0.0;
    double rttvar = 0.0;
    // Receiver state.
    std::int64_t expectedSeq = 0;
    std::int64_t deliveredBytes = 0;
  };

  void onHostPacket(int host, const Packet& packet);
  // RoCE.
  RdmaFlow& rdmaFlowFor(int src, int dst, int vc);
  void rdmaPump(RdmaFlow& flow);
  void onRdmaData(const Packet& packet);
  void onCnp(RdmaFlow& flow);
  void rdmaTimer(RdmaFlow& flow);
  // TCP.
  void tcpPump(TcpFlow& flow);
  void onTcpData(TcpFlow& flow, const Packet& packet);
  void onTcpAck(TcpFlow& flow, const Packet& packet);
  void tcpArmRto(TcpFlow& flow);
  [[nodiscard]] Time tcpRto(const TcpFlow& flow) const;

  Simulator* sim_;
  Network* net_;
  TransportConfig config_;
  double hostLineRateGbps_ = 10.0;

  /// All RoCE state a single host owns. A lane is only ever touched from the
  /// shard the host lives on, so sharded runs need no locks here.
  struct HostLane {
    std::map<std::uint64_t, RdmaFlow> rdmaFlows;  ///< flows sourced by this host
    std::map<std::pair<std::uint64_t, std::uint64_t>, RdmaRecvState>
        rdmaRecv;                                      ///< this host as receiver
    std::map<std::uint64_t, RdmaMsgState> rdmaMsgState;  ///< by message id
    std::map<std::uint64_t, Time> cnpLastSent;           ///< by flow id
    std::int64_t rdmaDelivered = 0;
    std::uint64_t nextMessageId = 1;
    std::uint64_t nextPacketId = 1;
    std::uint64_t cnpsSent = 0;
  };

  /// Message/packet ids are host-tagged so per-lane counters never collide:
  /// `(host+1) << 40 | n`. Ids are opaque labels — nothing orders on them.
  static std::uint64_t hostTaggedId(int host, std::uint64_t n) {
    return (static_cast<std::uint64_t>(host) + 1) << 40 | n;
  }

  std::vector<HostLane> lanes_;  ///< indexed by host id

  // TCP is serial-mode only: flow creation and demux share this one map, so
  // TCP workloads must run with a single worker (SDT_SIM_WORKERS=1).
  std::map<std::uint64_t, TcpFlow> tcpFlows_;
  std::uint64_t nextTcpFlow_ = 1;
};

}  // namespace sdt::sim
