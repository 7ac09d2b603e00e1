#include "sim/transport.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace sdt::sim {

namespace {

/// Max payload per data packet.
constexpr std::int64_t kMtuBytes = 1024;
/// Pause injection while the sender NIC already queues this much.
constexpr std::int64_t kNicBackpressureBytes = 8 * 1024;
constexpr std::int64_t kTcpMaxCwndBytes = 256 * 1024;
constexpr std::int64_t kTcpInitialCwndBytes = 2 * 1024;
constexpr TimeNs kTcpMinRto = usToNs(200.0);

// DCQCN (Zhu et al., SIGCOMM'15).
constexpr double kDcqcnGain = 1.0 / 16.0;        ///< alpha EWMA gain (g)
constexpr TimeNs kCnpInterval = usToNs(50.0);    ///< min gap between CNPs per flow
constexpr TimeNs kRateTimer = usToNs(55.0);      ///< recovery timer period
constexpr int kFastRecoverySteps = 5;            ///< timer steps of rate halving recovery
constexpr double kAdditiveIncreaseGbps = 0.5;    ///< Rai after fast recovery
constexpr double kMinRateGbps = 0.05;

}  // namespace

namespace {
constexpr std::uint64_t kRdmaFlowTag = 1ULL << 40;
constexpr std::uint64_t kTcpFlowTag = 2ULL << 40;

std::uint64_t rdmaFlowId(int src, int dst, int vc) {
  return kRdmaFlowTag | (static_cast<std::uint64_t>(src) << 22) |
         (static_cast<std::uint64_t>(dst) << 4) | static_cast<std::uint64_t>(vc);
}
}  // namespace

TransportManager::TransportManager(Simulator& sim, Network& net, TransportConfig config)
    : sim_(&sim), net_(&net), config_(config) {
  lanes_.resize(static_cast<std::size_t>(net.numHosts()));
  for (int h = 0; h < net.numHosts(); ++h) {
    net_->setReceiver(h, [this, h](const Packet& p) { onHostPacket(h, p); });
  }
  if (net.numHosts() > 0) hostLineRateGbps_ = net.hostLinkSpeed(0).value;
}

TransportManager::~TransportManager() = default;

// ---------------------------------------------------------------------------
// Demux
// ---------------------------------------------------------------------------

void TransportManager::onHostPacket(int host, const Packet& packet) {
  switch (packet.kind) {
    case PacketKind::kData:
      if (packet.flowId & kRdmaFlowTag) {
        onRdmaData(packet);
      } else if (auto it = tcpFlows_.find(packet.flowId); it != tcpFlows_.end()) {
        onTcpData(it->second, packet);
      }
      break;
    case PacketKind::kCnp: {
      // A CNP is delivered to the data sender, whose lane owns the flow.
      auto& flows = lanes_[static_cast<std::size_t>(host)].rdmaFlows;
      if (auto it = flows.find(packet.flowId); it != flows.end()) {
        onCnp(it->second);
      }
      break;
    }
    case PacketKind::kAck:
      if (auto it = tcpFlows_.find(packet.flowId); it != tcpFlows_.end()) {
        onTcpAck(it->second, packet);
      }
      break;
  }
  (void)host;
}

// ---------------------------------------------------------------------------
// RoCE / DCQCN
// ---------------------------------------------------------------------------

TransportManager::RdmaFlow& TransportManager::rdmaFlowFor(int src, int dst, int vc) {
  const std::uint64_t id = rdmaFlowId(src, dst, vc);
  auto& flows = lanes_[static_cast<std::size_t>(src)].rdmaFlows;
  auto it = flows.find(id);
  if (it == flows.end()) {
    RdmaFlow flow;
    flow.flowId = id;
    flow.src = src;
    flow.dst = dst;
    flow.vc = vc;
    flow.rateGbps = net_->hostLinkSpeed(src).value;
    flow.targetGbps = flow.rateGbps;
    it = flows.emplace(id, std::move(flow)).first;
  }
  return it->second;
}

std::uint64_t TransportManager::sendMessage(int src, int dst, std::int64_t bytes, int vc,
                                            MessageCallback onDelivered) {
  assert(bytes > 0);
  assert(src != dst && "loopback messages never touch the fabric");
  RdmaFlow& flow = rdmaFlowFor(src, dst, vc);
  HostLane& srcLane = lanes_[static_cast<std::size_t>(src)];
  const std::uint64_t id = hostTaggedId(src, srcLane.nextMessageId++);
  flow.sendQueue.push_back(RdmaPending{id, bytes, 0});
  // Receiver-side completion state lives on the destination lane. When the
  // destination is on another shard, registration travels as a padded
  // cross-shard event; the first data packet needs strictly longer than one
  // lookahead to reach the destination (NIC latency + the padded fabric
  // hop), so registration always lands first. The branch depends only on
  // the shard map, so serial-K and parallel-K schedule identical events, and
  // K==1 keeps the legacy direct write.
  const int dstShard = net_->hostShard(dst);
  if (sim_->numShards() == 1 || dstShard == net_->hostShard(src)) {
    HostLane& dstLane = lanes_[static_cast<std::size_t>(dst)];
    dstLane.rdmaRecv[{flow.flowId, id}] = RdmaRecvState{};
    dstLane.rdmaMsgState[id] = RdmaMsgState{bytes, std::move(onDelivered)};
  } else {
    sim_->scheduleOn(dstShard, sim_->crossDelay(dstShard, 0),
                     [this, fid = flow.flowId, id, dst, bytes,
                      cb = std::move(onDelivered)]() mutable {
      HostLane& dstLane = lanes_[static_cast<std::size_t>(dst)];
      dstLane.rdmaRecv[{fid, id}] = RdmaRecvState{};
      dstLane.rdmaMsgState[id] = RdmaMsgState{bytes, std::move(cb)};
    });
  }
  // The pump reads the source NIC's queue, so it runs on the source host's
  // shard even when the caller is elsewhere (a top-level send is shard 0).
  // Pump and timer events hold the flow itself: a std::map node never moves
  // and no flow is ever erased.
  if (!flow.pumping) {
    flow.pumping = true;
    sim_->scheduleOn(net_->hostShard(src), 0, [this, &flow]() { rdmaPump(flow); });
  }
  return id;
}

void TransportManager::rdmaPump(RdmaFlow& flow) {
  if (flow.sendQueue.empty()) {
    flow.pumping = false;
    return;
  }
  const Time now = sim_->now();
  // NIC backpressure: with PFC pausing the NIC, keep the software queue
  // short and retry once the backlog should have drained.
  if (net_->hostQueueBytes(flow.src) > kNicBackpressureBytes) {
    const Time retry = Gbps{hostLineRateGbps_}.serializationNs(kNicBackpressureBytes);
    sim_->schedule(std::max<Time>(retry, 500), [this, &flow]() { rdmaPump(flow); });
    return;
  }
  if (now < flow.nextSendAt) {
    sim_->schedule(flow.nextSendAt - now, [this, &flow]() { rdmaPump(flow); });
    return;
  }
  RdmaPending& msg = flow.sendQueue.front();
  HostLane& srcLane = lanes_[static_cast<std::size_t>(flow.src)];
  Packet pkt;
  pkt.id = hostTaggedId(flow.src, srcLane.nextPacketId++);
  pkt.flowId = flow.flowId;
  pkt.srcHost = flow.src;
  pkt.dstHost = flow.dst;
  pkt.kind = PacketKind::kData;
  pkt.vc = static_cast<std::uint8_t>(flow.vc);
  pkt.ecnCapable = config_.dcqcn.enabled;
  pkt.messageId = msg.messageId;
  pkt.payloadBytes = std::min<std::int64_t>(kMtuBytes, msg.bytes - msg.sentBytes);
  pkt.seq = static_cast<std::uint64_t>(msg.sentBytes);
  msg.sentBytes += pkt.payloadBytes;
  const std::int64_t wire = pkt.wireBytes();
  if (msg.sentBytes >= msg.bytes) flow.sendQueue.pop_front();
  net_->injectFromHost(flow.src, std::move(pkt));

  // Pace at the DCQCN current rate.
  flow.nextSendAt = std::max(now, flow.nextSendAt) + Gbps{flow.rateGbps}.serializationNs(wire);
  sim_->schedule(std::max<Time>(0, flow.nextSendAt - now), [this, &flow]() { rdmaPump(flow); });
}

void TransportManager::onRdmaData(const Packet& packet) {
  HostLane& lane = lanes_[static_cast<std::size_t>(packet.dstHost)];
  const auto key = std::pair{packet.flowId, packet.messageId};
  const auto it = lane.rdmaRecv.find(key);
  if (it == lane.rdmaRecv.end()) return;  // stray (e.g. isolation-test cross-talk)
  it->second.receivedBytes += packet.payloadBytes;
  lane.rdmaDelivered += packet.payloadBytes;

  // DCQCN notification point: echo congestion back to the sender, at most
  // one CNP per cnpInterval per flow.
  if (packet.ecnMarked && config_.dcqcn.enabled) {
    const Time now = sim_->now();
    Time& last = lane.cnpLastSent[packet.flowId];
    if (last == 0 || now - last >= kCnpInterval) {
      last = now;
      Packet cnp;
      cnp.id = hostTaggedId(packet.dstHost, lane.nextPacketId++);
      cnp.flowId = packet.flowId;
      cnp.srcHost = packet.dstHost;
      cnp.dstHost = packet.srcHost;
      cnp.kind = PacketKind::kCnp;
      cnp.vc = kControlClass;
      cnp.payloadBytes = 0;
      net_->injectFromHost(packet.dstHost, std::move(cnp));
      ++lane.cnpsSent;
    }
  }

  // Message completion.
  const auto msgIt = lane.rdmaMsgState.find(packet.messageId);
  if (msgIt == lane.rdmaMsgState.end()) return;
  if (it->second.receivedBytes >= msgIt->second.bytes) {
    auto cb = std::move(msgIt->second.onDelivered);
    lane.rdmaMsgState.erase(msgIt);
    lane.rdmaRecv.erase(it);
    if (cb) cb(packet.messageId, sim_->now());
  }
}

void TransportManager::onCnp(RdmaFlow& flow) {
  const Time now = sim_->now();
  if (flow.lastCnpHandled >= 0 && now - flow.lastCnpHandled < kCnpInterval) return;
  flow.lastCnpHandled = now;
  flow.targetGbps = flow.rateGbps;
  flow.alpha = (1.0 - kDcqcnGain) * flow.alpha + kDcqcnGain;
  flow.rateGbps = std::max(kMinRateGbps, flow.rateGbps * (1.0 - flow.alpha / 2.0));
  flow.recoverySteps = 0;
  if (!flow.timerRunning) {
    flow.timerRunning = true;
    sim_->schedule(kRateTimer, [this, &flow]() { rdmaTimer(flow); });
  }
}

void TransportManager::rdmaTimer(RdmaFlow& flow) {
  const double lineRate = net_->hostLinkSpeed(flow.src).value;

  flow.alpha *= (1.0 - kDcqcnGain);
  ++flow.recoverySteps;
  if (flow.recoverySteps > kFastRecoverySteps) {
    flow.targetGbps = std::min(lineRate, flow.targetGbps + kAdditiveIncreaseGbps);
  }
  flow.rateGbps = std::min(lineRate, (flow.rateGbps + flow.targetGbps) / 2.0);

  if (flow.rateGbps >= lineRate * 0.999) {
    flow.rateGbps = lineRate;
    flow.timerRunning = false;
    return;
  }
  sim_->schedule(kRateTimer, [this, &flow]() { rdmaTimer(flow); });
}

// ---------------------------------------------------------------------------
// TCP-lite
// ---------------------------------------------------------------------------

std::uint64_t TransportManager::startTcpFlow(int src, int dst, std::int64_t totalBytes,
                                             std::function<void(Time)> onComplete) {
  TcpFlow flow;
  flow.flowId = kTcpFlowTag | nextTcpFlow_++;
  flow.src = src;
  flow.dst = dst;
  flow.totalBytes = totalBytes;
  flow.onComplete = std::move(onComplete);
  flow.cwnd = static_cast<double>(kTcpInitialCwndBytes);
  flow.ssthresh = static_cast<double>(kTcpMaxCwndBytes);
  const std::uint64_t id = flow.flowId;
  tcpFlows_.emplace(id, std::move(flow));
  sim_->schedule(0, [this, id]() { tcpPump(tcpFlows_.at(id)); });
  return id;
}

std::int64_t TransportManager::tcpDeliveredBytes(std::uint64_t flowId) const {
  const auto it = tcpFlows_.find(flowId);
  return it == tcpFlows_.end() ? 0 : it->second.deliveredBytes;
}

std::int64_t TransportManager::rdmaDeliveredBytes(int host) const {
  return lanes_[static_cast<std::size_t>(host)].rdmaDelivered;
}

std::uint64_t TransportManager::cnpsSent() const {
  std::uint64_t sum = 0;
  for (const HostLane& lane : lanes_) sum += lane.cnpsSent;
  return sum;
}

Time TransportManager::tcpRto(const TcpFlow& flow) const {
  if (flow.srtt <= 0.0) return msToNs(1.0);
  const double rto = flow.srtt + 4.0 * std::max(flow.rttvar, 1000.0);
  return std::max<Time>(kTcpMinRto, static_cast<Time>(rto));
}

void TransportManager::tcpArmRto(TcpFlow& flow) {
  const std::uint64_t epoch = ++flow.rtoEpoch;
  const std::int64_t ackedAtArm = flow.highestAcked;
  sim_->schedule(tcpRto(flow), [this, id = flow.flowId, epoch, ackedAtArm]() {
    auto it = tcpFlows_.find(id);
    if (it == tcpFlows_.end()) return;
    TcpFlow& f = it->second;
    if (f.completed || f.rtoEpoch != epoch) return;  // superseded
    if (f.highestAcked > ackedAtArm || f.nextSeq == f.highestAcked) return;  // progress/idle
    // Timeout: multiplicative collapse and go-back-N.
    f.ssthresh = std::max(f.cwnd / 2.0, 2.0 * static_cast<double>(kMtuBytes));
    f.cwnd = static_cast<double>(kMtuBytes);
    f.dupAcks = 0;
    f.nextSeq = f.highestAcked;
    tcpPump(f);
  });
}

void TransportManager::tcpPump(TcpFlow& flow) {
  if (flow.completed) return;
  const std::int64_t windowEnd =
      flow.highestAcked + static_cast<std::int64_t>(flow.cwnd);
  const std::int64_t dataEnd =
      flow.totalBytes < 0 ? std::numeric_limits<std::int64_t>::max() : flow.totalBytes;
  bool sent = false;
  HostLane& srcLane = lanes_[static_cast<std::size_t>(flow.src)];
  while (flow.nextSeq < std::min(windowEnd, dataEnd)) {
    Packet pkt;
    pkt.id = hostTaggedId(flow.src, srcLane.nextPacketId++);
    pkt.flowId = flow.flowId;
    pkt.srcHost = flow.src;
    pkt.dstHost = flow.dst;
    pkt.kind = PacketKind::kData;
    pkt.vc = 0;
    pkt.payloadBytes =
        std::min<std::int64_t>(kMtuBytes, std::min(windowEnd, dataEnd) - flow.nextSeq);
    pkt.seq = static_cast<std::uint64_t>(flow.nextSeq);
    pkt.messageId = static_cast<std::uint64_t>(sim_->now());  // RTT echo
    flow.nextSeq += pkt.payloadBytes;
    net_->injectFromHost(flow.src, std::move(pkt));
    sent = true;
  }
  if (sent) tcpArmRto(flow);
}

void TransportManager::onTcpData(TcpFlow& flow, const Packet& packet) {
  // Go-back-N receiver: only in-order data advances; everything is
  // cumulatively acked so the sender sees dup-acks on gaps.
  if (static_cast<std::int64_t>(packet.seq) == flow.expectedSeq) {
    flow.expectedSeq += packet.payloadBytes;
    flow.deliveredBytes += packet.payloadBytes;
  }
  Packet ack;
  ack.id = hostTaggedId(flow.dst, lanes_[static_cast<std::size_t>(flow.dst)].nextPacketId++);
  ack.flowId = flow.flowId;
  ack.srcHost = flow.dst;
  ack.dstHost = flow.src;
  ack.kind = PacketKind::kAck;
  ack.vc = kControlClass;
  ack.payloadBytes = 0;
  ack.ackSeq = static_cast<std::uint64_t>(flow.expectedSeq);
  ack.messageId = packet.messageId;  // RTT echo
  net_->injectFromHost(flow.dst, std::move(ack));
}

void TransportManager::onTcpAck(TcpFlow& flow, const Packet& packet) {
  if (flow.completed) return;
  const auto acked = static_cast<std::int64_t>(packet.ackSeq);
  // RTT sample from the echoed send timestamp.
  const double sample = static_cast<double>(sim_->now()) -
                        static_cast<double>(packet.messageId);
  if (sample > 0) {
    if (flow.srtt <= 0) {
      flow.srtt = sample;
      flow.rttvar = sample / 2.0;
    } else {
      flow.rttvar = 0.75 * flow.rttvar + 0.25 * std::abs(flow.srtt - sample);
      flow.srtt = 0.875 * flow.srtt + 0.125 * sample;
    }
  }
  if (acked > flow.highestAcked) {
    const std::int64_t newlyAcked = acked - flow.highestAcked;
    flow.highestAcked = acked;
    flow.dupAcks = 0;
    const auto mtu = static_cast<double>(kMtuBytes);
    if (flow.cwnd < flow.ssthresh) {
      flow.cwnd += static_cast<double>(newlyAcked);  // slow start
    } else {
      flow.cwnd += mtu * mtu / flow.cwnd;  // congestion avoidance
    }
    flow.cwnd = std::min(flow.cwnd, static_cast<double>(kTcpMaxCwndBytes));
    if (flow.totalBytes >= 0 && flow.highestAcked >= flow.totalBytes) {
      flow.completed = true;
      if (flow.onComplete) flow.onComplete(sim_->now());
      return;
    }
    tcpPump(flow);
  } else if (acked == flow.highestAcked && flow.nextSeq > flow.highestAcked) {
    if (++flow.dupAcks == 3) {
      // Fast retransmit, go-back-N.
      flow.ssthresh = std::max(flow.cwnd / 2.0, 2.0 * static_cast<double>(kMtuBytes));
      flow.cwnd = flow.ssthresh;
      flow.dupAcks = 0;
      flow.nextSeq = flow.highestAcked;
      tcpPump(flow);
    }
  }
}

}  // namespace sdt::sim
