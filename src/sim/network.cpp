#include "sim/network.hpp"

#include <algorithm>
#include <cassert>

namespace sdt::sim {

std::uint32_t Network::PacketPool::acquire(Packet&& packet) {
  if (freeHead_ == kNil) {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkNodes);
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    Node* chunk = chunks_.back().get();
    for (std::uint32_t i = 0; i < kChunkNodes; ++i) {
      chunk[i].next = i + 1 < kChunkNodes ? base + i + 1 : kNil;
    }
    freeHead_ = base;
  }
  const std::uint32_t idx = freeHead_;
  Node& node = nodeAt(idx);
  freeHead_ = node.next;
  node.packet = std::move(packet);
  node.next = kNil;
  return idx;
}

Packet Network::PacketPool::release(std::uint32_t idx) {
  Node& node = nodeAt(idx);
  Packet packet = std::move(node.packet);
  node.next = freeHead_;
  freeHead_ = idx;
  return packet;
}

int Network::addSwitch(int numPorts, Forwarder forwarder, TimeNs extraLatency) {
  SwitchDev dev;
  dev.ports.resize(static_cast<std::size_t>(numPorts));
  dev.forwarder = std::move(forwarder);
  dev.extraLatency = extraLatency;
  switches_.push_back(std::move(dev));
  switchShard_.push_back(0);
  return static_cast<int>(switches_.size()) - 1;
}

int Network::addHost() {
  hosts_.emplace_back();
  hostShard_.push_back(0);
  return static_cast<int>(hosts_.size()) - 1;
}

void Network::partitionShards() {
  const int k = sim_->numShards();
  if (k <= 1) return;
  const int n = numSwitches();
  for (int sw = 0; sw < n; ++sw) {
    // Contiguous blocks: generated topologies number neighbors contiguously
    // (pods, groups, mesh rows), so block partitioning keeps most links
    // shard-local without knowing the topology family.
    switchShard_[sw] = static_cast<int>(
        (static_cast<std::int64_t>(sw) * k) / std::max(n, 1));
  }
  for (int h = 0; h < numHosts(); ++h) {
    const NodeRef peer = hosts_[h].nic.peer;
    hostShard_[h] = peer.kind == NodeRef::Kind::kSwitch ? switchShard_[peer.idx] : 0;
  }
}

void Network::seedFaultRng(std::uint64_t seed) {
  for (std::size_t s = 0; s < shardState_.size(); ++s) {
    // Shard 0 keeps the legacy stream; other shards get splitmix-salted
    // substreams so no two shards ever consume the same draws.
    const std::uint64_t salt = s * 0x9E3779B97F4A7C15ULL;
    shardState_[s].faultRng = Rng(seed ^ salt);
  }
}

std::uint64_t Network::totalDrops() const {
  std::uint64_t sum = 0;
  for (const ShardState& st : shardState_) sum += st.totalDrops;
  return sum;
}

std::uint64_t Network::faultDrops() const {
  std::uint64_t sum = 0;
  for (const ShardState& st : shardState_) sum += st.faultDrops;
  return sum;
}

std::int64_t Network::peakQueueBytes() const {
  std::int64_t peak = 0;
  for (const ShardState& st : shardState_) peak = std::max(peak, st.peakQueueBytes);
  return peak;
}

void Network::connectSwitches(int sw1, int p1, int sw2, int p2, Gbps speed,
                              TimeNs propDelay) {
  Port& a = switches_[sw1].ports[p1];
  Port& b = switches_[sw2].ports[p2];
  assert(!a.peer.valid() && !b.peer.valid() && "port already wired");
  a.peer = NodeRef{NodeRef::Kind::kSwitch, sw2};
  a.peerPort = p2;
  a.speed = speed;
  a.propDelay = propDelay;
  b.peer = NodeRef{NodeRef::Kind::kSwitch, sw1};
  b.peerPort = p1;
  b.speed = speed;
  b.propDelay = propDelay;
}

void Network::connectHost(int host, int sw, int port, Gbps speed, TimeNs propDelay) {
  Port& nic = hosts_[host].nic;
  Port& sp = switches_[sw].ports[port];
  assert(!nic.peer.valid() && !sp.peer.valid() && "port already wired");
  nic.peer = NodeRef{NodeRef::Kind::kSwitch, sw};
  nic.peerPort = port;
  nic.speed = speed;
  nic.propDelay = propDelay;
  sp.peer = NodeRef{NodeRef::Kind::kHost, host};
  sp.peerPort = 0;
  sp.speed = speed;
  sp.propDelay = propDelay;
}

void Network::setPortUp(int sw, int port, bool up) {
  Port& p = switches_[sw].ports[port];
  if (p.up == up) return;
  p.up = up;
  // Down: start draining the queue into fault drops. Up: resume service.
  kickService(NodeRef{NodeRef::Kind::kSwitch, sw}, port);
}

void Network::setPortStalled(int sw, int port, bool stalled) {
  Port& p = switches_[sw].ports[port];
  if (p.stalled == stalled) return;
  p.stalled = stalled;
  if (!stalled) kickService(NodeRef{NodeRef::Kind::kSwitch, sw}, port);
}

void Network::setPortImpairment(int sw, int port, double dropProb, double corruptProb) {
  Port& p = switches_[sw].ports[port];
  p.dropProb = dropProb;
  p.corruptProb = corruptProb;
}

Network::Port& Network::portOf(NodeRef node, int port) {
  return node.kind == NodeRef::Kind::kSwitch ? switches_[node.idx].ports[port]
                                             : hosts_[node.idx].nic;
}

void Network::injectFromHost(int host, Packet packet) {
  packet.simIngressPort = -1;
  packet.injectedAt = sim_->now();
  // NIC processing happens before the wire. Transports inject from the
  // host's own shard so this is shard-local; top-level injections (tests)
  // are routed to the owner with the lookahead pad.
  const int shard = hostShard_[host];
  sim_->scheduleOn(shard, sim_->crossDelay(shard, kNicLatency),
                   [this, host, packet]() mutable {
    enqueueEgress(NodeRef{NodeRef::Kind::kHost, host}, 0, std::move(packet));
  });
}

void Network::setReceiver(int host, std::function<void(const Packet&)> receiver) {
  hosts_[host].receiver = std::move(receiver);
}

void Network::setSniffer(int host, std::function<void(const Packet&)> sniffer) {
  hosts_[host].sniffer = std::move(sniffer);
}

std::int64_t Network::hostQueueBytes(int host) const {
  return hosts_[host].nic.egress.totalBytes;
}

Gbps Network::hostLinkSpeed(int host) const { return hosts_[host].nic.speed; }

std::int64_t Network::switchEgressBytes(int sw, int port) const {
  return switches_[sw].ports[port].egress.totalBytes;
}

const PortCounters& Network::switchPortCounters(int sw, int port) const {
  return switches_[sw].ports[port].counters;
}

void Network::accountIngress(int sw, int inPort, const Packet& packet) {
  Port& p = switches_[sw].ports[inPort];
  const int cls = packet.vc;
  p.ingressBytes[cls] += packet.wireBytes();
  if (config_.pfcEnabled && !p.pauseSent[cls] &&
      p.ingressBytes[cls] > config_.pfcXoffBytes) {
    sendPause(sw, inPort, cls, /*pause=*/true);
  }
}

void Network::releaseIngress(int sw, int inPort, const Packet& packet) {
  Port& p = switches_[sw].ports[inPort];
  const int cls = packet.vc;
  p.ingressBytes[cls] -= packet.wireBytes();
  assert(p.ingressBytes[cls] >= 0);
  if (p.pauseSent[cls] && p.ingressBytes[cls] < config_.pfcXonBytes) {
    sendPause(sw, inPort, cls, /*pause=*/false);
  }
}

void Network::sendPause(int sw, int inPort, int cls, bool pause) {
  Port& p = switches_[sw].ports[inPort];
  p.pauseSent[cls] = pause;
  ++p.counters.pausesSent;
  const NodeRef peer = p.peer;
  const int peerPort = p.peerPort;
  if (!peer.valid()) return;
  // PAUSE frames cross the same cable as data: deliver on the upstream
  // node's shard, padded to the lookahead horizon when that is a different
  // shard (a shard-boundary latency floor, applied identically in serial
  // and parallel runs of the same K).
  const int peerShard = shardOf(peer);
  sim_->scheduleOn(peerShard, sim_->crossDelay(peerShard, kPfcCtrlDelay),
                   [this, peer, peerPort, cls, pause]() {
    Port& upstream = portOf(peer, peerPort);
    upstream.egress.paused[cls] = pause;
    if (!pause) kickService(peer, peerPort);
  });
}

void Network::enqueueEgress(NodeRef node, int port, Packet packet) {
  Port& p = portOf(node, port);
  assert(p.peer.valid() && "packet routed out of an unwired port");
  const int cls = packet.vc;
  assert(cls >= 0 && cls < kNumClasses);
  const bool isSwitch = node.kind == NodeRef::Kind::kSwitch;

  ShardState& st = stateFor(node);
  if (isSwitch) {
    if (!config_.pfcEnabled &&
        p.egress.totalBytes + packet.wireBytes() > config_.lossyQueueCapBytes) {
      ++st.totalDrops;
      ++p.counters.drops;
      return;
    }
    if (config_.ecnEnabled && packet.ecnCapable && packet.kind == PacketKind::kData &&
        p.egress.totalBytes > config_.ecnThresholdBytes) {
      packet.ecnMarked = true;
      ++p.counters.ecnMarks;
    }
    if (packet.simIngressPort >= 0) accountIngress(node.idx, packet.simIngressPort, packet);
  }

  p.egress.bytes[cls] += packet.wireBytes();
  p.egress.totalBytes += packet.wireBytes();
  // Peak occupancy is a *switch buffer* invariant (hosts may stage
  // arbitrarily large software send queues).
  if (isSwitch) st.peakQueueBytes = std::max(st.peakQueueBytes, p.egress.totalBytes);
  const std::uint32_t pooled = st.pool.acquire(std::move(packet));
  if (p.egress.tail[cls] == kNil) {
    p.egress.head[cls] = pooled;
  } else {
    st.pool.linkAfter(p.egress.tail[cls], pooled);
  }
  p.egress.tail[cls] = pooled;
  kickService(node, port);
}

void Network::kickService(NodeRef node, int port) {
  Port& p = portOf(node, port);
  if (p.serviceScheduled) return;
  p.serviceScheduled = true;
  const Time delay = std::max<Time>(0, p.busyUntil - sim_->now());
  sim_->schedule(delay, [this, node, port]() { serviceEgress(node, port); });
}

void Network::serviceEgress(NodeRef node, int port) {
  Port& p = portOf(node, port);
  ShardState& st = stateFor(node);
  p.serviceScheduled = false;
  if (p.stalled) return;  // wedged transmitter: backlog builds, counters freeze
  if (!p.up) {
    // Dead fiber: the queue drains into fault drops, one frame per tick, so
    // PFC ingress accounting unwinds exactly as if the frames had been sent.
    int cls = -1;
    for (int c = kNumClasses - 1; c >= 0; --c) {
      if (p.egress.bytes[c] > 0) {
        cls = c;
        break;
      }
    }
    if (cls < 0) return;
    const std::uint32_t pooled = p.egress.head[cls];
    p.egress.head[cls] = st.pool.nextOf(pooled);
    if (p.egress.head[cls] == kNil) p.egress.tail[cls] = kNil;
    const Packet packet = st.pool.release(pooled);
    p.egress.bytes[cls] -= packet.wireBytes();
    p.egress.totalBytes -= packet.wireBytes();
    if (node.kind == NodeRef::Kind::kSwitch && packet.simIngressPort >= 0) {
      releaseIngress(node.idx, packet.simIngressPort, packet);
    }
    ++st.totalDrops;
    ++st.faultDrops;
    ++p.counters.drops;
    ++p.counters.faultDrops;
    kickService(node, port);
    return;
  }
  if (sim_->now() < p.busyUntil) {
    kickService(node, port);
    return;
  }
  // Strict priority: highest eligible class first.
  int cls = -1;
  for (int c = kNumClasses - 1; c >= 0; --c) {
    if (p.egress.bytes[c] > 0 && !p.egress.paused[c]) {
      cls = c;
      break;
    }
  }
  if (cls < 0) return;  // empty or fully paused; enqueue/unpause re-kicks

  const std::uint32_t pooled = p.egress.head[cls];
  p.egress.head[cls] = st.pool.nextOf(pooled);
  if (p.egress.head[cls] == kNil) p.egress.tail[cls] = kNil;
  Packet packet = st.pool.release(pooled);
  p.egress.bytes[cls] -= packet.wireBytes();
  p.egress.totalBytes -= packet.wireBytes();

  if (node.kind == NodeRef::Kind::kSwitch && packet.simIngressPort >= 0) {
    releaseIngress(node.idx, packet.simIngressPort, packet);
  }

  const Time ser = p.speed.serializationNs(packet.wireBytes());
  p.busyUntil = sim_->now() + ser;
  ++p.counters.txPackets;
  p.counters.txBytes += static_cast<std::uint64_t>(packet.wireBytes());

  const NodeRef peer = p.peer;
  const int peerInPort = p.peerPort;
  Time arrivalDelay;
  if (peer.kind == NodeRef::Kind::kSwitch && config_.cutThrough) {
    // Cut-through: downstream starts on the header; the wire still carries
    // the full packet (busyUntil above), so back-to-back pacing is intact.
    arrivalDelay = p.speed.serializationNs(kWireHeaderBytes) + p.propDelay;
  } else {
    arrivalDelay = ser + p.propDelay;
  }
  // The hop to the neighbor is the conservative-lookahead edge: when the
  // peer lives on another shard, the arrival is padded up to the horizon
  // and travels through the shard mailboxes.
  const int peerShard = shardOf(peer);
  sim_->scheduleOn(peerShard, sim_->crossDelay(peerShard, arrivalDelay),
                   [this, peer, peerInPort, packet = std::move(packet)]() mutable {
    if (peer.kind == NodeRef::Kind::kSwitch) {
      arriveAtSwitch(peer.idx, peerInPort, std::move(packet));
    } else {
      deliverToHost(peer.idx, packet);
    }
  });

  // Keep draining.
  kickService(node, port);
}

void Network::arriveAtSwitch(int sw, int inPort, Packet packet) {
  SwitchDev& dev = switches_[sw];
  Port& p = dev.ports[inPort];
  ShardState& st = shardState_[switchShard_[sw]];
  ++p.counters.rxPackets;
  p.counters.rxBytes += static_cast<std::uint64_t>(packet.wireBytes());

  if (!p.up) {  // link went down while the frame was in flight
    ++st.totalDrops;
    ++st.faultDrops;
    ++p.counters.drops;
    ++p.counters.faultDrops;
    return;
  }
  if (p.dropProb > 0.0 && st.faultRng.uniform() < p.dropProb) {
    ++st.totalDrops;
    ++st.faultDrops;
    ++p.counters.drops;
    ++p.counters.faultDrops;
    return;
  }
  if (p.corruptProb > 0.0 && st.faultRng.uniform() < p.corruptProb) {
    packet.corrupted = true;
    ++p.counters.corruptedPackets;
  }

  const ForwardResult decision = dev.forwarder(packet, inPort);
  if (decision.outPort < 0) {
    ++st.totalDrops;
    ++p.counters.drops;
    return;
  }
  packet.vc = static_cast<std::uint8_t>(decision.vc);
  if (decision.epoch != 0) packet.epoch = decision.epoch;
  packet.simIngressPort = inPort;
  const int outPort = decision.outPort;
  const Time latency = kSwitchLatency + dev.extraLatency;
  sim_->schedule(latency, [this, sw, outPort, packet = std::move(packet)]() mutable {
    enqueueEgress(NodeRef{NodeRef::Kind::kSwitch, sw}, outPort, std::move(packet));
  });
}

void Network::deliverToHost(int host, const Packet& packet) {
  HostDev& dev = hosts_[host];
  ++dev.nic.counters.rxPackets;
  dev.nic.counters.rxBytes += static_cast<std::uint64_t>(packet.wireBytes());
  if (packet.corrupted) {  // NIC CRC check rejects the damaged frame
    ShardState& st = shardState_[hostShard_[host]];
    ++st.totalDrops;
    ++st.faultDrops;
    ++dev.nic.counters.drops;
    ++dev.nic.counters.faultDrops;
    return;
  }
  // NIC receive-side latency, then sniffer + transport.
  sim_->schedule(kNicLatency, [this, host, packet]() {
    HostDev& d = hosts_[host];
    if (d.sniffer) d.sniffer(packet);
    if (d.receiver) d.receiver(packet);
  });
}

}  // namespace sdt::sim
