// Tests: data plane — latency composition, queueing, PFC losslessness,
// lossy drops, ECN marking, strict priority, cut-through.
#include <gtest/gtest.h>

#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "topo/generators.hpp"

namespace sdt::sim {
namespace {

/// Two hosts on two switches joined by one 10G link.
struct TwoSwitchFixture {
  Simulator sim;
  topo::Topology topo = topo::makeLine(2);
  routing::ShortestPathRouting routing{topo};
  BuiltNetwork built;
  explicit TwoSwitchFixture(NetworkConfig cfg = {}) {
    built = buildLogicalNetwork(sim, topo, routing, cfg);
  }
  Network& net() { return *built.net; }
};

Packet dataPacket(int src, int dst, std::int64_t payload, std::uint64_t id = 1) {
  Packet p;
  p.id = id;
  p.flowId = 99;
  p.srcHost = src;
  p.dstHost = dst;
  p.payloadBytes = payload;
  p.kind = PacketKind::kData;
  return p;
}

TEST(Network, SinglePacketLatencyComposition) {
  NetworkConfig cfg;
  cfg.cutThrough = false;
  TwoSwitchFixture f(cfg);
  Time delivered = -1;
  f.net().setReceiver(1, [&](const Packet&) { delivered = f.sim.now(); });
  f.net().injectFromHost(0, dataPacket(0, 1, 1000));
  f.sim.run();
  // Store-and-forward path: nicTx + 3 serializations (host link, fabric
  // link, host link) + 2 switch latencies + 3 props + nicRx.
  const Time ser = Gbps{10.0}.serializationNs(1000 + kWireHeaderBytes);
  const Time expected = kNicLatency + ser + kHostPropDelay  // host -> sw0
                        + kSwitchLatency + ser + kLinkPropDelay  // sw0 -> sw1
                        + kSwitchLatency + ser + kHostPropDelay  // sw1 -> host
                        + kNicLatency;
  EXPECT_EQ(delivered, expected);
}

TEST(Network, CutThroughIsFasterAcrossFabric) {
  Time sf = 0, ct = 0;
  for (const bool cutThrough : {false, true}) {
    NetworkConfig cfg;
    cfg.cutThrough = cutThrough;
    // 3 switches so the fabric hop count matters.
    Simulator sim;
    topo::Topology topo = topo::makeLine(3);
    routing::ShortestPathRouting routing{topo};
    auto built = buildLogicalNetwork(sim, topo, routing, cfg);
    Time delivered = -1;
    built.net->setReceiver(2, [&](const Packet&) { delivered = sim.now(); });
    built.net->injectFromHost(0, dataPacket(0, 2, 4000));
    sim.run();
    (cutThrough ? ct : sf) = delivered;
  }
  EXPECT_LT(ct, sf);
  // CT saves roughly one full serialization per fabric-to-fabric hop.
  EXPECT_GT(sf - ct, Gbps{10.0}.serializationNs(3000));
}

TEST(Network, BackToBackPacketsPipelineAtLineRate) {
  NetworkConfig cfg;
  cfg.cutThrough = false;
  TwoSwitchFixture f(cfg);
  std::vector<Time> arrivals;
  f.net().setReceiver(1, [&](const Packet&) { arrivals.push_back(f.sim.now()); });
  for (int i = 0; i < 10; ++i) f.net().injectFromHost(0, dataPacket(0, 1, 1000, i));
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 10u);
  // Steady state: one packet per serialization time.
  const Time ser = Gbps{10.0}.serializationNs(1000 + kWireHeaderBytes);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], ser);
  }
}

TEST(Network, LossyModeDropsAtCapacity) {
  // Two senders incast one receiver: the 2:1 oversubscription must overflow
  // the tiny lossy buffer and drop, conserving packets (received + dropped).
  NetworkConfig cfg;
  cfg.pfcEnabled = false;
  cfg.lossyQueueCapBytes = 4 * 1024;  // tiny
  Simulator sim;
  topo::Topology topo = topo::makeLine(3);
  routing::ShortestPathRouting routing{topo};
  auto built = buildLogicalNetwork(sim, topo, routing, cfg);
  int received = 0;
  built.net->setReceiver(1, [&](const Packet&) { ++received; });
  for (int i = 0; i < 100; ++i) {
    built.net->injectFromHost(0, dataPacket(0, 1, 1000, 2 * i));
    built.net->injectFromHost(2, dataPacket(2, 1, 1000, 2 * i + 1));
  }
  sim.run();
  EXPECT_GT(built.net->totalDrops(), 0u);
  EXPECT_LT(received, 200);
  EXPECT_EQ(received + static_cast<int>(built.net->totalDrops()), 200);
}

TEST(Network, PfcIsLossless) {
  NetworkConfig cfg;
  cfg.pfcEnabled = true;
  cfg.pfcXoffBytes = 8 * 1024;
  cfg.pfcXonBytes = 4 * 1024;
  TwoSwitchFixture f(cfg);
  int received = 0;
  f.net().setReceiver(1, [&](const Packet&) { ++received; });
  for (int i = 0; i < 200; ++i) f.net().injectFromHost(0, dataPacket(0, 1, 1000, i));
  f.sim.run();
  EXPECT_EQ(f.net().totalDrops(), 0u);
  EXPECT_EQ(received, 200);
}

TEST(Network, PfcBoundsQueueDepth) {
  // Incast: both far hosts blast one middle target; PFC must keep every
  // egress queue within XOFF + in-flight slack, not grow without bound.
  NetworkConfig cfg;
  cfg.pfcEnabled = true;
  cfg.pfcXoffBytes = 16 * 1024;
  cfg.pfcXonBytes = 8 * 1024;
  Simulator sim;
  topo::Topology topo = topo::makeLine(3);
  routing::ShortestPathRouting routing{topo};
  auto built = buildLogicalNetwork(sim, topo, routing, cfg);
  int received = 0;
  built.net->setReceiver(1, [&](const Packet&) { ++received; });
  for (int i = 0; i < 300; ++i) {
    built.net->injectFromHost(0, dataPacket(0, 1, 1000, 2 * i));
    built.net->injectFromHost(2, dataPacket(2, 1, 1000, 2 * i + 1));
  }
  sim.run();
  EXPECT_EQ(received, 600);
  EXPECT_EQ(built.net->totalDrops(), 0u);
  // Peak occupancy stays near the watermark (XOFF + a pause-latency skid).
  EXPECT_LT(built.net->peakQueueBytes(), cfg.pfcXoffBytes + 64 * 1024);
}

TEST(Network, EcnMarksAboveThreshold) {
  // Incast builds a standing queue at the shared egress; packets landing in
  // a queue above the threshold get CE-marked, the burst head does not.
  NetworkConfig cfg;
  cfg.ecnEnabled = true;
  cfg.ecnThresholdBytes = 2 * 1024;
  Simulator sim;
  topo::Topology topo = topo::makeLine(3);
  routing::ShortestPathRouting routing{topo};
  auto built = buildLogicalNetwork(sim, topo, routing, cfg);
  int marked = 0, total = 0;
  built.net->setReceiver(1, [&](const Packet& p) {
    ++total;
    marked += p.ecnMarked;
  });
  for (int i = 0; i < 50; ++i) {
    Packet a = dataPacket(0, 1, 1000, 2 * i);
    a.ecnCapable = true;
    built.net->injectFromHost(0, a);
    Packet b = dataPacket(2, 1, 1000, 2 * i + 1);
    b.ecnCapable = true;
    built.net->injectFromHost(2, b);
  }
  sim.run();
  EXPECT_EQ(total, 100);
  EXPECT_GT(marked, 0);
  EXPECT_LT(marked, 100);  // the head of the burst passes unmarked
}

TEST(Network, EcnIgnoresNonCapablePackets) {
  NetworkConfig cfg;
  cfg.ecnEnabled = true;
  cfg.ecnThresholdBytes = 1024;
  TwoSwitchFixture f(cfg);
  int marked = 0;
  f.net().setReceiver(1, [&](const Packet& p) { marked += p.ecnMarked; });
  for (int i = 0; i < 30; ++i) f.net().injectFromHost(0, dataPacket(0, 1, 1000, i));
  f.sim.run();
  EXPECT_EQ(marked, 0);
}

TEST(Network, StrictPriorityServesControlFirst) {
  NetworkConfig cfg;
  cfg.cutThrough = false;
  TwoSwitchFixture f(cfg);
  std::vector<std::uint64_t> order;
  f.net().setReceiver(1, [&](const Packet& p) { order.push_back(p.id); });
  // Queue a burst of bulk data, then one control packet; the control class
  // must overtake the still-queued data.
  for (int i = 0; i < 20; ++i) f.net().injectFromHost(0, dataPacket(0, 1, 1000, i));
  Packet ctrl = dataPacket(0, 1, 0, 999);
  ctrl.vc = kControlClass;
  ctrl.kind = PacketKind::kAck;
  f.net().injectFromHost(0, ctrl);
  f.sim.run();
  ASSERT_EQ(order.size(), 21u);
  const auto pos = std::find(order.begin(), order.end(), 999u) - order.begin();
  EXPECT_LT(pos, 20);
}

TEST(Network, SnifferSeesDeliveredPackets) {
  TwoSwitchFixture f;
  int sniffed = 0, received = 0;
  f.net().setSniffer(1, [&](const Packet&) { ++sniffed; });
  f.net().setReceiver(1, [&](const Packet&) { ++received; });
  f.net().injectFromHost(0, dataPacket(0, 1, 100));
  f.sim.run();
  EXPECT_EQ(sniffed, 1);
  EXPECT_EQ(received, 1);
}

TEST(Network, PortCountersTrack) {
  TwoSwitchFixture f;
  f.net().setReceiver(1, [](const Packet&) {});
  f.net().injectFromHost(0, dataPacket(0, 1, 1000));
  f.sim.run();
  // Switch 0 received on its host port and transmitted on its fabric port.
  const topo::HostLink& hl = f.topo.hostLink(0);
  const PortCounters& in = f.net().switchPortCounters(0, hl.attach.port);
  EXPECT_EQ(in.rxPackets, 1u);
  EXPECT_GT(in.rxBytes, 1000u);
}

}  // namespace
}  // namespace sdt::sim
