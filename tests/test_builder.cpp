// Tests: network builders — wiring invariants of the logical (full-testbed)
// and projected (SDT) planes.
#include <gtest/gtest.h>

#include "controller/controller.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/transport.hpp"
#include "topo/generators.hpp"

namespace sdt::sim {
namespace {

TEST(Builder, LogicalNetworkMirrorsTopology) {
  Simulator sim;
  const topo::Topology topo = topo::makeFatTree(4);
  routing::ShortestPathRouting routing(topo);
  auto built = buildLogicalNetwork(sim, topo, routing, {});
  EXPECT_EQ(built.net->numSwitches(), topo.numSwitches());
  EXPECT_EQ(built.net->numHosts(), topo.numHosts());
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    EXPECT_EQ(built.net->switchPortCount(sw), topo.radix(sw));
  }
  EXPECT_TRUE(built.ofSwitches.empty());
}

TEST(Builder, LogicalHostLinkSpeedPreserved) {
  Simulator sim;
  const topo::Topology topo = topo::makeLine(2, {.hostsPerSwitch = 1,
                                                 .linkSpeed = Gbps{25.0}});
  routing::ShortestPathRouting routing(topo);
  auto built = buildLogicalNetwork(sim, topo, routing, {});
  EXPECT_DOUBLE_EQ(built.net->hostLinkSpeed(0).value, 25.0);
}

TEST(Builder, ProjectedNetworkUsesPhysicalSwitches) {
  const topo::Topology topo = topo::makeLine(8);
  routing::ShortestPathRouting routing(topo);
  projection::PlantConfig cfg;
  cfg.numSwitches = 2;
  cfg.spec = projection::openflow64x100G();
  cfg.hostPortsPerSwitch = 8;
  cfg.interLinksPerPair = 8;
  auto plant = projection::buildPlant(cfg);
  ASSERT_TRUE(plant.ok());
  controller::SdtController ctl(plant.value());
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok()) << dep.error().message;

  Simulator sim;
  auto built = buildProjectedNetwork(sim, topo, dep.value().projection, plant.value(),
                                     dep.value().switches, {}, CrossbarModel{});
  // 8 logical switches collapse onto 2 physical ones.
  EXPECT_EQ(built.net->numSwitches(), 2);
  EXPECT_EQ(built.net->numHosts(), 8);
  EXPECT_EQ(built.net->switchPortCount(0), 64);
  EXPECT_EQ(built.ofSwitches.size(), 2u);
}

TEST(Builder, ProjectedDeliveryEndToEnd) {
  const topo::Topology topo = topo::makeLine(4);
  routing::ShortestPathRouting routing(topo);
  projection::PlantConfig cfg;
  cfg.numSwitches = 1;
  cfg.spec = projection::openflow64x100G();
  cfg.hostPortsPerSwitch = 4;
  cfg.interLinksPerPair = 0;
  auto plant = projection::buildPlant(cfg);
  ASSERT_TRUE(plant.ok());
  controller::SdtController ctl(plant.value());
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok());

  Simulator sim;
  auto built = buildProjectedNetwork(sim, topo, dep.value().projection, plant.value(),
                                     dep.value().switches, {}, CrossbarModel{});
  TransportManager transport(sim, *built.net, {});
  int done = 0;
  transport.sendMessage(0, 3, 64 * 1024, 0, [&](std::uint64_t, Time) { ++done; });
  sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(built.net->totalDrops(), 0u);
  // The OpenFlow models saw the traffic (their rules counted it).
  std::uint64_t ofRx = 0;
  for (const auto& ofs : built.ofSwitches) {
    for (const openflow::FlowEntry& e : ofs->table().entries()) ofRx += e.packetCount;
  }
  EXPECT_GT(ofRx, 0u);
}

TEST(Builder, CrossbarExtraLatencyScalesWithSubSwitches) {
  // Same projection, two crossbar models: latency difference must equal
  // extra * traversals exactly (deterministic engine).
  const topo::Topology topo = topo::makeLine(4);
  routing::ShortestPathRouting routing(topo);
  projection::PlantConfig cfg;
  cfg.numSwitches = 1;
  cfg.spec = projection::openflow64x100G();
  cfg.hostPortsPerSwitch = 4;
  cfg.interLinksPerPair = 0;
  auto plant = projection::buildPlant(cfg);
  ASSERT_TRUE(plant.ok());
  controller::SdtController ctl(plant.value());
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok());

  Time arrival[2] = {0, 0};
  const CrossbarModel models[2] = {CrossbarModel{0, 0}, CrossbarModel{10, 5}};
  for (int i = 0; i < 2; ++i) {
    Simulator sim;
    auto built = buildProjectedNetwork(sim, topo, dep.value().projection, plant.value(),
                                       dep.value().switches, {}, models[i]);
    built.net->setReceiver(3, [&, i](const Packet&) { arrival[i] = sim.now(); });
    Packet p;
    p.id = 1;
    p.flowId = 1;
    p.srcHost = 0;
    p.dstHost = 3;
    p.payloadBytes = 1000;
    built.net->injectFromHost(0, p);
    sim.run();
  }
  // 4 sub-switches on one crossbar: extra = 10 + 5*3 = 25 ns per traversal;
  // host0 -> host3 crosses the physical switch 4 times (once per sub-switch).
  EXPECT_EQ(arrival[1] - arrival[0], 4 * 25);
}

}  // namespace
}  // namespace sdt::sim
