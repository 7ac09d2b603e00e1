// Tests: the full self-healing loop — fault -> Network Monitor detection ->
// SdtController::repair() re-projection — end to end on live traffic, plus
// the graceful-degradation path when the plant has no spare to heal with.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "controller/controller.hpp"
#include "controller/monitor.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/faults.hpp"
#include "sim/transport.hpp"
#include "testbed/evaluator.hpp"
#include "topo/generators.hpp"

namespace sdt {
namespace {

std::uint64_t faultSeed() {
  const char* env = std::getenv("SDT_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1ULL;
}

/// Walk a (src, dst) header through the programmed tables by hand (the
/// test_controller all-pairs walk, tolerant of misses so it can also prove
/// that severed pairs die on a clean table miss instead of looping).
bool walkDelivers(const controller::Deployment& dep, const topo::Topology& topo,
                  topo::HostId src, topo::HostId dst) {
  projection::PhysPort at = dep.projection.hostPortOf(src);
  for (int hops = 0; hops < 32; ++hops) {
    openflow::PacketHeader h;
    h.inPort = at.port;
    h.dstAddr = static_cast<std::uint32_t>(dst);
    const openflow::ForwardDecision decision = dep.switches[at.sw]->process(h);
    if (!decision.matched || decision.outPort < 0) return false;
    const projection::PhysPort out{at.sw, decision.outPort};
    if (out == dep.projection.hostPortOf(dst)) return true;
    const auto logical = dep.projection.logicalAt(out);
    if (!logical) return false;
    const auto peer = topo.neighborOf(*logical);
    if (!peer) return false;
    at = dep.projection.physOf(*peer);
  }
  return false;  // forwarding loop
}

TEST(Recovery, EndToEndCutDetectRepairKeepsTrafficFlowing) {
  const std::uint64_t seed = faultSeed();
  const topo::Topology topo = topo::makeFatTree(4);
  routing::ShortestPathRouting routing(topo);
  auto plantR = projection::planPlant({&topo}, {.numSwitches = 3});
  ASSERT_TRUE(plantR.ok());
  const projection::Plant& plant = plantR.value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(topo, routing);
  ASSERT_TRUE(depR.ok()) << depR.error().message;
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, topo, dep.projection, plant, dep.switches, {}, {2.0, 1.0});
  sim::Network& net = *built.net;
  sim::TransportManager tm(sim, net, {});

  controller::NetworkMonitor monitor(sim, net, topo, dep.projection);
  monitor.enableFailureDetection(usToNs(60.0));
  monitor.start(usToNs(5.0));

  // Cut a realized self-link mid-flight.
  sim::FaultInjector inj(sim, net, seed);
  inj.attachSwitches(built.ofSwitches);
  int target = -1;
  const auto& rls = dep.projection.realizedLinks();
  for (std::size_t i = 0; i < rls.size(); ++i) {
    if (!rls[i].optical && !rls[i].interSwitch) {
      target = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(target, 0);
  const projection::PhysLink cut = plant.selfLinks[rls[target].physLink];
  const TimeNs cutAt = usToNs(200.0);
  inj.cutCable(cutAt, cut.a.sw, cut.a.port);
  inj.arm();

  // Self-healing hook: first detection of the cut schedules one repair. The
  // cut ports stay down and the monitor reports each end once; the flag
  // keeps the second end's report from repairing again.
  bool repairScheduled = false;
  bool repaired = false;
  controller::RepairReport report;
  monitor.onPortFailure([&](const controller::PortFailure& f) {
    const bool isCut = (f.sw == cut.a.sw && f.port == cut.a.port) ||
                       (f.sw == cut.b.sw && f.port == cut.b.port);
    if (!isCut || repairScheduled) return;
    repairScheduled = true;
    sim.schedule(usToNs(1.0), [&]() {
      controller::FailureSet failures;
      failures.ports = monitor.failedPorts();
      auto repR = ctl.repair(dep, topo, routing, failures);
      ASSERT_TRUE(repR.ok()) << repR.error().message;
      report = repR.value();
      repaired = true;
    });
  });

  const int hosts = topo.numHosts();
  int completed = 0;
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 1 * kMiB,
                    [&completed](sim::Time) { ++completed; });
  }
  sim.runUntil(msToNs(50.0));

  // Detection: both cut ports reported down, within timeout + 2 periods.
  const controller::PortFailure* cutFailure = nullptr;
  for (const controller::PortFailure& f : monitor.portFailures()) {
    if (f.sw == cut.a.sw && f.port == cut.a.port) cutFailure = &f;
  }
  ASSERT_NE(cutFailure, nullptr);
  EXPECT_TRUE(cutFailure->reportedDown);
  EXPECT_TRUE(cutFailure->logicalPort.has_value());
  EXPECT_GE(cutFailure->suspectedAt, cutAt);
  EXPECT_LE(cutFailure->detectedAt - cutAt, usToNs(80.0));

  // Repair: the severed logical link moved onto a spare, incrementally.
  ASSERT_TRUE(repaired);
  EXPECT_GE(report.remappedLinks, 1);
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.severedLinks.empty());
  EXPECT_TRUE(report.unreachablePairs.empty());
  EXPECT_GT(report.flowModsAdded, 0);
  EXPECT_LT(report.flowMods(), report.fullRedeployFlowMods);

  // Traffic: every flow finished despite the mid-flight cut (TCP RTO rides
  // through the outage window onto the repaired path).
  EXPECT_EQ(completed, hosts);
  // And the repaired tables forward every pair again.
  for (topo::HostId src = 0; src < hosts; ++src) {
    for (topo::HostId dst = 0; dst < hosts; ++dst) {
      if (src == dst) continue;
      EXPECT_TRUE(walkDelivers(dep, topo, src, dst)) << src << "->" << dst;
    }
  }
}

TEST(Recovery, NoSpareDegradesGracefullyWithStructuredReport) {
  // A hand-built plant with zero spare capacity: one 16-port switch whose
  // three self-links are all consumed by line(4). (planPlant always wires
  // leftover ports into spare self-links, hence the manual construction.)
  projection::Plant plant;
  plant.switches.push_back(projection::openflow64x100G());
  plant.switches[0].numPorts = 16;
  plant.selfLinks = {{{0, 0}, {0, 1}}, {{0, 2}, {0, 3}}, {{0, 4}, {0, 5}}};
  plant.hostPorts = {{0, 6}, {0, 7}, {0, 8}, {0, 9}};
  ASSERT_TRUE(plant.validate().ok());

  const topo::Topology topo = topo::makeLine(4);
  routing::ShortestPathRouting routing(topo);
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(topo, routing);
  ASSERT_TRUE(depR.ok()) << depR.error().message;
  controller::Deployment dep = std::move(depR).value();

  // Fail the cable carrying the middle logical link (switches 1-2).
  int idx = -1;
  const auto& rls = dep.projection.realizedLinks();
  for (std::size_t i = 0; i < rls.size(); ++i) {
    if (rls[i].logicalLink == 1) idx = static_cast<int>(i);
  }
  ASSERT_GE(idx, 0);
  const projection::PhysLink cable = plant.selfLinks[rls[idx].physLink];
  controller::FailureSet failures;
  failures.ports = {cable.a, cable.b};

  auto repR = ctl.repair(dep, topo, routing, failures);
  ASSERT_TRUE(repR.ok()) << repR.error().message;
  const controller::RepairReport& report = repR.value();

  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.remappedLinks, 0);
  ASSERT_EQ(report.severedLinks.size(), 1u);
  EXPECT_EQ(report.severedLinks[0].logicalLink, 1);
  const std::vector<std::pair<topo::HostId, topo::HostId>> expected{
      {0, 2}, {0, 3}, {1, 2}, {1, 3}};
  EXPECT_EQ(report.unreachablePairs, expected);
  EXPECT_GT(report.flowModsRemoved, 0);  // entries into the dead link withdrawn
  EXPECT_TRUE(report.deadlockChecked);
  EXPECT_TRUE(report.deadlockFree);

  // Surviving pairs still forward; severed pairs die on a clean table miss
  // (no black-holing into the failed ports, no loops).
  EXPECT_TRUE(walkDelivers(dep, topo, 0, 1));
  EXPECT_TRUE(walkDelivers(dep, topo, 2, 3));
  for (const auto& [a, b] : expected) {
    EXPECT_FALSE(walkDelivers(dep, topo, a, b));
    EXPECT_FALSE(walkDelivers(dep, topo, b, a));
  }
}

TEST(Recovery, MonitorDetectsCounterStallUnderTraffic) {
  // Full-testbed mode: a wedged transceiver is not reported down, so only
  // the counter-stall signature (tx frozen + backlog) can catch it.
  const topo::Topology topo = topo::makeLine(3);
  routing::ShortestPathRouting routing(topo);
  testbed::Instance inst = testbed::makeFullTestbed(topo, routing, {});

  controller::NetworkMonitor monitor(*inst.sim, inst.net(), topo);
  monitor.enableFailureDetection(usToNs(20.0));
  monitor.start(usToNs(5.0));

  // Switch 1's port toward switch 2 carries the whole 0->2 stream.
  const topo::Link& link12 = topo.link(1);
  const topo::SwitchPort victim = link12.a.sw == 1 ? link12.a : link12.b;
  ASSERT_EQ(victim.sw, 1);
  sim::FaultInjector inj(*inst.sim, inst.net(), faultSeed());
  inj.stallPort(usToNs(50.0), victim.sw, victim.port);
  inj.arm();

  inst.transport->startTcpFlow(0, 2, -1);  // iperf-style, keeps the queue fed
  inst.sim->runUntil(usToNs(400.0));

  const controller::PortFailure* wedged = nullptr;
  for (const controller::PortFailure& f : monitor.portFailures()) {
    if (f.sw == victim.sw && f.port == victim.port) wedged = &f;
  }
  ASSERT_NE(wedged, nullptr);
  EXPECT_FALSE(wedged->reportedDown);  // signature 2, not loss-of-signal
  EXPECT_FALSE(wedged->logicalPort.has_value());  // full-testbed plane
  EXPECT_GE(wedged->suspectedAt, usToNs(50.0));
  EXPECT_GE(wedged->detectedAt - wedged->suspectedAt, usToNs(20.0));
}

}  // namespace
}  // namespace sdt
