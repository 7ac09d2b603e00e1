// Tests: deterministic fault injection (sim/faults.hpp) and its interplay
// with the controller's incremental repair.
//
// The injector's contract is the engine's: a run with a fault schedule is
// bit-identical across repeats and across serial vs. SweepRunner-parallel
// sweeps. SDT_FAULT_SEED (the CI fault-soak knob) selects the injector seed
// so the same binary can be soaked under several deterministic schedules.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/hash.hpp"
#include "controller/controller.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/faults.hpp"
#include "sim/transport.hpp"
#include "testbed/evaluator.hpp"
#include "testbed/sweep.hpp"
#include "topo/generators.hpp"

namespace sdt {
namespace {

std::uint64_t faultSeed() {
  const char* env = std::getenv("SDT_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1ULL;
}

struct FaultFingerprint {
  int completed = 0;          ///< TCP flows that finished inside the horizon
  std::int64_t delivered = 0; ///< application bytes delivered over all flows
  std::uint64_t faultDrops = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t portHash = 0;  ///< FNV-1a over every PortCounters field
  std::uint64_t traceHash = 0; ///< FNV-1a over the applied-fault trace

  bool operator==(const FaultFingerprint&) const = default;
};

/// One SDT-mode experiment under a fixed fault schedule: a cable cut that
/// heals, a wedged transceiver, and an impaired host-facing port, with TCP
/// traffic riding through all of it (TCP because go-back-N retransmission
/// survives the losses; RoCE has no retransmit and would wedge forever).
FaultFingerprint runFaultPoint(std::uint64_t seed, std::int64_t flowBytes) {
  FaultFingerprint fp;
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  EXPECT_TRUE(plant.ok());
  auto instR = testbed::makeSdt(topo, routing, plant.value(), {});
  EXPECT_TRUE(instR.ok()) << instR.error().message;
  testbed::Instance& inst = instR.value();
  const projection::Projection& proj = inst.deployment->projection;
  const projection::Plant& pl = plant.value();

  sim::FaultInjector inj(*inst.sim, inst.net(), seed);
  inj.attachSwitches(inst.built.ofSwitches);
  std::vector<projection::PhysLink> fabric;
  for (const projection::RealizedLink& rl : proj.realizedLinks()) {
    if (rl.optical) continue;
    fabric.push_back(rl.interSwitch ? pl.interLinks[rl.physLink]
                                    : pl.selfLinks[rl.physLink]);
    if (fabric.size() == 2) break;
  }
  if (fabric.size() < 2) {
    ADD_FAILURE() << "expected at least two realized fabric links";
    return fp;
  }
  inj.cutCable(usToNs(40.0), fabric[0].a.sw, fabric[0].a.port);
  inj.restoreCable(usToNs(260.0), fabric[0].a.sw, fabric[0].a.port);
  inj.stallPort(usToNs(60.0), fabric[1].a.sw, fabric[1].a.port);
  inj.unstallPort(usToNs(200.0), fabric[1].a.sw, fabric[1].a.port);
  // Impair the switch port receiving everything host 0 sends, so the
  // probabilistic draws are guaranteed a packet stream to chew on.
  const projection::PhysPort h0 = proj.hostPortOf(0);
  inj.impairPort(usToNs(10.0), h0.sw, h0.port, 0.2, 0.2);
  inj.arm();

  sim::TransportManager& tm = *inst.transport;
  const int hosts = topo.numHosts();
  std::vector<std::uint64_t> flows;
  flows.reserve(static_cast<std::size_t>(hosts));
  for (int h = 0; h < hosts; ++h) {
    const int dst = (h + hosts / 2) % hosts;  // self-free permutation
    flows.push_back(tm.startTcpFlow(h, dst, flowBytes,
                                    [&fp](sim::Time) { ++fp.completed; }));
  }
  inst.sim->runUntil(msToNs(20.0));

  for (const std::uint64_t id : flows) fp.delivered += tm.tcpDeliveredBytes(id);
  fp.faultDrops = inst.net().faultDrops();
  hash::Fnv64 h;
  sim::Network& net = inst.net();
  for (int sw = 0; sw < net.numSwitches(); ++sw) {
    for (int p = 0; p < net.switchPortCount(sw); ++p) {
      const sim::PortCounters& c = net.switchPortCounters(sw, p);
      for (const std::uint64_t v :
           {c.txPackets, c.txBytes, c.rxPackets, c.rxBytes, c.drops, c.pausesSent,
            c.ecnMarks, c.faultDrops, c.corruptedPackets}) {
        h.mix(v);
      }
      fp.corrupted += c.corruptedPackets;
    }
  }
  fp.portHash = h.value();
  hash::Fnv64 t;
  for (const sim::AppliedFault& f : inj.trace()) {
    t.mix(static_cast<std::uint64_t>(f.at))
        .mix(static_cast<std::uint64_t>(f.kind))
        .mix(static_cast<std::uint64_t>(f.sw))
        .mix(static_cast<std::uint64_t>(f.port))
        .mix(static_cast<std::uint64_t>(f.peerSw))
        .mix(static_cast<std::uint64_t>(f.peerPort));
  }
  fp.traceHash = t.value();
  return fp;
}

TEST(Faults, SameSeedRunsBitIdentical) {
  const std::uint64_t seed = faultSeed();
  const FaultFingerprint a = runFaultPoint(seed, 16 * kKiB);
  const FaultFingerprint b = runFaultPoint(seed, 16 * kKiB);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.faultDrops, 0u);  // the impaired/dead ports really dropped
  EXPECT_GT(a.corrupted, 0u);   // and really damaged frames
  EXPECT_GT(a.delivered, 0);    // yet TCP kept making progress
}

TEST(Faults, DistinctSeedsDiverge) {
  const std::uint64_t seed = faultSeed();
  // Same schedule, different impairment draws: the applied-fault trace is
  // identical but the packet-level outcome must not be.
  const FaultFingerprint a = runFaultPoint(seed, 16 * kKiB);
  const FaultFingerprint b = runFaultPoint(seed + 1, 16 * kKiB);
  EXPECT_EQ(a.traceHash, b.traceHash);
  EXPECT_NE(a, b);
}

TEST(Faults, SerialAndParallelSweepsBitIdentical) {
  const std::uint64_t seed = faultSeed();
  struct Point {
    std::uint64_t seed;
    std::int64_t bytes;
  };
  const std::vector<Point> points{
      {seed, 8 * kKiB}, {seed + 1, 8 * kKiB}, {seed, 24 * kKiB}};

  std::vector<FaultFingerprint> serial;
  serial.reserve(points.size());
  for (const Point& p : points) serial.push_back(runFaultPoint(p.seed, p.bytes));

  const testbed::SweepRunner sweep(4);
  const std::vector<FaultFingerprint> threaded = sweep.run(
      points.size(),
      [&](std::size_t i) { return runFaultPoint(points[i].seed, points[i].bytes); });

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(threaded[i], serial[i]) << "point " << i << " diverged";
  }
  EXPECT_NE(serial[0], serial[1]);  // seeds must matter, or the above is vacuous
}

TEST(Faults, CableCutDownsBothPeerPortsAndRestores) {
  const topo::Topology topo = topo::makeLine(2);
  routing::ShortestPathRouting routing(topo);
  projection::PlantConfig cfg;
  cfg.numSwitches = 1;
  cfg.hostPortsPerSwitch = 2;
  cfg.interLinksPerPair = 0;
  auto plant = projection::buildPlant(cfg);
  ASSERT_TRUE(plant.ok());
  controller::SdtController ctl(plant.value());
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok()) << dep.error().message;

  sim::Simulator sim;
  auto built = sim::buildProjectedNetwork(sim, topo, dep.value().projection,
                                          plant.value(), dep.value().switches, {}, {});
  const projection::RealizedLink& rl = dep.value().projection.realizedLinks().at(0);
  ASSERT_FALSE(rl.interSwitch);
  const projection::PhysLink cable = plant.value().selfLinks[rl.physLink];

  sim::FaultInjector inj(sim, *built.net, faultSeed());
  inj.apply({0, sim::FaultKind::kCableCut, cable.a.sw, cable.a.port});
  EXPECT_FALSE(built.net->isPortUp(cable.a.sw, cable.a.port));
  EXPECT_FALSE(built.net->isPortUp(cable.b.sw, cable.b.port));
  ASSERT_EQ(inj.trace().size(), 1u);
  EXPECT_EQ(inj.trace()[0].kind, sim::FaultKind::kCableCut);
  EXPECT_EQ(inj.trace()[0].peerSw, cable.b.sw);
  EXPECT_EQ(inj.trace()[0].peerPort, cable.b.port);

  inj.apply({0, sim::FaultKind::kCableRestore, cable.a.sw, cable.a.port});
  EXPECT_TRUE(built.net->isPortUp(cable.a.sw, cable.a.port));
  EXPECT_TRUE(built.net->isPortUp(cable.b.sw, cable.b.port));
}

TEST(Faults, SwitchCrashRepairReinstallsExactTable) {
  const topo::Topology topo = topo::makeFatTree(4);
  routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  ASSERT_TRUE(plant.ok());
  controller::SdtController ctl(plant.value());
  auto depR = ctl.deploy(topo, routing);
  ASSERT_TRUE(depR.ok()) << depR.error().message;
  controller::Deployment dep = std::move(depR).value();

  const int crashed = 1;
  const std::vector<openflow::FlowEntry> fresh = dep.switches[crashed]->table().entries();
  ASSERT_FALSE(fresh.empty());
  dep.switches[crashed]->table().clear();  // power cycle: table gone

  controller::FailureSet failures;
  failures.crashedSwitches = {crashed};
  auto repR = ctl.repair(dep, topo, routing, failures);
  ASSERT_TRUE(repR.ok()) << repR.error().message;
  const controller::RepairReport& report = repR.value();

  // Differential: the repaired table must be the fresh-deploy table, entry
  // for entry and in the same order (priorities are uniform, FlowTable::add
  // is stable, the recompile is deterministic).
  const std::vector<openflow::FlowEntry>& entries = dep.switches[crashed]->table().entries();
  ASSERT_EQ(entries.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_TRUE(openflow::sameRule(entries[i], fresh[i])) << "entry " << i;
  }
  EXPECT_EQ(report.remappedLinks, 0);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.flowModsRemoved, 0);
  EXPECT_EQ(report.flowModsAdded, static_cast<int>(fresh.size()));
  EXPECT_LT(report.flowMods(), report.fullRedeployFlowMods);
  EXPECT_EQ(report.repairTime,
            projection::reconfigTime(projection::TpMethod::kSDT, report.flowMods()));
}

}  // namespace
}  // namespace sdt
