// Recovery benchmark: failure-detection latency and the cost of
// SdtController::repair()'s incremental flow-table diff vs. tearing the
// whole deployment down and redeploying from scratch.
//
// Table II argues SDT reconfigures in 100 ms ~ 1 s because a topology change
// is pure flow-table work; this bench extends the claim to *failures*: a cut
// loopback cable is healed by re-projecting the affected logical links onto
// spare cabling and installing only the table diff, while traffic rides
// through on TCP retransmission. Emits BENCH_recovery.json.
#include <cstdio>

#include "bench_util.hpp"
#include "controller/monitor.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/faults.hpp"
#include "sim/transport.hpp"

using namespace sdt;

namespace {

struct CutOutcome {
  TimeNs detectionLatency = 0;
  controller::RepairReport report;
  int flows = 0;
  int completed = 0;
};

/// One end-to-end self-healing run: cut the `scenario`-th realized self-link
/// at t=200us under a full TCP permutation, let the Network Monitor detect
/// it, repair, and run the traffic to completion.
CutOutcome runCutScenario(int scenario, std::uint64_t seed) {
  CutOutcome out;
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto plantR = projection::planPlant({&topo}, {.numSwitches = 3});
  if (!plantR) std::abort();
  const projection::Plant& plant = plantR.value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(topo, routing);
  if (!depR) std::abort();
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, topo, dep.projection, plant, dep.switches, {}, {2.0, 1.0});
  sim::Network& net = *built.net;
  sim::TransportManager tm(sim, net, {});

  controller::NetworkMonitor monitor(sim, net, topo, dep.projection);
  monitor.enableFailureDetection(usToNs(60.0));
  monitor.start(usToNs(5.0));

  sim::FaultInjector inj(sim, net, seed);
  inj.attachSwitches(built.ofSwitches);
  int target = -1;
  int nthSelf = 0;
  const auto& rls = dep.projection.realizedLinks();
  for (std::size_t i = 0; i < rls.size(); ++i) {
    if (rls[i].optical || rls[i].interSwitch) continue;
    if (nthSelf++ == scenario) {
      target = static_cast<int>(i);
      break;
    }
  }
  if (target < 0) std::abort();
  const projection::PhysLink cut = plant.selfLinks[rls[target].physLink];
  const TimeNs cutAt = usToNs(200.0);
  inj.cutCable(cutAt, cut.a.sw, cut.a.port);
  inj.arm();

  bool repairScheduled = false;
  monitor.onPortFailure([&](const controller::PortFailure& f) {
    const bool isCut = (f.sw == cut.a.sw && f.port == cut.a.port) ||
                       (f.sw == cut.b.sw && f.port == cut.b.port);
    if (!isCut || repairScheduled) return;
    repairScheduled = true;
    out.detectionLatency = f.detectedAt - cutAt;
    sim.schedule(usToNs(1.0), [&]() {
      controller::FailureSet failures;
      failures.ports = monitor.failedPorts();
      auto repR = ctl.repair(dep, topo, routing, failures);
      if (!repR) std::abort();
      out.report = repR.value();
    });
  });

  const int hosts = topo.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 512 * kKiB,
                    [&out](sim::Time) { ++out.completed; });
    ++out.flows;
  }
  sim.runUntil(msToNs(50.0));
  return out;
}

}  // namespace

int main() {
  std::printf("== Recovery: detection latency + incremental repair vs full redeploy ==\n");
  bench::JsonReport report("recovery");

  std::printf("\n%9s %14s %12s %11s %11s %12s %8s\n", "scenario", "detect(us)",
              "repair(ms)", "mods", "full mods", "redeploy(ms)", "speedup");
  bench::printRule(84);
  double sumDetectUs = 0.0;
  double sumRepairMs = 0.0;
  double sumSpeedup = 0.0;
  double sumModsRatio = 0.0;
  int scenarios = 0;
  for (int scenario = 0; scenario < 3; ++scenario) {
    const CutOutcome out = runCutScenario(scenario, 1 + scenario);
    const TimeNs fullRedeploy =
        projection::reconfigTime(projection::TpMethod::kSDT, out.report.fullRedeployFlowMods);
    const double detectUs = static_cast<double>(out.detectionLatency) / 1e3;
    const double repairMs = static_cast<double>(out.report.repairTime) / 1e6;
    const double redeployMs = static_cast<double>(fullRedeploy) / 1e6;
    const double speedup = redeployMs / repairMs;
    std::printf("%9d %14.1f %12.2f %11d %11d %12.2f %7.1fx\n", scenario, detectUs,
                repairMs, out.report.flowMods(), out.report.fullRedeployFlowMods,
                redeployMs, speedup);
    if (out.completed != out.flows) {
      std::printf("  WARN: only %d/%d flows completed\n", out.completed, out.flows);
    }
    report.row("cut_scenarios",
               {{"scenario", scenario},
                {"detection_latency_us", detectUs},
                {"repair_ms", repairMs},
                {"flow_mods", out.report.flowMods()},
                {"full_redeploy_flow_mods", out.report.fullRedeployFlowMods},
                {"full_redeploy_ms", redeployMs},
                {"remapped_links", out.report.remappedLinks},
                {"flows_completed", out.completed == out.flows}});
    sumDetectUs += detectUs;
    sumRepairMs += repairMs;
    sumSpeedup += speedup;
    sumModsRatio += static_cast<double>(out.report.flowMods()) /
                    static_cast<double>(out.report.fullRedeployFlowMods);
    ++scenarios;
  }
  bench::printRule(84);

  report.set("detection_latency_us_mean", sumDetectUs / scenarios);
  report.set("repair_ms_mean", sumRepairMs / scenarios);
  report.set("repair_speedup_vs_redeploy_mean", sumSpeedup / scenarios);
  report.set("flow_mod_fraction_mean", sumModsRatio / scenarios);
  std::printf("mean: detect %.1f us | repair %.2f ms | %.1fx faster than redeploy "
              "(%.1f%% of the flow-mods)\n",
              sumDetectUs / scenarios, sumRepairMs / scenarios, sumSpeedup / scenarios,
              100.0 * sumModsRatio / scenarios);

  // Switch-crash repair (controller-level): the wiped table is exactly the
  // diff, so repair reinstalls one switch instead of all three.
  {
    const topo::Topology topo = topo::makeFatTree(4);
    const routing::ShortestPathRouting routing(topo);
    auto plantR = projection::planPlant({&topo}, {.numSwitches = 3});
    if (!plantR) return 1;
    controller::SdtController ctl(plantR.value());
    auto depR = ctl.deploy(topo, routing);
    if (!depR) return 1;
    controller::Deployment dep = std::move(depR).value();
    dep.switches[1]->table().clear();
    auto repR = ctl.repair(dep, topo, routing, controller::FailureSet{});
    if (!repR) return 1;
    const double repairMs = static_cast<double>(repR.value().repairTime) / 1e6;
    const TimeNs fullRedeploy = projection::reconfigTime(
        projection::TpMethod::kSDT, repR.value().fullRedeployFlowMods);
    std::printf("\nswitch crash: reinstalled %d entries in %.2f ms (full redeploy: "
                "%.2f ms)\n",
                repR.value().flowModsAdded, repairMs,
                static_cast<double>(fullRedeploy) / 1e6);
    report.set("crash_repair_ms", repairMs);
    report.set("crash_repair_flow_mods", repR.value().flowModsAdded);
    report.set("crash_full_redeploy_ms", static_cast<double>(fullRedeploy) / 1e6);
  }

  report.write();
  return 0;
}
