// Controller-HA failover benchmark: kill the leader at every CrashPoint of a
// live line(6) -> ring(6) reconfiguration and measure what the replication
// stream buys over a cold start.
//
// Three headline numbers per crash point:
//   - takeover window: lease expiry -> a standby claims the fabric;
//   - outage: lease expiry -> converged tables under the new term;
//   - flow-mods: what the journal-driven failover recovery sent, against the
//     trust-nothing cold-start alternative (wipe + reinstall the intent) —
//     the stream must make failover strictly cheaper.
// A lease-interval sweep shows the takeover window tracking the lease (the
// availability/false-failover knob). Emits BENCH_failover.json.
#include <cstdio>

#include "bench_util.hpp"
#include "controller/controller.hpp"
#include "controller/ha.hpp"
#include "controller/journal.hpp"
#include "controller/recovery.hpp"
#include "controller/transaction.hpp"
#include "routing/shortest_path.hpp"
#include "sim/control_channel.hpp"

using namespace sdt;

namespace {

struct FailoverOutcome {
  bool converged = false;
  int decision = 0;
  int flowMods = 0;
  int coldStartMods = 0;  ///< full-redeploy cost of the same recovery
  std::uint64_t framesStreamed = 0;
  std::uint64_t fencedWrites = 0;
  TimeNs takeoverWindow = 0;  ///< lease expiry -> claim
  TimeNs outage = 0;          ///< lease expiry -> converged tables
};

/// One leader kill on the line(6) -> ring(6) rig: the transaction crashes the
/// leader at `crashAt`; replica 1 must notice the silence, claim, fence, and
/// converge from its streamed journal replica.
FailoverOutcome runFailover(std::uint64_t seed, controller::CrashPoint crashAt,
                            TimeNs leaseInterval, double fabricDrop) {
  FailoverOutcome out;
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  const routing::ShortestPathRouting rFrom(from);
  const routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  if (!plantR) std::abort();
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  if (!depR) std::abort();

  sim::Simulator sim;
  sim::ControlChannelConfig fcfg;
  fcfg.dropProb = fabricDrop;
  fcfg.dupProb = fabricDrop / 2;
  fcfg.reorderProb = fabricDrop / 2;
  sim::ControlChannel fabric(sim, seed, fcfg);
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, seed + 101, rcfg);

  controller::HaConfig hcfg;
  hcfg.deploy.requireDeadlockFree = false;
  hcfg.retrySeed = seed;
  if (leaseInterval > 0) hcfg.leaseInterval = leaseInterval;
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 3, hcfg);
  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  ha.setCatalog(catalog);
  if (!ha.adoptDeployment(std::move(depR).value())) std::abort();
  ha.start();

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(ha.deployment(), to, rTo, dopt);
  if (!planR) std::abort();
  controller::ReconfigOptions topt;
  topt.journal = &ha.leaderJournal();
  topt.term = ha.termOf(ha.leaderId());
  topt.leaderId = ha.leaderId();
  topt.crashAt = crashAt;
  topt.onCrash = [&ha]() { ha.kill(ha.leaderId()); };
  controller::ReconfigTransaction tx(sim, fabric, ha.deployment(),
                                     std::move(planR).value(), topt);
  sim.schedule(usToNs(100.0), [&tx]() { tx.start(); });
  sim.runUntil(msToNs(120.0));

  if (ha.failovers().empty()) return out;
  const controller::FailoverReport& report = ha.failovers().front();
  out.converged = report.converged && report.recovery.pureStateVerified;
  out.decision = static_cast<int>(report.recovery.decision);
  out.flowMods = report.recovery.flowMods;
  out.coldStartMods = report.recovery.fullRedeployFlowMods;
  out.framesStreamed = ha.status(report.newLeader).framesReceived;
  out.fencedWrites = ha.fencedWritesTotal();
  out.takeoverWindow = report.takeoverStartedAt - report.leaseExpiredAt;
  out.outage = report.takeoverWindow();
  return out;
}

}  // namespace

int main() {
  std::printf("== Controller HA: leader-kill failover cost ==\n");
  bench::JsonReport report("failover");

  const controller::CrashPoint points[] = {
      controller::CrashPoint::kPrepare, controller::CrashPoint::kMidInstall,
      controller::CrashPoint::kPreFlip, controller::CrashPoint::kPostFlip,
      controller::CrashPoint::kMidGc};

  // Crash-point sweep on clean and lossy fabrics. The replication channel is
  // kept intact — it models the controllers' management network, not the
  // fabric under reconfiguration.
  bool allCheaper = true;
  for (const double drop : {0.0, 0.15}) {
    std::printf("\n-- leader killed at each crash point (fabric drop %.2f) --\n",
                drop);
    std::printf("%12s %14s %12s %10s %8s %10s %8s\n", "crash at", "decision",
                "takeover(us)", "outage(us)", "mods", "cold mods", "frames");
    bench::printRule(84);
    for (const controller::CrashPoint p : points) {
      const FailoverOutcome out = runFailover(2023, p, 0, drop);
      if (!out.converged) {
        std::printf("  WARN: %s did not converge\n", controller::crashPointName(p));
        allCheaper = false;
        continue;
      }
      const double takeoverUs = static_cast<double>(out.takeoverWindow) / 1e3;
      const double outageUs = static_cast<double>(out.outage) / 1e3;
      std::printf("%12s %14s %12.1f %10.1f %8d %10d %8llu\n",
                  controller::crashPointName(p),
                  controller::recoveryDecisionName(
                      static_cast<controller::RecoveryDecision>(out.decision)),
                  takeoverUs, outageUs, out.flowMods, out.coldStartMods,
                  static_cast<unsigned long long>(out.framesStreamed));
      allCheaper = allCheaper && out.flowMods < out.coldStartMods;
      report.row(drop > 0 ? "crash_sweep_lossy" : "crash_sweep",
                 {{"crash_at", controller::crashPointName(p)},
                  {"decision",
                   controller::recoveryDecisionName(
                       static_cast<controller::RecoveryDecision>(out.decision))},
                  {"takeover_window_us", takeoverUs},
                  {"outage_us", outageUs},
                  {"flow_mods", out.flowMods},
                  {"cold_start_flow_mods", out.coldStartMods},
                  {"frames_streamed", static_cast<std::int64_t>(out.framesStreamed)},
                  {"fenced_writes", static_cast<std::int64_t>(out.fencedWrites)}});
      if (drop == 0.0 && p == controller::CrashPoint::kPostFlip) {
        report.set("post_flip_takeover_window_us", takeoverUs);
        report.set("post_flip_outage_us", outageUs);
        report.set("post_flip_flow_mods", out.flowMods);
        report.set("post_flip_cold_start_flow_mods", out.coldStartMods);
        report.set("post_flip_savings_fraction",
                   out.coldStartMods > 0
                       ? 1.0 - static_cast<double>(out.flowMods) /
                                   static_cast<double>(out.coldStartMods)
                       : 0.0);
      }
    }
  }
  report.set("all_cheaper_than_cold_start", allCheaper);

  // Lease sweep: the takeover window is bounded by the lease the operator
  // picks — shorter lease, faster failover, touchier to heartbeat loss.
  std::printf("\n-- lease-interval sweep at post-flip crash --\n");
  std::printf("%10s %14s %12s\n", "lease(us)", "takeover(us)", "outage(us)");
  bench::printRule(40);
  for (const double leaseUs : {1'000.0, 2'000.0, 5'000.0}) {
    const FailoverOutcome out = runFailover(
        2023, controller::CrashPoint::kPostFlip, usToNs(leaseUs), 0.0);
    if (!out.converged) {
      std::printf("  WARN: lease=%.0fus did not converge\n", leaseUs);
      continue;
    }
    const double takeoverUs = static_cast<double>(out.takeoverWindow) / 1e3;
    const double outageUs = static_cast<double>(out.outage) / 1e3;
    std::printf("%10.0f %14.1f %12.1f\n", leaseUs, takeoverUs, outageUs);
    report.row("lease_sweep", {{"lease_us", leaseUs},
                               {"takeover_window_us", takeoverUs},
                               {"outage_us", outageUs}});
  }

  report.write();
  return 0;
}
