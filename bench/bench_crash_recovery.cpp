// Crash-recovery benchmark: the cost of a controller cold start — journal
// replay, per-switch flow-stats readback, and anti-entropy reconciliation —
// as a function of where the controller died and how hostile the control
// channel is.
//
// The headline number is the incremental-repair ratio: how many flow-mods
// reconciliation actually sends versus the trust-nothing alternative (wipe
// every table, reinstall the whole target intent). A crash at prepare needs
// nearly nothing; a crash mid-install plus a switch power-cycle approaches —
// but should not exceed — the full-redeploy cost. Emits
// BENCH_crash_recovery.json.
#include <cstdio>

#include "bench_util.hpp"
#include "controller/controller.hpp"
#include "controller/journal.hpp"
#include "controller/recovery.hpp"
#include "controller/transaction.hpp"
#include "routing/shortest_path.hpp"
#include "sim/control_channel.hpp"

using namespace sdt;

namespace {

struct RecoveryOutcome {
  bool converged = false;
  int decision = 0;
  int flowMods = 0;
  int fullRedeployMods = 0;
  int statsRounds = 0;
  int retries = 0;
  int switchesDrifted = 0;
  int switchesRebooted = 0;
  TimeNs convergence = 0;
};

/// One crash + cold-start recovery on the line(6) -> ring(6) rig (4 physical
/// switches so readback fans out), with `rebootOne` optionally power-cycling
/// a switch while the controller is down.
RecoveryOutcome runCrashRecover(std::uint64_t seed, controller::CrashPoint crashAt,
                                const sim::ControlChannelConfig& cfg,
                                bool rebootOne) {
  RecoveryOutcome out;
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  const routing::ShortestPathRouting rFrom(from);
  const routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  if (!plantR) std::abort();
  const projection::Plant& plant = plantR.value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  if (!depR) std::abort();
  controller::Deployment dep = std::move(depR).value();

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  if (!controller::journalDeploy(journal, dep, 0)) std::abort();

  sim::Simulator sim;
  sim::ControlChannel channel(sim, seed, cfg);
  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  if (!planR) std::abort();

  controller::ReconfigOptions topt;
  topt.journal = &journal;
  topt.crashAt = crashAt;
  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value(),
                                     topt);
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));
  if (!tx.finished()) std::abort();
  if (rebootOne) dep.switches[0]->reboot();

  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  auto rplanR = controller::planRecovery(ctl, journal, catalog, dopt);
  if (!rplanR) std::abort();
  out.decision = static_cast<int>(rplanR.value().decision);

  controller::RecoveryOptions ropt;
  ropt.journal = &journal;
  ropt.retrySeed = seed;
  controller::RecoveryRun recovery(sim, channel, dep.switches,
                                   std::move(rplanR).value(), ropt);
  recovery.start();
  sim.runUntil(sim.now() + msToNs(100.0));
  const controller::RecoveryReport& r = recovery.report();
  out.converged = r.converged && r.pureStateVerified;
  out.flowMods = r.flowMods;
  out.fullRedeployMods = r.fullRedeployFlowMods;
  out.statsRounds = r.statsRounds;
  out.retries = r.retriesTotal;
  out.switchesDrifted = r.switchesDrifted;
  out.switchesRebooted = r.switchesRebooted;
  out.convergence = r.convergenceTime();
  return out;
}

const char* decisionLabel(int d) {
  return controller::recoveryDecisionName(
      static_cast<controller::RecoveryDecision>(d));
}

}  // namespace

int main() {
  std::printf("== Crash recovery: cold-start reconciliation cost ==\n");
  bench::JsonReport report("crash_recovery");

  const controller::CrashPoint points[] = {
      controller::CrashPoint::kPrepare, controller::CrashPoint::kMidInstall,
      controller::CrashPoint::kPreFlip, controller::CrashPoint::kPostFlip,
      controller::CrashPoint::kMidGc};

  // Sweep the crash point on a clean channel, with and without a switch
  // power-cycle during the outage.
  for (const bool reboot : {false, true}) {
    std::printf("\n-- crash-point sweep (%s) --\n",
                reboot ? "one switch power-cycled" : "switches intact");
    std::printf("%12s %14s %8s %10s %8s %10s %12s\n", "crash at", "decision",
                "mods", "full mods", "rounds", "drifted", "converge(us)");
    bench::printRule(80);
    for (const controller::CrashPoint p : points) {
      const RecoveryOutcome out = runCrashRecover(2023, p, {}, reboot);
      if (!out.converged) {
        std::printf("  WARN: %s did not converge\n", controller::crashPointName(p));
        continue;
      }
      const double convergeUs = static_cast<double>(out.convergence) / 1e3;
      std::printf("%12s %14s %8d %10d %8d %10d %12.1f\n",
                  controller::crashPointName(p), decisionLabel(out.decision),
                  out.flowMods, out.fullRedeployMods, out.statsRounds,
                  out.switchesDrifted + out.switchesRebooted, convergeUs);
      report.row(reboot ? "crash_sweep_rebooted" : "crash_sweep",
                 {{"crash_at", controller::crashPointName(p)},
                  {"decision", decisionLabel(out.decision)},
                  {"flow_mods", out.flowMods},
                  {"full_redeploy_flow_mods", out.fullRedeployMods},
                  {"stats_rounds", out.statsRounds},
                  {"switches_drifted", out.switchesDrifted},
                  {"switches_rebooted", out.switchesRebooted},
                  {"convergence_us", convergeUs}});
      if (!reboot && p == controller::CrashPoint::kPostFlip) {
        report.set("post_flip_flow_mods", out.flowMods);
        report.set("post_flip_full_redeploy_flow_mods", out.fullRedeployMods);
        report.set("post_flip_incremental_fraction",
                   out.fullRedeployMods > 0
                       ? static_cast<double>(out.flowMods) /
                             static_cast<double>(out.fullRedeployMods)
                       : 0.0);
        report.set("post_flip_convergence_us", convergeUs);
      }
    }
  }

  // Channel-hostility sweep at the nastiest crash point (post-flip): how
  // much do readback retries and extra verify rounds cost?
  std::printf("\n-- channel sweep at post-flip crash --\n");
  std::printf("%8s %8s %8s %9s %12s\n", "drop", "mods", "rounds", "retries",
              "converge(us)");
  bench::printRule(52);
  for (const double drop : {0.0, 0.1, 0.2, 0.3}) {
    sim::ControlChannelConfig cfg;
    cfg.dropProb = drop;
    cfg.dupProb = drop / 2;
    cfg.reorderProb = drop / 2;
    const RecoveryOutcome out =
        runCrashRecover(2023, controller::CrashPoint::kPostFlip, cfg, true);
    if (!out.converged) {
      std::printf("  WARN: drop=%.1f did not converge\n", drop);
      continue;
    }
    const double convergeUs = static_cast<double>(out.convergence) / 1e3;
    std::printf("%8.1f %8d %8d %9d %12.1f\n", drop, out.flowMods, out.statsRounds,
                out.retries, convergeUs);
    report.row("channel_sweep", {{"drop_prob", drop},
                                 {"flow_mods", out.flowMods},
                                 {"stats_rounds", out.statsRounds},
                                 {"retries", out.retries},
                                 {"convergence_us", convergeUs}});
  }

  report.write();
  return 0;
}
