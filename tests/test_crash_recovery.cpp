// Tests: controller crash recovery — the write-ahead journal's replay
// decision (roll forward / roll back / reinstall), switch table readback
// over the lossy control channel, and anti-entropy reconciliation.
//
// The invariant under test everywhere: whatever instant the controller dies
// at, and whatever the channel or a switch power-cycle did meanwhile,
// recover() converges the fabric to a SINGLE-epoch state that exactly
// matches either the old or the new journaled intent — never a mix, never a
// third thing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "controller/journal.hpp"
#include "controller/monitor.hpp"
#include "controller/recovery.hpp"
#include "controller/table_diff.hpp"
#include "controller/transaction.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/consistency.hpp"
#include "sim/control_channel.hpp"
#include "sim/faults.hpp"
#include "sim/transport.hpp"
#include "topo/generators.hpp"

namespace sdt {
namespace {

std::uint64_t faultSeed() {
  const char* env = std::getenv("SDT_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1ULL;
}

/// All-pairs table walk (same helper as test_reconfig).
bool walkDelivers(const controller::Deployment& dep, const topo::Topology& topo,
                  topo::HostId src, topo::HostId dst) {
  projection::PhysPort at = dep.projection.hostPortOf(src);
  for (int hops = 0; hops < 32; ++hops) {
    openflow::PacketHeader h;
    h.inPort = at.port;
    h.srcAddr = static_cast<std::uint32_t>(src);
    h.dstAddr = static_cast<std::uint32_t>(dst);
    const openflow::ForwardDecision decision = dep.switches[at.sw]->process(h, 100);
    if (!decision.matched || decision.drop) return false;
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

bool allPairsDeliver(const controller::Deployment& dep, const topo::Topology& topo) {
  for (topo::HostId src = 0; src < topo.numHosts(); ++src) {
    for (topo::HostId dst = 0; dst < topo.numHosts(); ++dst) {
      if (src != dst && !walkDelivers(dep, topo, src, dst)) return false;
    }
  }
  return true;
}

/// Every switch holds rules of exactly `epoch` and stamps it at ingress.
bool pureEpoch(const std::vector<std::shared_ptr<openflow::Switch>>& switches,
               std::uint32_t epoch) {
  for (const auto& ofs : switches) {
    if (ofs->ingressEpoch() != epoch) return false;
    if (ofs->table().countEpoch(epoch) != ofs->table().size()) return false;
  }
  return true;
}

/// Epoch-insensitive exact-match check: the recovered tables hold the same
/// rules an independent fresh deploy of `topo` would install, per switch.
bool tablesMatchFreshDeploy(const controller::Deployment& actual,
                            const projection::Plant& plant,
                            const topo::Topology& topo,
                            const routing::RoutingAlgorithm& routing) {
  controller::SdtController ref(plant);
  controller::DeployOptions opt;
  opt.requireDeadlockFree = false;  // ring + shortest path: cyclic CDG
  auto refDep = ref.deploy(topo, routing, opt);
  if (!refDep.ok()) return false;
  for (std::size_t s = 0; s < actual.switches.size(); ++s) {
    const controller::detail::TableDiff diff = controller::detail::diffEntries(
        actual.switches[s]->table().entries(),
        refDep.value().switches[s]->table().entries());
    if (!diff.toRemove.empty() || !diff.toAdd.empty()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The crash matrix: every CrashPoint x {clean channel, lossy channel, one
// switch rebooted while the controller is down}. Each cell is a full life:
// deploy line(6), journal it, start the line->ring transaction with an
// injected crash, optionally power-cycle a switch, then cold-start recovery
// from the journal and the (distrusted) fabric alone.
// ---------------------------------------------------------------------------

enum class Disturbance { kCleanChannel, kLossyChannel, kSwitchRebooted };

struct MatrixOutcome {
  bool txCrashed = false;
  bool recovered = false;
  bool pure = false;
  bool exactMatch = false;
  bool delivers = false;
  bool journalClean = false;  ///< post-recovery replay: closed tx, target live
  controller::RecoveryDecision decision = controller::RecoveryDecision::kNone;
  std::uint32_t targetEpoch = 0;
  std::string topology;
  controller::RecoveryReport report;
};

MatrixOutcome runMatrixCell(controller::CrashPoint crashAt, Disturbance disturb,
                            std::uint64_t seed) {
  MatrixOutcome out;
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  if (!plantR.ok()) return out;
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  if (!depR.ok()) return out;
  controller::Deployment dep = std::move(depR).value();

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  if (!controller::journalDeploy(journal, dep, 0).ok()) return out;

  sim::Simulator sim;
  sim::ControlChannelConfig ccfg;
  if (disturb == Disturbance::kLossyChannel) {
    ccfg.dropProb = 0.15;
    ccfg.dupProb = 0.15;
    ccfg.reorderProb = 0.15;
  }
  sim::ControlChannel channel(sim, seed, ccfg);

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  if (!planR.ok()) return out;

  controller::ReconfigOptions topt;
  topt.journal = &journal;
  topt.crashAt = crashAt;
  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value(),
                                     topt);
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));
  if (!tx.finished()) return out;  // txCrashed stays false; cell fails
  out.txCrashed = tx.crashed();

  if (disturb == Disturbance::kSwitchRebooted) {
    dep.switches[seed % dep.switches.size()]->reboot();
  }

  // --- The crashed controller process is gone; only `journal` and the live
  // switches survive. Plan and run recovery from those alone. ---
  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  auto rplanR = controller::planRecovery(ctl, journal, catalog, dopt);
  if (!rplanR.ok()) return out;
  out.decision = rplanR.value().decision;
  out.targetEpoch = rplanR.value().targetEpoch;
  out.topology = rplanR.value().topology;

  controller::RecoveryOptions ropt;
  ropt.journal = &journal;
  ropt.retrySeed = seed;
  controller::RecoveryRun recovery(sim, channel, dep.switches,
                                   std::move(rplanR).value(), ropt);
  recovery.start();
  sim.runUntil(sim.now() + msToNs(100.0));
  if (!recovery.finished()) return out;
  out.report = recovery.report();
  out.recovered = out.report.converged && out.report.pureStateVerified;
  if (!out.recovered) return out;

  const controller::Deployment converged = recovery.takeDeployment();
  out.pure = pureEpoch(converged.switches, out.targetEpoch);
  const bool forward = out.topology == to.name();
  const topo::Topology& winner = forward ? to : from;
  const routing::RoutingAlgorithm& winnerRouting =
      forward ? static_cast<const routing::RoutingAlgorithm&>(rTo) : rFrom;
  out.exactMatch = tablesMatchFreshDeploy(converged, plant, winner, winnerRouting);
  out.delivers = allPairsDeliver(converged, winner);

  auto replayed = journal.replay();
  out.journalClean = replayed.ok() && !replayed.value().state.txOpen &&
                     replayed.value().state.epoch == out.targetEpoch &&
                     replayed.value().state.topology == out.topology;
  return out;
}

class CrashMatrix
    : public ::testing::TestWithParam<std::tuple<controller::CrashPoint,
                                                 Disturbance>> {};

TEST_P(CrashMatrix, RecoveryConvergesToExactlyOldOrNewIntent) {
  const auto [crashAt, disturb] = GetParam();
  const MatrixOutcome out = runMatrixCell(crashAt, disturb, faultSeed());
  ASSERT_TRUE(out.txCrashed)
      << "transaction did not reach crash point " <<
      controller::crashPointName(crashAt);
  ASSERT_TRUE(out.recovered) << out.report.failure;

  // Which side of the commit point the crash fell on dictates the decision:
  // a journaled flip marker means some ingress may already stamp the new
  // epoch, so recovery may only roll forward; no marker proves no packet
  // ever saw the new epoch, so it rolls back.
  const bool pastCommit = crashAt == controller::CrashPoint::kPostFlip ||
                          crashAt == controller::CrashPoint::kMidGc;
  EXPECT_EQ(out.decision, pastCommit ? controller::RecoveryDecision::kRollForward
                                     : controller::RecoveryDecision::kRollBack);
  EXPECT_EQ(out.targetEpoch, pastCommit ? 2u : 1u);

  EXPECT_TRUE(out.pure) << "mixed-epoch state survived recovery";
  EXPECT_TRUE(out.exactMatch) << "converged tables are not the journaled intent";
  EXPECT_TRUE(out.delivers) << "recovered fabric does not forward all pairs";
  EXPECT_TRUE(out.journalClean) << "journal still shows an open transaction";
  if (disturb == Disturbance::kSwitchRebooted) {
    EXPECT_GE(out.report.switchesRebooted + out.report.switchesDrifted, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPhasesAllDisturbances, CrashMatrix,
    ::testing::Combine(
        ::testing::Values(controller::CrashPoint::kPrepare,
                          controller::CrashPoint::kMidInstall,
                          controller::CrashPoint::kPreFlip,
                          controller::CrashPoint::kPostFlip,
                          controller::CrashPoint::kMidGc),
        ::testing::Values(Disturbance::kCleanChannel, Disturbance::kLossyChannel,
                          Disturbance::kSwitchRebooted)),
    [](const auto& info) {
      std::string name = controller::crashPointName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      switch (std::get<1>(info.param)) {
        case Disturbance::kCleanChannel: name += "_clean"; break;
        case Disturbance::kLossyChannel: name += "_lossy"; break;
        case Disturbance::kSwitchRebooted: name += "_rebooted"; break;
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Targeted scenarios beyond the matrix.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, PlanRefusesUnknownIntentAndEmptyJournal) {
  const topo::Topology line = topo::makeLine(6);
  routing::ShortestPathRouting rLine(line);
  auto plantR = projection::planPlant({&line}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  controller::IntentCatalog catalog;
  catalog[line.name()] = {&line, &rLine};

  // Empty journal: nothing to recover toward.
  auto empty = controller::planRecovery(ctl, journal, catalog);
  EXPECT_FALSE(empty.ok());

  // Journaled intent whose topology the new process cannot reconstruct.
  controller::JournalRecord rec;
  rec.kind = controller::JournalRecordKind::kDeploy;
  rec.epoch = 1;
  rec.topology = "not-in-catalog";
  rec.routing = rLine.name();
  ASSERT_TRUE(journal.append(rec).ok());
  auto unknown = controller::planRecovery(ctl, journal, catalog);
  EXPECT_FALSE(unknown.ok());
}

TEST(CrashRecovery, FabricKeepsForwardingWhileControllerIsDown) {
  // The paper's separation of planes, sharpened: a post-flip crash leaves
  // both rule versions installed and mixed ingress stamps, and the data
  // plane must not care. TCP flows launched before the crash finish during
  // the controller outage with zero consistency violations; recovery then
  // converges, and a second wave of flows runs on the recovered ring.
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  ASSERT_TRUE(controller::journalDeploy(journal, dep, 0).ok());

  sim::Simulator sim;
  sim::EpochConsistencyChecker checker;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, &checker);
  sim::TransportManager tm(sim, *built.net, {});
  sim::ControlChannel channel(sim, faultSeed());

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  ASSERT_TRUE(planR.ok());

  controller::ReconfigOptions topt;
  topt.journal = &journal;
  topt.crashAt = controller::CrashPoint::kPostFlip;
  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value(),
                                     topt);
  int wave1 = 0;
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 128 * 1024,
                    [&](sim::Time) { ++wave1; });
  }
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(40.0));
  ASSERT_TRUE(tx.crashed());
  EXPECT_EQ(wave1, hosts) << "flows stalled during the controller outage";
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().front().describe();
  EXPECT_GT(checker.stampedPackets(), 0u);

  // Reboot one switch through the fault injector (the SwitchReboot fault),
  // then recover. No data traffic is in flight during reconciliation.
  sim::FaultInjector faults(sim, *built.net, faultSeed());
  faults.attachSwitches(dep.switches);
  faults.rebootSwitch(sim.now() + usToNs(10.0), 1);
  faults.arm();
  sim.runUntil(sim.now() + usToNs(20.0));
  EXPECT_EQ(dep.switches[1]->table().size(), 0u);

  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  auto rplanR = controller::planRecovery(ctl, journal, catalog, dopt);
  ASSERT_TRUE(rplanR.ok()) << rplanR.error().message;
  EXPECT_EQ(rplanR.value().decision, controller::RecoveryDecision::kRollForward);
  controller::RecoveryOptions ropt;
  ropt.journal = &journal;
  controller::RecoveryRun recovery(sim, channel, dep.switches,
                                   std::move(rplanR).value(), ropt);
  recovery.start();
  sim.runUntil(sim.now() + msToNs(50.0));
  ASSERT_TRUE(recovery.finished());
  ASSERT_TRUE(recovery.report().converged) << recovery.report().failure;
  EXPECT_GE(recovery.report().switchesRebooted, 1);
  EXPECT_LT(recovery.report().flowMods, recovery.report().fullRedeployFlowMods)
      << "anti-entropy should beat a trust-nothing full redeploy";

  controller::Deployment converged = recovery.takeDeployment();
  EXPECT_TRUE(pureEpoch(converged.switches, 2));
  EXPECT_TRUE(allPairsDeliver(converged, to));

  // Second wave on the recovered ring: still zero violations.
  const std::size_t violationsAfterRecovery = checker.violations().size();
  int wave2 = 0;
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + 1) % hosts, 128 * 1024, [&](sim::Time) { ++wave2; });
  }
  sim.runUntil(sim.now() + msToNs(40.0));
  EXPECT_EQ(wave2, hosts);
  EXPECT_EQ(checker.violations().size(), violationsAfterRecovery);
}

TEST(CrashRecovery, MonitorStaysQuietDuringRecoveryAndReseedsBaselines) {
  // Reconciliation rewrites tables and flips ingress stamps in exactly the
  // counter pattern the wedged-transceiver detector hunts for. The NEW
  // controller's monitor must be guarded for the duration and reseeded
  // after — no spurious PortFailure storm from recovery itself.
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  ASSERT_TRUE(controller::journalDeploy(journal, dep, 0).ok());

  sim::Simulator sim;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, nullptr);
  sim::TransportManager tm(sim, *built.net, {});
  sim::ControlChannel channel(sim, faultSeed());

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  ASSERT_TRUE(planR.ok());
  controller::ReconfigOptions topt;
  topt.journal = &journal;
  topt.crashAt = controller::CrashPoint::kPreFlip;  // roll-back recovery
  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value(),
                                     topt);
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 256 * 1024, nullptr);
  }
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(10.0));
  ASSERT_TRUE(tx.crashed());

  // The crashed controller's monitor died with it; this is the successor's.
  controller::NetworkMonitor monitor(sim, *built.net, from, dep.projection);
  monitor.enableFailureDetection(usToNs(60.0));
  monitor.start(usToNs(5.0));

  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  auto rplanR = controller::planRecovery(ctl, journal, catalog, dopt);
  ASSERT_TRUE(rplanR.ok());
  controller::RecoveryOptions ropt;
  ropt.journal = &journal;
  ropt.monitor = &monitor;
  controller::RecoveryRun recovery(sim, channel, dep.switches,
                                   std::move(rplanR).value(), ropt);
  sim.schedule(usToNs(50.0), [&]() {
    recovery.start();
    EXPECT_TRUE(monitor.guarded(0));
    EXPECT_TRUE(monitor.guarded(1));
  });
  sim.runUntil(sim.now() + msToNs(30.0));

  ASSERT_TRUE(recovery.finished());
  ASSERT_TRUE(recovery.report().converged) << recovery.report().failure;
  EXPECT_FALSE(monitor.guarded(0));
  EXPECT_FALSE(monitor.guarded(1));
  EXPECT_TRUE(monitor.portFailures().empty())
      << "recovery tripped the failure detector";

  // Baselines were reseeded at unguard: quiet post-recovery polling must not
  // retroactively blame recovery's counter wobble on a port.
  sim.runUntil(sim.now() + msToNs(5.0));
  EXPECT_TRUE(monitor.portFailures().empty());
  EXPECT_GT(monitor.samplesTaken(), 0u);
}

TEST(CrashRecovery, DuplicateDeliveryCannotDeleteReAddedTwinRules) {
  // The xid-dedup bugfix, end to end: a duplicate-heavy channel redelivers
  // converge bundles whose strict-deletes would — without dedup — remove
  // rules a later bundle legitimately re-added. Recovery must still land on
  // the exact intent.
  const MatrixOutcome out =
      runMatrixCell(controller::CrashPoint::kMidInstall,
                    Disturbance::kLossyChannel, faultSeed() + 77);
  ASSERT_TRUE(out.txCrashed);
  ASSERT_TRUE(out.recovered) << out.report.failure;
  EXPECT_TRUE(out.exactMatch);
  EXPECT_TRUE(out.delivers);
}

// Regression: repair() reinstalled a rebooted switch's 288 rules but left its
// ingress epoch at 0 (deploy() had set it to 1), so the next recovery audit
// found the switch drifted and spent a flow-mod and a second stats round on
// the stamp. Repair now applies the same reconcile recovery converges with.
TEST(CrashRecovery, RepairRestampsARebootedSwitch) {
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  ASSERT_TRUE(plant.ok());
  controller::SdtController ctl(plant.value());
  auto depR = ctl.deploy(topo, routing);
  ASSERT_TRUE(depR.ok()) << depR.error().message;
  controller::Deployment dep = std::move(depR).value();

  dep.switches[1]->reboot();
  controller::FailureSet failures;
  failures.crashedSwitches = {1};
  auto rep = ctl.repair(dep, topo, routing, failures);
  ASSERT_TRUE(rep.ok()) << rep.error().message;
  EXPECT_EQ(rep.value().flowModsAdded, 288);
  EXPECT_EQ(rep.value().flowModsRemoved, 0);
  EXPECT_EQ(dep.switches[1]->ingressEpoch(), dep.epoch);

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  ASSERT_TRUE(controller::journalDeploy(journal, dep, 0).ok());
  controller::IntentCatalog catalog;
  catalog[topo.name()] = {&topo, &routing};
  auto plan = controller::planRecovery(ctl, journal, catalog);
  ASSERT_TRUE(plan.ok()) << plan.error().message;
  sim::Simulator sim;
  sim::ControlChannel channel(sim, 1);
  controller::RecoveryRun audit(sim, channel, dep.switches, std::move(plan).value());
  audit.start();
  sim.run();
  ASSERT_TRUE(audit.finished());
  EXPECT_TRUE(audit.report().converged) << audit.report().failure;
  EXPECT_EQ(audit.report().switchesDrifted, 0);
  EXPECT_EQ(audit.report().statsRounds, 1);
}

TEST(CrashRecovery, SwitchXidCacheRefusesDuplicatesUntilReboot) {
  openflow::Switch sw(0, 8);
  EXPECT_TRUE(sw.acceptXid(42));   // first delivery: apply
  EXPECT_FALSE(sw.acceptXid(42));  // duplicate: re-ack only
  EXPECT_TRUE(sw.seenXid(42));
  EXPECT_TRUE(sw.acceptXid(43));
  sw.reboot();
  // The cache is volatile — after a power cycle the same xid applies again
  // (and must, or a rebooted switch would ignore its repopulation bundle).
  EXPECT_FALSE(sw.seenXid(42));
  EXPECT_TRUE(sw.acceptXid(42));
}

// ---------------------------------------------------------------------------
// Fuzz: 200 random schedules over (crash point, channel impairments, switch
// reboot, recovery-time disconnect). Every run must terminate, converge, and
// land bit-exactly on one journaled intent.
// ---------------------------------------------------------------------------

struct FuzzOutcome {
  bool finished = false;
  bool converged = false;
  bool pure = false;
  bool exactMatch = false;
  bool delivers = false;
  std::string failure;
};

FuzzOutcome runFuzzSchedule(std::uint64_t seed) {
  Rng rng(seed);
  FuzzOutcome out;
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  if (!plantR.ok()) return out;
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  if (!depR.ok()) return out;
  controller::Deployment dep = std::move(depR).value();

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  if (!controller::journalDeploy(journal, dep, 0).ok()) return out;

  sim::Simulator sim;
  sim::ControlChannelConfig cfg;
  cfg.dropProb = rng.uniform() * 0.35;
  cfg.dupProb = rng.uniform() * 0.35;
  cfg.reorderProb = rng.uniform() * 0.3;
  cfg.jitter = static_cast<TimeNs>(rng.between(500, 4'000));
  cfg.reorderDelay = static_cast<TimeNs>(rng.between(5'000, 30'000));
  sim::ControlChannel channel(sim, seed, cfg);

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  if (!planR.ok()) return out;

  // Any crash point, including kNone (the transaction resolves on its own
  // and recovery degenerates to a reinstall audit of whichever side won).
  const controller::CrashPoint points[] = {
      controller::CrashPoint::kNone,       controller::CrashPoint::kPrepare,
      controller::CrashPoint::kMidInstall, controller::CrashPoint::kPreFlip,
      controller::CrashPoint::kPostFlip,   controller::CrashPoint::kMidGc};
  controller::ReconfigOptions topt;
  topt.journal = &journal;
  topt.crashAt = points[rng.below(6)];
  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value(),
                                     topt);
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));
  if (!tx.finished()) {
    out.failure = "transaction never finished";
    return out;
  }

  if (rng.uniform() < 0.5) {
    dep.switches[rng.below(static_cast<std::uint64_t>(dep.switches.size()))]
        ->reboot();
  }

  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  auto rplanR = controller::planRecovery(ctl, journal, catalog, dopt);
  if (!rplanR.ok()) {
    out.failure = "planRecovery: " + rplanR.error().message;
    return out;
  }
  const std::uint32_t targetEpoch = rplanR.value().targetEpoch;
  const bool forward = rplanR.value().topology == to.name();

  controller::RecoveryOptions ropt;
  ropt.journal = &journal;
  ropt.retrySeed = seed;
  controller::RecoveryRun recovery(sim, channel, dep.switches,
                                   std::move(rplanR).value(), ropt);
  // Half the schedules also sever one switch's management link across the
  // start of reconciliation; recovery's unbounded per-round retries must
  // ride it out.
  if (rng.uniform() < 0.5) {
    const int sw = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(plant.numSwitches())));
    const TimeNs fromT = sim.now();
    channel.disconnect(sw, fromT, fromT + static_cast<TimeNs>(
                                              rng.between(50'000, 2'000'000)));
  }
  recovery.start();
  sim.runUntil(sim.now() + msToNs(150.0));
  out.finished = recovery.finished();
  if (!out.finished) {
    out.failure = "recovery never finished";
    return out;
  }
  out.converged = recovery.report().converged &&
                  recovery.report().pureStateVerified;
  if (!out.converged) {
    out.failure = recovery.report().failure;
    return out;
  }
  const controller::Deployment converged = recovery.takeDeployment();
  out.pure = pureEpoch(converged.switches, targetEpoch);
  const topo::Topology& winner = forward ? to : from;
  const routing::RoutingAlgorithm& winnerRouting =
      forward ? static_cast<const routing::RoutingAlgorithm&>(rTo) : rFrom;
  out.exactMatch = tablesMatchFreshDeploy(converged, plant, winner, winnerRouting);
  out.delivers = allPairsDeliver(converged, winner);
  return out;
}

TEST(CrashRecoveryFuzz, TwoHundredSchedulesAllConvergeOnOneIntent) {
  const std::uint64_t base = faultSeed() * 1'000'000ULL;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t seed = base + i;
    const FuzzOutcome out = runFuzzSchedule(seed);
    ASSERT_TRUE(out.finished) << "seed " << seed << ": " << out.failure;
    ASSERT_TRUE(out.converged) << "seed " << seed << ": " << out.failure;
    EXPECT_TRUE(out.pure) << "seed " << seed << " left mixed-epoch state";
    EXPECT_TRUE(out.exactMatch)
        << "seed " << seed << " converged on a third configuration";
    EXPECT_TRUE(out.delivers) << "seed " << seed << " broke forwarding";
  }
}

}  // namespace
}  // namespace sdt
