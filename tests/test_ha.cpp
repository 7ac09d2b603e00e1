// Tests: replicated controller HA (controller/ha.hpp) — lease-based
// leadership, journal streaming with gap detection and snapshot catch-up,
// and fenced failover.
//
// The invariant under test everywhere: kill (or partition) the leader at any
// CrashPoint of an in-flight reconfiguration and a standby takes over within
// one lease interval, fences every stale-term write, and converges the
// fabric to tables byte-identical to what a crash-free run would hold —
// never a mix, never a third thing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "controller/ha.hpp"
#include "controller/journal.hpp"
#include "controller/monitor.hpp"
#include "controller/recovery.hpp"
#include "controller/table_diff.hpp"
#include "controller/transaction.hpp"
#include "openflow/of_switch.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/consistency.hpp"
#include "sim/control_channel.hpp"
#include "sim/faults.hpp"
#include "sim/transport.hpp"
#include "tenant/tenant.hpp"
#include "topo/generators.hpp"

namespace sdt {
namespace {

std::uint64_t faultSeed() {
  const char* env = std::getenv("SDT_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1ULL;
}

// -- Fabric fingerprint ------------------------------------------------------

using Fnv = hash::Fnv64;

std::uint64_t entryHash(const openflow::FlowEntry& e) {
  Fnv f;
  f.mix(static_cast<std::uint64_t>(e.priority));
  const auto mixOpt = [&f](const auto& opt) {
    f.mix(opt.has_value() ? 1u : 0u);
    f.mix(opt.has_value() ? static_cast<std::uint64_t>(*opt) : 0u);
  };
  mixOpt(e.match.inPort);
  mixOpt(e.match.dstAddr);
  mixOpt(e.match.trafficClass);
  // The (type, arg) pairs of the old action list: set-VC = 2, output = 0.
  if (e.setVc >= 0) {
    f.mix(2);
    f.mix(static_cast<std::uint64_t>(e.setVc));
  }
  if (e.outPort >= 0) {
    f.mix(0);
    f.mix(static_cast<std::uint64_t>(e.outPort));
  }
  f.mix(e.cookie);
  return f.value();
}

/// Order-insensitive but otherwise exact (cookie/epoch included) fingerprint
/// of every switch table plus its ingress stamp. Two fabrics with the same
/// fingerprint hold byte-identical rule sets and stamping.
std::uint64_t fabricFingerprint(
    const std::vector<std::shared_ptr<openflow::Switch>>& switches) {
  Fnv f;
  for (const auto& sw : switches) {
    std::vector<std::uint64_t> hashes;
    hashes.reserve(sw->table().size());
    for (const openflow::FlowEntry& e : sw->table().entries()) {
      hashes.push_back(entryHash(e));
    }
    std::sort(hashes.begin(), hashes.end());
    f.mix(0x53574954ULL);  // per-switch separator
    for (const std::uint64_t h : hashes) f.mix(h);
    f.mix(sw->ingressEpoch());
  }
  return f.value();
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

/// What a crash-free life of the same world ends with: the original line
/// deploy (roll-back cells) or a committed line->ring transaction over a
/// clean channel (roll-forward cells).
std::uint64_t crashFreeFingerprint(bool forward) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  if (!plantR.ok()) return 0;
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  if (!depR.ok()) return 0;
  controller::Deployment dep = std::move(depR).value();
  if (!forward) return fabricFingerprint(dep.switches);

  sim::Simulator sim;
  sim::ControlChannel channel(sim, 1);
  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  if (!planR.ok()) return 0;
  controller::ReconfigTransaction tx(sim, channel, dep,
                                     std::move(planR).value());
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.run();
  if (!tx.report().committed) return 0;
  return fabricFingerprint(dep.switches);
}

// ---------------------------------------------------------------------------
// Kill-the-leader matrix: every CrashPoint x {clean, lossy} OpenFlow fabric.
// Each cell: 3 replicas, deploy line(6), adopt + start HA, run the
// line->ring transaction journaling through the leader (streamed live to the
// standbys), kill the leader the instant the injected crash fires, and let
// the lease machinery elect + fence + converge with no outside help.
// ---------------------------------------------------------------------------

struct HaOutcome {
  bool ready = false;      ///< setup reached the run (plant/deploy/plan ok)
  bool txCrashed = false;
  bool tookOver = false;
  controller::FailoverReport report;
  std::uint64_t fingerprint = 0;
  bool pure = false;
  std::uint64_t fencedWrites = 0;
  std::uint64_t standbyFrames = 0;  ///< frames the winning standby replicated
  TimeNs leaseInterval = 0;
  std::uint64_t highestTerm = 0;
  int leaderId = -1;
};

HaOutcome runHaCell(controller::CrashPoint crashAt, bool lossyFabric,
                    std::uint64_t seed) {
  HaOutcome out;
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  if (!plantR.ok()) return out;
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  if (!depR.ok()) return out;
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::ControlChannelConfig fcfg;
  if (lossyFabric) {
    fcfg.dropProb = 0.15;
    fcfg.dupProb = 0.15;
    fcfg.reorderProb = 0.15;
  }
  sim::ControlChannel fabric(sim, seed, fcfg);
  // The replication channel is faster than the fabric: a journal frame lands
  // at the standbys (<= 1.5us) before the fabric ack that fires the crash
  // point can return (>= 2 one-way fabric delays = 4us), so every marker
  // journaled before the crash is durably replicated when the leader dies.
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, seed + 101, rcfg);

  controller::HaConfig hcfg;
  hcfg.deploy.requireDeadlockFree = false;
  hcfg.retrySeed = seed;
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 3, hcfg);
  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  ha.setCatalog(catalog);
  if (!ha.adoptDeployment(dep).ok()) return out;
  ha.start();

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(ha.deployment(), to, rTo, dopt);
  if (!planR.ok()) return out;
  controller::ReconfigOptions topt;
  topt.journal = &ha.leaderJournal();
  topt.term = ha.termOf(ha.leaderId());
  topt.leaderId = ha.leaderId();
  topt.crashAt = crashAt;
  topt.onCrash = [&ha]() { ha.kill(ha.leaderId()); };
  controller::ReconfigTransaction tx(sim, fabric, ha.deployment(),
                                     std::move(planR).value(), topt);
  out.ready = true;
  sim.schedule(usToNs(100.0), [&tx]() { tx.start(); });
  // HA heartbeat chains never drain the queue; run to a deadline.
  sim.runUntil(msToNs(80.0));

  out.txCrashed = tx.crashed();
  out.tookOver = !ha.failovers().empty();
  if (!out.tookOver) return out;
  out.report = ha.failovers().front();
  out.fingerprint = fabricFingerprint(ha.deployment().switches);
  out.pure = pureEpoch(ha.deployment().switches, out.report.recovery.targetEpoch);
  out.fencedWrites = ha.fencedWritesTotal();
  out.standbyFrames = ha.status(out.report.newLeader).framesReceived;
  out.leaseInterval = hcfg.leaseInterval;
  out.highestTerm = ha.term();
  out.leaderId = ha.leaderId();
  return out;
}

class HaFailoverMatrix
    : public ::testing::TestWithParam<std::tuple<controller::CrashPoint, bool>> {
};

TEST_P(HaFailoverMatrix, StandbyTakesOverFencedAndByteIdentical) {
  const auto [crashAt, lossyFabric] = GetParam();
  const HaOutcome out = runHaCell(crashAt, lossyFabric, faultSeed());
  ASSERT_TRUE(out.ready);
  ASSERT_TRUE(out.txCrashed)
      << "transaction did not reach crash point "
      << controller::crashPointName(crashAt);
  ASSERT_TRUE(out.tookOver) << "no standby claimed leadership";
  ASSERT_TRUE(out.report.converged) << out.report.failure;

  // The standby claimed within one lease interval of the lease running out,
  // and the takeover carries a strictly larger term.
  EXPECT_LE(out.report.takeoverStartedAt - out.report.leaseExpiredAt,
            out.leaseInterval);
  EXPECT_EQ(out.report.newLeader, 1) << "highest-priority standby must win";
  EXPECT_EQ(out.report.toTerm, 2u);
  EXPECT_EQ(out.highestTerm, 2u);
  EXPECT_EQ(out.leaderId, 1);

  // The replica journal drove the same roll-forward/roll-back decision a
  // local WAL would have: flip marker replicated => forward, else back.
  const bool pastCommit = crashAt == controller::CrashPoint::kPostFlip ||
                          crashAt == controller::CrashPoint::kMidGc;
  EXPECT_EQ(out.report.recovery.decision,
            pastCommit ? controller::RecoveryDecision::kRollForward
                       : controller::RecoveryDecision::kRollBack);
  EXPECT_EQ(out.report.recovery.targetEpoch, pastCommit ? 2u : 1u);

  // Converged tables are byte-identical (rules, cookies, ingress stamps) to
  // a crash-free run's, and single-epoch pure.
  EXPECT_TRUE(out.pure) << "mixed-epoch state survived failover";
  EXPECT_EQ(out.fingerprint, crashFreeFingerprint(pastCommit))
      << "failover converged on a third configuration";

  // Streaming did its job: the winner held replicated frames, and failover
  // cost strictly fewer flow-mods than a trust-nothing cold redeploy.
  EXPECT_GT(out.standbyFrames, 0u);
  EXPECT_LT(out.report.recovery.flowMods,
            out.report.recovery.fullRedeployFlowMods);
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, HaFailoverMatrix,
    ::testing::Combine(
        ::testing::Values(controller::CrashPoint::kPrepare,
                          controller::CrashPoint::kMidInstall,
                          controller::CrashPoint::kPreFlip,
                          controller::CrashPoint::kPostFlip,
                          controller::CrashPoint::kMidGc),
        ::testing::Bool()),
    [](const auto& info) {
      std::string name = controller::crashPointName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      name += std::get<1>(info.param) ? "_lossy" : "_clean";
      return name;
    });

TEST(HaFailover, DeterministicAcrossRepeatRuns) {
  // Same seed, same schedule, same fingerprint and takeover timing — the
  // whole election/streaming/recovery pipeline runs on simulated time only.
  const HaOutcome a =
      runHaCell(controller::CrashPoint::kPostFlip, true, faultSeed());
  const HaOutcome b =
      runHaCell(controller::CrashPoint::kPostFlip, true, faultSeed());
  ASSERT_TRUE(a.tookOver);
  ASSERT_TRUE(b.tookOver);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.report.takeoverStartedAt, b.report.takeoverStartedAt);
  EXPECT_EQ(a.report.convergedAt, b.report.convergedAt);
  EXPECT_EQ(a.fencedWrites, b.fencedWrites);
}

// ---------------------------------------------------------------------------
// Split brain: the old leader survives, partitioned from the replica group,
// and keeps driving its transaction at the old term. Every one of its writes
// after the new leader's recovery touches a switch must be fenced.
// ---------------------------------------------------------------------------

TEST(HaFailover, SplitBrainStaleLeaderIsFencedEverywhere) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 101, rcfg);

  controller::HaConfig hcfg;
  hcfg.deploy.requireDeadlockFree = false;
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 3, hcfg);
  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  ha.setCatalog(catalog);
  ASSERT_TRUE(ha.adoptDeployment(dep).ok());
  ha.start();

  // Partition the leader's outbound replication after the deploy record
  // landed but before its transaction journals anything further: the
  // standbys never see the ring markers and will recover toward the line
  // intent while the partitioned leader pushes ring.
  repl.disconnect(1, usToNs(50.0), usToNs(150.0));
  repl.disconnect(2, usToNs(50.0), usToNs(150.0));

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(ha.deployment(), to, rTo, dopt);
  ASSERT_TRUE(planR.ok());
  controller::ReconfigOptions topt;
  topt.journal = &ha.leaderJournal();
  topt.term = ha.termOf(ha.leaderId());
  topt.leaderId = ha.leaderId();
  controller::ReconfigTransaction tx(sim, fabric, ha.deployment(),
                                     std::move(planR).value(), topt);
  sim.schedule(usToNs(100.0), [&tx]() { tx.start(); });
  // Mid-install, a standby claims the fabric out from under the live leader
  // (in production this is the lease expiring across the partition; the
  // forced takeover pins the interleaving deterministically).
  sim.schedule(usToNs(150.0), [&ha]() { ha.forceTakeover(1); });
  sim.runUntil(msToNs(50.0));

  ASSERT_FALSE(ha.failovers().empty());
  const controller::FailoverReport& report = ha.failovers().front();
  ASSERT_TRUE(report.converged) << report.failure;
  EXPECT_EQ(report.newLeader, 1);
  EXPECT_EQ(report.toTerm, 2u);
  // The standbys never saw the transaction's markers: reinstall of line@1.
  EXPECT_EQ(report.recovery.decision, controller::RecoveryDecision::kReinstall);
  EXPECT_EQ(report.recovery.targetEpoch, 1u);

  // The deposed leader kept retrying its rounds at term 1; every delivery
  // after the new leader's readback raised the fence was rejected and
  // counted — and none of them reached a table.
  EXPECT_GT(ha.fencedWritesTotal(), 0u);
  EXPECT_TRUE(pureEpoch(ha.deployment().switches, 1));
  EXPECT_EQ(fabricFingerprint(ha.deployment().switches),
            crashFreeFingerprint(false));
  // The partition healed after the claim, so the old leader heard term 2
  // and stepped down — but deposition alone does not stop its in-flight
  // transaction; the term fence is what kept its writes off the fabric.
  EXPECT_TRUE(ha.isLeader(1));
  EXPECT_FALSE(ha.isLeader(0));
  EXPECT_EQ(ha.termOf(0), 2u);
}

// ---------------------------------------------------------------------------
// Data plane across the takeover: flows launched before the leader dies
// finish during the outage and the election with zero per-packet epoch
// violations; a second wave runs on the rolled-forward ring.
// ---------------------------------------------------------------------------

TEST(HaFailover, ZeroMixedEpochPacketsAcrossTakeover) {
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

  sim::Simulator sim;
  sim::EpochConsistencyChecker checker;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, &checker);
  sim::TransportManager tm(sim, *built.net, {});
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 101, rcfg);

  controller::HaConfig hcfg;
  hcfg.deploy.requireDeadlockFree = false;
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 3, hcfg);
  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  ha.setCatalog(catalog);
  ASSERT_TRUE(ha.adoptDeployment(dep).ok());
  ha.start();

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(ha.deployment(), to, rTo, dopt);
  ASSERT_TRUE(planR.ok());
  controller::ReconfigOptions topt;
  topt.journal = &ha.leaderJournal();
  topt.term = ha.termOf(ha.leaderId());
  topt.leaderId = ha.leaderId();
  topt.crashAt = controller::CrashPoint::kPostFlip;
  topt.onCrash = [&ha]() { ha.kill(ha.leaderId()); };
  controller::ReconfigTransaction tx(sim, fabric, ha.deployment(),
                                     std::move(planR).value(), topt);

  int wave1 = 0;
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 128 * 1024,
                    [&wave1](sim::Time) { ++wave1; });
  }
  sim.schedule(usToNs(100.0), [&tx]() { tx.start(); });
  sim.runUntil(msToNs(60.0));

  ASSERT_TRUE(tx.crashed());
  ASSERT_FALSE(ha.failovers().empty());
  ASSERT_TRUE(ha.failovers().front().converged)
      << ha.failovers().front().failure;
  EXPECT_EQ(wave1, hosts) << "flows stalled across the takeover";
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().front().describe();
  EXPECT_GT(checker.stampedPackets(), 0u);
  EXPECT_TRUE(pureEpoch(ha.deployment().switches, 2));

  // Second wave on the ring the new leader rolled forward to.
  const std::size_t violationsAfter = checker.violations().size();
  int wave2 = 0;
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + 1) % hosts, 128 * 1024,
                    [&wave2](sim::Time) { ++wave2; });
  }
  sim.runUntil(sim.now() + msToNs(40.0));
  EXPECT_EQ(wave2, hosts);
  EXPECT_EQ(checker.violations().size(), violationsAfter);
}

// ---------------------------------------------------------------------------
// Journal streaming under a lossy replication channel (live leader): gap
// detection + snapshot catch-up must reconverge every standby onto the
// leader's exact record stream.
// ---------------------------------------------------------------------------

TEST(HaStreaming, LossyReplicationChannelReconvergesViaCatchup) {
  const topo::Topology from = topo::makeLine(6);
  routing::ShortestPathRouting rFrom(from);
  auto plantR = projection::planPlant({&from}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.dropProb = 0.35;
  rcfg.dupProb = 0.1;
  sim::ControlChannel repl(sim, faultSeed() + 7, rcfg);

  // Dense heartbeats: at 35% drop an unlucky run of lost heartbeats could
  // otherwise expire a standby's lease and trigger an election, which is
  // not under test here. 20 heartbeats per lease makes that vanishingly
  // rare while keeping the lease (and with it the catch-up retry backstop)
  // short.
  controller::HaConfig hcfg;
  hcfg.heartbeatPeriod = usToNs(100.0);
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 3, hcfg);
  ASSERT_TRUE(ha.adoptDeployment(depR.value()).ok());
  ha.start();

  // 40 journal appends, spaced out so the stream, the drops, and the
  // heartbeat-driven stall detection interleave.
  for (int i = 0; i < 40; ++i) {
    sim.schedule(usToNs(200.0) + i * usToNs(50.0), [&ha, i]() {
      controller::JournalRecord rec;
      rec.kind = controller::JournalRecordKind::kDeploy;
      rec.at = 0;
      rec.epoch = static_cast<std::uint32_t>(i + 2);
      rec.topology = "line6";
      rec.routing = "shortest-path";
      ASSERT_TRUE(ha.leaderJournal().append(rec).ok());
    });
  }
  sim.runUntil(msToNs(40.0));

  auto leaderReplay = ha.leaderJournal().replay();
  ASSERT_TRUE(leaderReplay.ok());
  ASSERT_EQ(leaderReplay.value().records.size(), 41u);  // kDeploy + 40

  bool sawCatchup = false;
  for (int r = 1; r < ha.numReplicas(); ++r) {
    auto replay = ha.journalOf(r).replay();
    ASSERT_TRUE(replay.ok());
    ASSERT_EQ(replay.value().records.size(), leaderReplay.value().records.size())
        << "replica " << r << " diverged";
    for (std::size_t i = 0; i < replay.value().records.size(); ++i) {
      EXPECT_EQ(replay.value().records[i].seq,
                leaderReplay.value().records[i].seq);
      EXPECT_EQ(replay.value().records[i].epoch,
                leaderReplay.value().records[i].epoch);
    }
    const controller::ReplicaStatus st = ha.status(r);
    EXPECT_GT(st.framesReceived, 0u);
    sawCatchup = sawCatchup || st.gapCatchups > 0;
  }
  EXPECT_TRUE(sawCatchup) << "35% drop never exercised the catch-up path";
}

// ---------------------------------------------------------------------------
// Partitions racing replication: a standby cut off while the leader crosses
// a transaction's commit point must be handed the leader's whole image, and
// both journals must fold to the same planRecovery decision. A torn truncate
// during streaming re-opens the gap and converges the same way.
// ---------------------------------------------------------------------------

TEST(HaStreaming, PartitionDuringOpenTransactionHandsStandbyTheLeaderImage) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 101, rcfg);

  controller::HaConfig hcfg;
  hcfg.deploy.requireDeadlockFree = false;
  // Elections are not under test here: the partitioned standby must stay a
  // standby (its lease would otherwise expire mid-partition and it would
  // claim the group for itself).
  hcfg.leaseInterval = msToNs(100.0);
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 2, hcfg);
  ASSERT_TRUE(ha.adoptDeployment(dep).ok());
  ha.start();

  // Cut the standby off, then cross the commit point of a transaction — the
  // standby misses its markers.
  repl.disconnect(1, usToNs(50.0), msToNs(8.0));

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(ha.deployment(), to, rTo, dopt);
  ASSERT_TRUE(planR.ok());
  controller::ReconfigOptions topt;
  topt.journal = &ha.leaderJournal();
  topt.term = ha.termOf(ha.leaderId());
  topt.leaderId = ha.leaderId();
  topt.crashAt = controller::CrashPoint::kPostFlip;  // leaves the tx open
  controller::ReconfigTransaction tx(sim, fabric, ha.deployment(),
                                     std::move(planR).value(), topt);
  sim.schedule(usToNs(100.0), [&tx]() { tx.start(); });
  sim.runUntil(msToNs(40.0));

  // The partition lifted; heartbeat stall detection must have pulled the
  // leader's full image over.
  const controller::ReplicaStatus st = ha.status(1);
  EXPECT_GE(st.gapCatchups, 1u);
  EXPECT_GE(st.snapshotsInstalled, 1u);

  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  auto leaderPlan = controller::planRecovery(ctl, ha.leaderJournal(), catalog,
                                             hcfg.deploy);
  auto standbyPlan = controller::planRecovery(ctl, ha.journalOf(1), catalog,
                                              hcfg.deploy);
  ASSERT_TRUE(leaderPlan.ok()) << leaderPlan.error().message;
  ASSERT_TRUE(standbyPlan.ok()) << standbyPlan.error().message;
  EXPECT_EQ(leaderPlan.value().decision, controller::RecoveryDecision::kRollForward);
  EXPECT_EQ(standbyPlan.value().decision, leaderPlan.value().decision);
  EXPECT_EQ(standbyPlan.value().targetEpoch, leaderPlan.value().targetEpoch);
  EXPECT_EQ(standbyPlan.value().topology, leaderPlan.value().topology);
  EXPECT_EQ(standbyPlan.value().ecmpSalt, leaderPlan.value().ecmpSalt);

  // Byte equality of the whole journal image, not just the fold.
  auto leaderBytes = ha.storageOf(ha.leaderId()).read();
  auto standbyBytes = ha.storageOf(1).read();
  ASSERT_TRUE(leaderBytes.ok());
  ASSERT_TRUE(standbyBytes.ok());
  EXPECT_EQ(leaderBytes.value(), standbyBytes.value());
}

TEST(HaStreaming, TornTruncateDuringStreamingReconvergesToLeaderDecision) {
  const topo::Topology from = topo::makeLine(6);
  routing::ShortestPathRouting rFrom(from);
  auto plantR = projection::planPlant({&from}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 11, rcfg);

  controller::ReplicatedController ha(sim, ctl, fabric, repl, 2, {});
  ASSERT_TRUE(ha.adoptDeployment(depR.value()).ok());
  ha.start();

  const auto appendAt = [&sim, &ha](TimeNs at, std::uint32_t epoch) {
    sim.schedule(at, [&ha, epoch]() {
      controller::JournalRecord rec;
      rec.kind = controller::JournalRecordKind::kDeploy;
      rec.epoch = epoch;
      rec.topology = "line6";
      rec.routing = "shortest-path";
      ASSERT_TRUE(ha.leaderJournal().append(rec).ok());
    });
  };
  appendAt(usToNs(200.0), 2);
  appendAt(usToNs(300.0), 3);
  // Tear the standby's journal tail mid-stream (a crashed append leaves a
  // truncated frame; rescan drops it, re-opening the sequence hole).
  sim.schedule(usToNs(400.0), [&ha]() {
    std::string& bytes = ha.storageOf(1).bytes();
    ASSERT_GT(bytes.size(), 5u);
    bytes.resize(bytes.size() - 5);
    ha.journalOf(1).rescan();
  });
  // The next streamed frame arrives past the hole: gap -> snapshot catch-up.
  appendAt(usToNs(500.0), 4);
  sim.runUntil(msToNs(20.0));

  const controller::ReplicaStatus st = ha.status(1);
  EXPECT_GE(st.framesOutOfOrder, 1u);
  EXPECT_GE(st.snapshotsInstalled, 1u);

  auto leaderBytes = ha.storageOf(0).read();
  auto standbyBytes = ha.storageOf(1).read();
  ASSERT_TRUE(leaderBytes.ok());
  ASSERT_TRUE(standbyBytes.ok());
  EXPECT_EQ(leaderBytes.value(), standbyBytes.value());
  auto replay = ha.journalOf(1).replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.back().epoch, 4u);
  EXPECT_EQ(replay.value().droppedBytes, 0u);
}

TEST(HaStreaming, AppendReplicaPreservesLeaderSeqsAndRescanContinues) {
  controller::MemoryJournalStorage leaderStorage;
  controller::MemoryJournalStorage standbyStorage;
  controller::Journal leader(leaderStorage);
  controller::Journal standby(standbyStorage);

  for (std::uint32_t e = 1; e <= 3; ++e) {
    controller::JournalRecord rec;
    rec.kind = controller::JournalRecordKind::kDeploy;
    rec.epoch = e;
    rec.topology = "line6";
    rec.routing = "shortest-path";
    ASSERT_TRUE(leader.append(rec).ok());
  }
  auto replayed = leader.replay();
  ASSERT_TRUE(replayed.ok());
  for (const controller::JournalRecord& rec : replayed.value().records) {
    ASSERT_TRUE(standby.appendReplica(rec).ok());
  }
  // Seqs preserved verbatim; the replica numbers appends seamlessly past
  // them (it may have to journal as the next leader).
  EXPECT_EQ(standby.nextSeq(), leader.nextSeq());
  auto standbyReplay = standby.replay();
  ASSERT_TRUE(standbyReplay.ok());
  ASSERT_EQ(standbyReplay.value().records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(standbyReplay.value().records[i].seq, i + 1);
  }

  // Snapshot install path: swap the whole backing store, rescan, and the
  // sequence horizon follows the new image.
  auto bytes = leaderStorage.read();
  ASSERT_TRUE(bytes.ok());
  controller::MemoryJournalStorage fresh;
  controller::Journal late(fresh);
  EXPECT_EQ(late.nextSeq(), 1u);
  fresh.replaceAll(bytes.value());
  late.rescan();
  EXPECT_EQ(late.nextSeq(), leader.nextSeq());
}

// ---------------------------------------------------------------------------
// Monitor hand-off (satellite): a PortFailure detected inside the takeover
// window — leader dead, successor not yet converged — is buffered and
// delivered to the new leader exactly once, detection-time epoch intact.
// ---------------------------------------------------------------------------

TEST(HaMonitor, PortFailureDuringTakeoverDeliveredExactlyOnceWithEpoch) {
  const topo::Topology from = topo::makeLine(6);
  routing::ShortestPathRouting rFrom(from);
  auto plantR = projection::planPlant({&from}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, nullptr);
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 101, rcfg);

  controller::ReplicatedController ha(sim, ctl, fabric, repl, 3, {});
  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  ha.setCatalog(catalog);
  ASSERT_TRUE(ha.adoptDeployment(dep).ok());

  controller::NetworkMonitor monitor(sim, *built.net, from, dep.projection);
  monitor.enableFailureDetection(usToNs(60.0));
  monitor.start(usToNs(5.0));
  ha.setMonitor(&monitor);

  struct Delivery {
    controller::PortFailure failure;
    TimeNs at = 0;
  };
  std::vector<Delivery> delivered;
  ha.onPortFailure([&delivered, &sim](const controller::PortFailure& f) {
    delivered.push_back({f, sim.now()});
  });
  ha.start();

  // Kill the leader, then cut a fabric cable while nobody leads: detection
  // fires into the leaderless window and must be parked, not lost.
  const TimeNs killAt = usToNs(500.0);
  sim.schedule(killAt, [&ha]() { ha.kill(ha.leaderId()); });
  const topo::Link cable = from.links()[0];
  const projection::PhysPort cut = dep.projection.physOf(cable.a);
  sim::FaultInjector inj(sim, *built.net, faultSeed());
  inj.cutCable(usToNs(600.0), cut.sw, cut.port);
  inj.arm();
  sim.runUntil(msToNs(30.0));

  ASSERT_FALSE(ha.failovers().empty());
  const controller::FailoverReport& report = ha.failovers().front();
  ASSERT_TRUE(report.converged) << report.failure;

  // The monitor detected the cut before the takeover converged...
  ASSERT_FALSE(monitor.portFailures().empty());
  for (const controller::PortFailure& f : monitor.portFailures()) {
    EXPECT_GT(f.detectedAt, killAt);
    EXPECT_LT(f.detectedAt, report.convergedAt)
        << "detection should land inside the takeover window";
    EXPECT_EQ(f.epoch, 1u) << "detection-time epoch must survive buffering";
  }
  // ...and every detection reached the new leader exactly once, after
  // convergence.
  ASSERT_EQ(delivered.size(), monitor.portFailures().size());
  EXPECT_EQ(report.pendingFailuresDelivered,
            static_cast<int>(delivered.size()));
  std::vector<std::pair<int, int>> seen;
  for (const Delivery& d : delivered) {
    EXPECT_GE(d.at, report.convergedAt);
    EXPECT_EQ(d.failure.epoch, 1u);
    const std::pair<int, int> key{d.failure.sw, d.failure.port};
    EXPECT_EQ(std::count(seen.begin(), seen.end(), key), 0)
        << "duplicate delivery for sw " << key.first << " port " << key.second;
    seen.push_back(key);
  }
  // Recovery's own table rewrites must not have minted spurious failures:
  // everything reported traces back to the one cut cable's link.
  for (const controller::PortFailure& f : monitor.portFailures()) {
    ASSERT_TRUE(f.logicalPort.has_value());
    const auto li = from.linkAt(*f.logicalPort);
    ASSERT_TRUE(li.has_value());
    const topo::Link& link = from.link(*li);
    EXPECT_TRUE((link.a == cable.a && link.b == cable.b) ||
                (link.a == cable.b && link.b == cable.a))
        << "spurious failure on sw " << f.sw << " port " << f.port;
  }
}

// ---------------------------------------------------------------------------
// Tenant mid-slice-update failover (satellite): the leader dies past the
// commit point of one tenant's slice update; the takeover, planned against
// the tenant's slice controller, rolls the slice forward under the new term
// without disturbing the co-tenant, and admission state survives.
// ---------------------------------------------------------------------------

projection::Plant twoTenantPlant() {
  projection::PlantConfig cfg;
  cfg.numSwitches = 2;
  cfg.spec = projection::openflow64x100G();
  cfg.spec.flowTableCapacity = 8192;
  cfg.hostPortsPerSwitch = 6;
  cfg.interLinksPerPair = 8;
  auto plant = projection::buildPlant(cfg);
  EXPECT_TRUE(plant.ok());
  return plant.value();
}

std::vector<openflow::FlowEntry> tenantEntries(const openflow::Switch& sw,
                                               std::uint16_t tenant) {
  std::vector<openflow::FlowEntry> out;
  for (const openflow::FlowEntry& e : sw.table().entries()) {
    if (openflow::cookieTenant(e.cookie) == tenant) out.push_back(e);
  }
  return out;
}

TEST(HaTenant, MidSliceUpdateFailoverRollsForwardWithoutTouchingCoTenant) {
  const topo::Topology lineA = topo::makeLine(4);
  const topo::Topology lineB = topo::makeLine(4);
  const topo::Topology ringB = topo::makeRing(4);
  routing::ShortestPathRouting rA(lineA);
  routing::ShortestPathRouting rB(lineB);
  routing::ShortestPathRouting rRingB(ringB);

  tenant::TenantManager mgr(twoTenantPlant());
  tenant::TenantSpec specA;
  specA.name = "alice";
  specA.topology = &lineA;
  specA.routing = &rA;
  specA.spareSelfLinksPerSwitch = 1;
  specA.deploy.requireDeadlockFree = false;
  ASSERT_TRUE(mgr.admit(specA).ok());
  tenant::TenantSpec specB = specA;
  specB.name = "bob";
  specB.topology = &lineB;
  specB.routing = &rB;
  // Bob's line -> ring update needs one more inter-switch hop than his
  // line; reserve the spare cables at admission so the re-projection can
  // only land on capacity he owns.
  specB.spareInterLinksPerPair = 2;
  ASSERT_TRUE(mgr.admit(specB).ok());

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 101, rcfg);

  // Tenant-aware takeover: recompile against bob's slice controller with his
  // deploy options; the plan scopes itself to the tenant its journaled epoch
  // names, so the new leader can only ever touch bob's namespace.
  controller::HaConfig hcfg;
  hcfg.deploy = mgr.slice(2)->deployOptions;
  controller::ReplicatedController ha(sim, *mgr.slice(2)->controller, fabric,
                                      repl, 3, hcfg);
  controller::IntentCatalog catalog;
  catalog[lineB.name()] = {&lineB, &rB};
  catalog[ringB.name()] = {&ringB, &rRingB};
  ha.setCatalog(catalog);
  ASSERT_TRUE(ha.adoptDeployment(mgr.slice(2)->deployment).ok());
  ha.start();

  const int n = mgr.plant().numSwitches();
  std::vector<std::vector<openflow::FlowEntry>> aliceBefore;
  for (int sw = 0; sw < n; ++sw) {
    aliceBefore.push_back(tenantEntries(*mgr.switches()[sw], 1));
  }

  auto planned = mgr.planSliceUpdate(2, ringB, rRingB);
  ASSERT_TRUE(planned.ok()) << planned.error().message;
  controller::ReconfigOptions topt;
  topt.journal = &ha.leaderJournal();
  topt.term = ha.termOf(ha.leaderId());
  topt.leaderId = ha.leaderId();
  topt.crashAt = controller::CrashPoint::kPostFlip;
  topt.onCrash = [&ha]() { ha.kill(ha.leaderId()); };
  controller::ReconfigTransaction tx(sim, fabric,
                                     mgr.mutableSlice(2)->deployment,
                                     std::move(planned).value(), topt);
  sim.schedule(usToNs(100.0), [&tx]() { tx.start(); });
  sim.runUntil(msToNs(60.0));

  ASSERT_TRUE(tx.crashed());
  ASSERT_FALSE(ha.failovers().empty());
  const controller::FailoverReport& report = ha.failovers().front();
  ASSERT_TRUE(report.converged) << report.failure;
  EXPECT_EQ(report.recovery.decision, controller::RecoveryDecision::kRollForward);
  const std::uint32_t target = openflow::makeScopedEpoch(2, 2);
  EXPECT_EQ(report.recovery.targetEpoch, target);

  // Bob's namespace is pure at the rolled-forward scoped epoch; his host
  // ports stamp it.
  for (int sw = 0; sw < n; ++sw) {
    const openflow::FlowTable& table = mgr.switches()[sw]->table();
    EXPECT_EQ(table.countEpoch(target), table.countTenant(2)) << "switch " << sw;
  }
  for (topo::HostId h = 0; h < ringB.numHosts(); ++h) {
    const projection::PhysPort pp =
        ha.deployment().projection.hostPortOf(h);
    EXPECT_EQ(mgr.switches()[pp.sw]->portIngressEpoch(pp.port), target);
  }
  // Alice's slice — rules and stamps — survived the whole failover
  // byte-identical, and admission state still knows both tenants.
  for (int sw = 0; sw < n; ++sw) {
    const auto after = tenantEntries(*mgr.switches()[sw], 1);
    ASSERT_EQ(after.size(), aliceBefore[sw].size()) << "switch " << sw;
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_TRUE(openflow::sameRule(after[i], aliceBefore[sw][i]));
    }
  }
  for (topo::HostId h = 0; h < lineA.numHosts(); ++h) {
    const projection::PhysPort pp =
        mgr.slice(1)->deployment.projection.hostPortOf(h);
    EXPECT_EQ(mgr.switches()[pp.sw]->portIngressEpoch(pp.port),
              openflow::makeScopedEpoch(1, 1));
  }
  EXPECT_EQ(mgr.numTenants(), 2);
  ASSERT_NE(mgr.slice(1), nullptr);
  ASSERT_NE(mgr.slice(2), nullptr);
}

// ---------------------------------------------------------------------------
// Same-term ties. Two candidates that both miss the other's claim heartbeat
// claim the SAME term; the tie must resolve deterministically toward the
// lower replica id on every switch and every replica — never two unfenced
// writers.
// ---------------------------------------------------------------------------

TEST(HaTermFence, SameTermTieBreaksTowardLowerReplicaId) {
  openflow::Switch sw(0, 4);
  // Term-only legacy callers neither fence ties nor survive them.
  EXPECT_TRUE(sw.admitTerm(1));
  EXPECT_EQ(sw.controllerLeaderId(), -1);
  // First identified writer at term 2.
  EXPECT_TRUE(sw.admitTerm(2, 2));
  EXPECT_EQ(sw.controllerTerm(), 2u);
  EXPECT_EQ(sw.controllerLeaderId(), 2);
  // Equal term, higher id: fenced. Equal term, same id: admitted.
  EXPECT_FALSE(sw.admitTerm(2, 3));
  EXPECT_EQ(sw.fencedWrites(), 1u);
  EXPECT_TRUE(sw.admitTerm(2, 2));
  // Equal term, LOWER id: the higher-priority rival wins the switch — and
  // from then on the old writer is fenced, regardless of arrival order.
  EXPECT_TRUE(sw.admitTerm(2, 1));
  EXPECT_EQ(sw.controllerLeaderId(), 1);
  EXPECT_FALSE(sw.admitTerm(2, 2));
  EXPECT_EQ(sw.fencedWrites(), 2u);
  // A strictly newer term admits whoever claims it; stale terms stay fenced.
  EXPECT_TRUE(sw.admitTerm(3, 5));
  EXPECT_EQ(sw.controllerLeaderId(), 5);
  EXPECT_FALSE(sw.admitTerm(2, 0));
  // Term 0 stays the always-admitted legacy namespace.
  EXPECT_TRUE(sw.admitTerm(0));
  // Power-cycle resets the fence and the tie-breaker with it.
  sw.reboot();
  EXPECT_EQ(sw.controllerTerm(), 0u);
  EXPECT_EQ(sw.controllerLeaderId(), -1);
  EXPECT_EQ(sw.fencedWrites(), 0u);
}

TEST(HaFailover, SameTermDuelResolvesToLowerIdEverywhere) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);  // same plant as the baseline
  routing::ShortestPathRouting rFrom(from);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 101, rcfg);

  controller::HaConfig hcfg;
  hcfg.deploy.requireDeadlockFree = false;
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 3, hcfg);
  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  ha.setCatalog(catalog);
  ASSERT_TRUE(ha.adoptDeployment(dep).ok());
  ha.start();
  // A power-cycled switch gives both claimants converge work. The loser's
  // bundle can leave only after a full readback round trip (>= 4us), while
  // the winner's readbacks land within ~3.2us: every seed has a stale write
  // for the fence to stop, not only those where a readback loses the race.
  ha.deployment().switches[1]->reboot();

  // Replica 2 claims, and replica 1 claims 200ns later — before 2's claim
  // heartbeat (>= 1us replication delay) can reach it. Both claim term 2:
  // the dropped-claim-heartbeat race the electionStagger cannot close.
  sim.schedule(usToNs(150.0), [&ha]() { ha.forceTakeover(2); });
  sim.schedule(usToNs(150.2), [&ha]() { ha.forceTakeover(1); });
  sim.runUntil(msToNs(50.0));

  // Exactly one leader survives the duel: the lower id. The loser heard the
  // winner's equal-term heartbeat and stepped down.
  EXPECT_TRUE(ha.isLeader(1));
  EXPECT_FALSE(ha.isLeader(2));
  EXPECT_EQ(ha.leaderId(), 1);
  EXPECT_EQ(ha.term(), 2u);
  for (int r = 0; r < ha.numReplicas(); ++r) {
    EXPECT_EQ(ha.termOf(r), 2u) << "replica " << r;
  }

  // The loser's recovery kept writing at (term 2, id 2); every delivery
  // after the winner touched a switch was fenced — and the fabric converged
  // on exactly the winner's (reinstalled line@1) configuration.
  EXPECT_GT(ha.fencedWritesTotal(), 0u);
  EXPECT_TRUE(pureEpoch(ha.deployment().switches, 1));
  EXPECT_EQ(fabricFingerprint(ha.deployment().switches),
            crashFreeFingerprint(false));

  // failovers() tells the whole story: replica 2's attempt superseded,
  // replica 1's converged — and the takeover window is closed.
  ASSERT_EQ(ha.failovers().size(), 2u);
  EXPECT_EQ(ha.failovers().front().newLeader, 2);
  EXPECT_FALSE(ha.failovers().front().converged);
  EXPECT_EQ(ha.failovers().back().newLeader, 1);
  EXPECT_TRUE(ha.failovers().back().converged)
      << ha.failovers().back().failure;
  EXPECT_FALSE(ha.takeoverInProgress());
}

// ---------------------------------------------------------------------------
// Cascading failover: the first successor dies mid-recovery. Its RecoveryRun
// must be cancelled with it, and its completion must never adopt a
// deployment or clobber the second successor's takeover.
// ---------------------------------------------------------------------------

TEST(HaFailover, CascadingTakeoverBindsRecoveryToClaimingTerm) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);  // same plant as the baseline
  routing::ShortestPathRouting rFrom(from);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 101, rcfg);

  controller::HaConfig hcfg;
  hcfg.deploy.requireDeadlockFree = false;
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 3, hcfg);
  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  ha.setCatalog(catalog);
  ASSERT_TRUE(ha.adoptDeployment(dep).ok());
  ha.start();

  // Kill the original leader; replica 1 takes over at term 2 and dies 3us
  // later — mid-recovery (one fabric readback round-trip alone is >= 4us).
  // Replica 2 then claims term 3 (it heard 1's claim heartbeat first).
  sim.schedule(usToNs(150.0), [&ha]() { ha.kill(0); });
  sim.schedule(usToNs(200.0), [&ha]() { ha.forceTakeover(1); });
  sim.schedule(usToNs(203.0), [&ha]() { ha.kill(1); });
  sim.schedule(usToNs(210.0), [&ha]() { ha.forceTakeover(2); });
  sim.runUntil(msToNs(50.0));

  // Only the surviving successor's takeover is recorded (the corpse's
  // attempt died with it, run cancelled, completion never delivered), and
  // the adopted deployment is the term-3 run's.
  ASSERT_EQ(ha.failovers().size(), 1u);
  const controller::FailoverReport& report = ha.failovers().back();
  ASSERT_TRUE(report.converged) << report.failure;
  EXPECT_EQ(report.newLeader, 2);
  EXPECT_EQ(report.fromTerm, 2u);
  EXPECT_EQ(report.toTerm, 3u);
  EXPECT_TRUE(ha.isLeader(2));
  EXPECT_EQ(ha.term(), 3u);
  EXPECT_FALSE(ha.takeoverInProgress());
  EXPECT_EQ(ha.staleRecoveryCompletions(), 0u);
  EXPECT_TRUE(pureEpoch(ha.deployment().switches, 1));
  EXPECT_EQ(fabricFingerprint(ha.deployment().switches),
            crashFreeFingerprint(false));
}

// ---------------------------------------------------------------------------
// Stream flow-control hardening: a zero/negative ack window must stream (not
// silently wedge), a dead standby must not accumulate a send queue at all,
// and a partitioned-but-alive standby's backlog is capped and repaired by
// snapshot catch-up.
// ---------------------------------------------------------------------------

TEST(HaStreaming, DeadStandbyAccumulatesNoSendQueue) {
  const topo::Topology from = topo::makeLine(6);
  routing::ShortestPathRouting rFrom(from);
  auto plantR = projection::planPlant({&from}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 3, rcfg);

  // Long lease: the live standby must not start an election while we watch
  // the dead one's queue.
  controller::HaConfig hcfg;
  hcfg.leaseInterval = msToNs(500.0);
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 3, hcfg);
  ASSERT_TRUE(ha.adoptDeployment(depR.value()).ok());
  ha.start();

  sim.schedule(usToNs(60.0), [&ha]() { ha.kill(2); });
  for (int i = 0; i < 64; ++i) {
    sim.schedule(usToNs(100.0) + i * usToNs(10.0), [&ha, i]() {
      controller::JournalRecord rec;
      rec.kind = controller::JournalRecordKind::kDeploy;
      rec.epoch = static_cast<std::uint32_t>(i + 2);
      rec.topology = "line6";
      rec.routing = "shortest-path";
      ASSERT_TRUE(ha.leaderJournal().append(rec).ok());
    });
  }
  sim.runUntil(msToNs(10.0));

  // Not one frame queued toward the corpse for the life of the run; the
  // live standby replicated everything.
  EXPECT_EQ(ha.status(2).sendQueueDepth, 0u);
  EXPECT_EQ(ha.status(2).queueOverflows, 0u);
  EXPECT_EQ(ha.status(1).lastAppliedSeq, ha.leaderJournal().nextSeq() - 1);
}

TEST(HaStreaming, PartitionedStandbyQueueIsCappedAndRepairedByCatchup) {
  const topo::Topology from = topo::makeLine(6);
  routing::ShortestPathRouting rFrom(from);
  auto plantR = projection::planPlant({&from}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 3, rcfg);

  // More records than the ack window plus the queue cap, so the overflow
  // path triggers; long lease so the partition cannot turn into an election
  // mid-test.
  controller::HaConfig hcfg;
  hcfg.leaseInterval = msToNs(500.0);
  controller::ReplicatedController ha(sim, ctl, fabric, repl, 2, hcfg);
  ASSERT_TRUE(ha.adoptDeployment(depR.value()).ok());
  ha.start();

  repl.disconnect(1, usToNs(50.0), msToNs(10.0));
  for (int i = 0; i < controller::kSendQueueCap + controller::kAckWindow + 64; ++i) {
    sim.schedule(usToNs(100.0) + i * usToNs(1.0), [&ha, i]() {
      controller::JournalRecord rec;
      rec.kind = controller::JournalRecordKind::kDeploy;
      rec.epoch = static_cast<std::uint32_t>(i + 2);
      rec.topology = "line6";
      rec.routing = "shortest-path";
      ASSERT_TRUE(ha.leaderJournal().append(rec).ok());
    });
  }
  // Mid-partition: the backlog is bounded by the cap, overflow counted.
  sim.runUntil(msToNs(5.0));
  EXPECT_LE(ha.status(1).sendQueueDepth,
            static_cast<std::size_t>(controller::kSendQueueCap));
  EXPECT_GE(ha.status(1).queueOverflows, 1u);

  // After the heal, heartbeat stall detection pulls the full image over and
  // the standby reconverges byte-identical despite the dropped backlog.
  sim.runUntil(msToNs(60.0));
  EXPECT_GE(ha.status(1).snapshotsInstalled, 1u);
  EXPECT_EQ(ha.status(1).lastAppliedSeq, ha.leaderJournal().nextSeq() - 1);
  auto leaderBytes = ha.storageOf(0).read();
  auto standbyBytes = ha.storageOf(1).read();
  ASSERT_TRUE(leaderBytes.ok());
  ASSERT_TRUE(standbyBytes.ok());
  EXPECT_EQ(leaderBytes.value(), standbyBytes.value());
}

// ---------------------------------------------------------------------------
// Lifetime: destroying the controller while its heartbeat/lease/stream
// events are still queued on the simulator must be safe — every scheduled
// callback holds a liveness token and no-ops after destruction (ASan in the
// failover-soak job gives this test its teeth).
// ---------------------------------------------------------------------------

TEST(HaLifetime, DestructionWithQueuedEventsIsSafe) {
  const topo::Topology from = topo::makeLine(6);
  routing::ShortestPathRouting rFrom(from);
  auto plantR = projection::planPlant({&from}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  controller::SdtController ctl(plantR.value());
  auto depR = ctl.deploy(from, rFrom);
  ASSERT_TRUE(depR.ok());

  sim::Simulator sim;
  sim::ControlChannel fabric(sim, faultSeed());
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;
  rcfg.jitter = 500;
  sim::ControlChannel repl(sim, faultSeed() + 3, rcfg);

  auto ha = std::make_unique<controller::ReplicatedController>(
      sim, ctl, fabric, repl, 3, controller::HaConfig{});
  ASSERT_TRUE(ha->adoptDeployment(depR.value()).ok());
  ha->start();
  // Heartbeat ticks, lease checks, stream frames, and acks are now queued
  // past this horizon; destroy the controller out from under all of them.
  sim.runUntil(msToNs(1.0));
  ha.reset();
  sim.runUntil(msToNs(10.0));  // drain: every orphaned event must no-op
}

// ---------------------------------------------------------------------------
// Bounded xid dedup cache (satellite): FIFO eviction at the configured
// capacity, and dedup still holds for every xid inside the window.
// ---------------------------------------------------------------------------

TEST(XidCache, FifoEvictionKeepsDedupInsideTheWindow) {
  openflow::Switch sw(0, 8);
  EXPECT_EQ(sw.xidCacheSize(), 0u);
  EXPECT_EQ(sw.xidCacheCapacity(), 4096u);

  sw.setXidCacheCapacity(4);
  for (std::uint64_t xid = 1; xid <= 4; ++xid) {
    EXPECT_TRUE(sw.acceptXid(xid));
  }
  EXPECT_EQ(sw.xidCacheSize(), 4u);
  // Everything inside the window dedups.
  for (std::uint64_t xid = 1; xid <= 4; ++xid) {
    EXPECT_FALSE(sw.acceptXid(xid)) << "xid " << xid;
  }
  EXPECT_EQ(sw.xidCacheSize(), 4u);

  // A fifth xid evicts the oldest (1) and only the oldest.
  EXPECT_TRUE(sw.acceptXid(5));
  EXPECT_EQ(sw.xidCacheSize(), 4u);
  EXPECT_FALSE(sw.seenXid(1));
  EXPECT_TRUE(sw.acceptXid(1));  // re-admitted: beyond the window
  EXPECT_FALSE(sw.seenXid(2));   // ...which in turn evicted 2
  for (const std::uint64_t xid : {3ULL, 4ULL, 5ULL, 1ULL}) {
    EXPECT_FALSE(sw.acceptXid(xid)) << "xid " << xid;
  }

  // Shrinking the capacity evicts immediately, oldest first.
  sw.setXidCacheCapacity(2);
  EXPECT_EQ(sw.xidCacheSize(), 2u);
  EXPECT_TRUE(sw.seenXid(5));
  EXPECT_TRUE(sw.seenXid(1));
  EXPECT_FALSE(sw.seenXid(4));
  // Capacity clamps to >= 1 (a zero-capacity cache would break every
  // duplicate-delivery guard silently).
  sw.setXidCacheCapacity(0);
  EXPECT_EQ(sw.xidCacheCapacity(), 1u);
  EXPECT_EQ(sw.xidCacheSize(), 1u);

  // Reboot clears the window entirely (volatile state).
  sw.reboot();
  EXPECT_EQ(sw.xidCacheSize(), 0u);
  EXPECT_TRUE(sw.acceptXid(1));
}

}  // namespace
}  // namespace sdt
