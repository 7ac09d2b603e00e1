// Tests: transactional topology reconfiguration — two-phase consistent
// updates with versioned rules over an unreliable control channel.
//
// The invariant under test everywhere: during a live reconfiguration every
// packet is forwarded end-to-end by exactly one configuration epoch's rules
// (sim::EpochConsistencyChecker), and a transaction either converges to a
// pure new-epoch state or rolls back to a pure old-epoch state — never
// anything in between.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "controller/monitor.hpp"
#include "controller/session.hpp"
#include "controller/transaction.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/consistency.hpp"
#include "sim/control_channel.hpp"
#include "sim/transport.hpp"
#include "topo/generators.hpp"

namespace sdt {
namespace {

std::uint64_t faultSeed() {
  const char* env = std::getenv("SDT_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1ULL;
}

/// All-pairs table walk (same helper as test_recovery).
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

/// Every switch holds rules of exactly `epoch` and stamps it at ingress.
void expectPureEpoch(const controller::Deployment& dep, std::uint32_t epoch) {
  const std::uint32_t other = epoch == dep.epoch ? epoch + 1 : dep.epoch;
  for (const auto& ofs : dep.switches) {
    EXPECT_EQ(ofs->ingressEpoch(), epoch) << "switch " << ofs->id();
    EXPECT_EQ(ofs->table().countEpoch(other), 0u) << "switch " << ofs->id();
    EXPECT_EQ(ofs->table().countEpoch(epoch), ofs->table().size())
        << "switch " << ofs->id();
  }
}

/// Shared live-reconfiguration rig: line(6) deployed and carrying TCP
/// traffic on a 2-switch plant that can also hold ring(6); both topologies
/// attach host i to logical switch i, so host ports stay put and a live
/// line -> ring update is plannable.
class LiveReconfig : public ::testing::Test {
 protected:
  void SetUp() override {
    from_ = topo::makeLine(6);
    to_ = topo::makeRing(6);
    routingFrom_ = std::make_unique<routing::ShortestPathRouting>(from_);
    routingTo_ = std::make_unique<routing::ShortestPathRouting>(to_);
    auto plantR = projection::planPlant({&from_, &to_}, {.numSwitches = 2});
    ASSERT_TRUE(plantR.ok());
    plant_ = std::move(plantR).value();
    ctl_ = std::make_unique<controller::SdtController>(plant_);
    auto depR = ctl_->deploy(from_, *routingFrom_);
    ASSERT_TRUE(depR.ok()) << depR.error().message;
    dep_ = std::move(depR).value();
    built_ = sim::buildProjectedNetwork(sim_, from_, dep_.projection, plant_,
                                        dep_.switches, {}, {2.0, 1.0}, &checker_);
    tm_ = std::make_unique<sim::TransportManager>(sim_, *built_.net,
                                                  sim::TransportConfig{});
  }

  [[nodiscard]] controller::UpdatePlan plan() {
    controller::DeployOptions opt;
    opt.requireDeadlockFree = false;  // ring + shortest path: cyclic CDG
    auto planR = ctl_->planUpdate(dep_, to_, *routingTo_, opt);
    EXPECT_TRUE(planR.ok()) << planR.error().message;
    return std::move(planR).value();
  }

  void startTraffic(int bytesPerFlow = 256 * 1024) {
    const int hosts = from_.numHosts();
    for (int h = 0; h < hosts; ++h) {
      tm_->startTcpFlow(h, (h + hosts / 2) % hosts, bytesPerFlow,
                        [this](sim::Time) { ++flowsCompleted_; });
    }
  }

  topo::Topology from_, to_;
  std::unique_ptr<routing::ShortestPathRouting> routingFrom_, routingTo_;
  projection::Plant plant_;
  std::unique_ptr<controller::SdtController> ctl_;
  controller::Deployment dep_;
  sim::Simulator sim_;
  sim::EpochConsistencyChecker checker_;
  sim::BuiltNetwork built_;
  std::unique_ptr<sim::TransportManager> tm_;
  int flowsCompleted_ = 0;
};

TEST_F(LiveReconfig, CommitsUnderReliableChannelWithZeroViolations) {
  const int oldTotal = dep_.totalFlowEntries;
  controller::UpdatePlan plan = this->plan();
  EXPECT_EQ(plan.fromEpoch, 1u);
  EXPECT_EQ(plan.toEpoch, 2u);
  const int planned = plan.totalEntries;

  sim::ControlChannel channel(sim_, faultSeed());
  controller::ReconfigTransaction tx(sim_, channel, dep_, std::move(plan));
  startTraffic();
  sim_.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim_.runUntil(msToNs(40.0));

  ASSERT_TRUE(tx.finished());
  const controller::ReconfigReport& r = tx.report();
  EXPECT_TRUE(r.committed);
  EXPECT_FALSE(r.rolledBack);
  EXPECT_EQ(r.phaseReached, controller::ReconfigPhase::kDone);
  EXPECT_TRUE(r.pureStateVerified);
  EXPECT_FALSE(r.gcIncomplete);
  EXPECT_TRUE(r.failure.empty());
  EXPECT_EQ(r.flowModsInstalled, planned);
  EXPECT_EQ(r.flowModsGarbageCollected, oldTotal);
  EXPECT_EQ(r.flowModsRolledBack, 0);
  EXPECT_EQ(r.barrierRoundTrips, plant_.numSwitches());
  EXPECT_EQ(r.retriesTotal, 0);  // perfect channel: no resends
  EXPECT_GT(r.updateWindow(), 0);
  EXPECT_GT(r.finishedAt, r.updateWindowEnd);
  for (const controller::SwitchTxState& s : r.switches) {
    EXPECT_TRUE(s.installAcked && s.barrierAcked && s.flipAcked && s.gcAcked);
    EXPECT_FALSE(s.rollbackAcked);
  }

  // The deployment is now the ring, epoch 2, pure.
  EXPECT_EQ(dep_.epoch, 2u);
  EXPECT_EQ(dep_.totalFlowEntries, planned);
  expectPureEpoch(dep_, 2);
  for (topo::HostId src = 0; src < to_.numHosts(); ++src) {
    for (topo::HostId dst = 0; dst < to_.numHosts(); ++dst) {
      if (src != dst) {
        EXPECT_TRUE(walkDelivers(dep_, to_, src, dst)) << src << "->" << dst;
      }
    }
  }

  // Per-packet consistency held throughout, and the checker really saw
  // epoch-stamped traffic spanning the update.
  EXPECT_TRUE(checker_.violations().empty())
      << checker_.violations().front().describe();
  EXPECT_GT(checker_.stampedPackets(), 0u);
  EXPECT_EQ(flowsCompleted_, from_.numHosts());
}

TEST_F(LiveReconfig, RollsBackToPureOldEpochWhenSwitchUnreachable) {
  controller::UpdatePlan plan = this->plan();

  // Switch 0's management link is dead across the whole install-retry
  // budget, then comes back: the transaction must abort and roll back —
  // including the delayed rollback delete to switch 0 once it reconnects.
  sim::ControlChannel channel(sim_, faultSeed());
  channel.disconnect(0, 0, msToNs(2.0));
  controller::ReconfigTransaction tx(sim_, channel, dep_, std::move(plan));
  startTraffic();
  sim_.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim_.runUntil(msToNs(40.0));

  ASSERT_TRUE(tx.finished());
  const controller::ReconfigReport& r = tx.report();
  EXPECT_FALSE(r.committed);
  EXPECT_TRUE(r.rolledBack);
  EXPECT_EQ(r.phaseReached, controller::ReconfigPhase::kInstall);
  EXPECT_TRUE(r.pureStateVerified);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_GT(r.retriesTotal, 0);
  EXPECT_GT(r.rollbackLatency, 0);
  EXPECT_EQ(r.flowModsInstalled, r.flowModsRolledBack);  // every add undone

  // The deployment still runs the line at epoch 1, pure, fully forwarding.
  EXPECT_EQ(dep_.epoch, 1u);
  expectPureEpoch(dep_, 1);
  for (topo::HostId src = 0; src < from_.numHosts(); ++src) {
    for (topo::HostId dst = 0; dst < from_.numHosts(); ++dst) {
      if (src != dst) {
        EXPECT_TRUE(walkDelivers(dep_, from_, src, dst)) << src << "->" << dst;
      }
    }
  }
  EXPECT_TRUE(checker_.violations().empty())
      << checker_.violations().front().describe();
  EXPECT_EQ(flowsCompleted_, from_.numHosts());
}

TEST_F(LiveReconfig, MonitorGuardSuppressesSpuriousFailuresDuringTransaction) {
  controller::UpdatePlan plan = this->plan();

  controller::NetworkMonitor monitor(sim_, *built_.net, from_, dep_.projection);
  monitor.enableFailureDetection(usToNs(60.0));
  monitor.start(usToNs(5.0));

  sim::ControlChannel channel(sim_, faultSeed());
  controller::ReconfigOptions opt;
  opt.monitor = &monitor;
  controller::ReconfigTransaction tx(sim_, channel, dep_, std::move(plan), opt);
  startTraffic();
  sim_.schedule(usToNs(100.0), [&]() {
    tx.start();
    EXPECT_TRUE(monitor.guarded(0));
    EXPECT_TRUE(monitor.guarded(1));
  });
  sim_.runUntil(msToNs(40.0));

  ASSERT_TRUE(tx.finished());
  EXPECT_TRUE(tx.report().committed);
  // Guards lifted at finish; no spurious PortFailure fired even though the
  // topology swap idled previously-busy ports mid-stream.
  EXPECT_FALSE(monitor.guarded(0));
  EXPECT_FALSE(monitor.guarded(1));
  EXPECT_TRUE(monitor.portFailures().empty());
}

// A committed transaction hands the deployment its new intent (topology,
// routing, ECMP salt), so repair() recompiles the committed tables rather
// than the ones the deployment started with.
TEST_F(LiveReconfig, CommitAdoptsTheNewIntentForRepair) {
  controller::DeployOptions opt;
  opt.requireDeadlockFree = false;
  opt.ecmpSalt = 7;
  auto planR = ctl_->planUpdate(dep_, to_, *routingTo_, opt);
  ASSERT_TRUE(planR.ok()) << planR.error().message;
  sim::ControlChannel channel(sim_, faultSeed());
  controller::ReconfigTransaction tx(sim_, channel, dep_, std::move(planR).value());
  tx.start();
  sim_.runUntil(msToNs(40.0));
  ASSERT_TRUE(tx.finished());
  ASSERT_TRUE(tx.report().committed);
  EXPECT_EQ(dep_.topology, to_.name());
  EXPECT_EQ(dep_.routing, routingTo_->name());
  EXPECT_EQ(dep_.ecmpSalt, 7u);

  auto rep = ctl_->repair(dep_, to_, *routingTo_, controller::FailureSet{});
  ASSERT_TRUE(rep.ok()) << rep.error().message;
  EXPECT_EQ(rep.value().flowMods(), 0);
  expectPureEpoch(dep_, 2);
}

// Regression: the doubling backoff passes 2^63 ns within ~64 attempts, and
// casting a larger double to TimeNs is undefined. Backstop rounds run to
// SwitchSession::kBackstopAttempts, so every attempt count must give a
// finite wait within the cap — and the same seed and switch the same wait.
TEST(SwitchSession, BackoffStaysClampedAndDeterministic) {
  using controller::SwitchSession;
  const auto stream = [](int sw) {
    return SwitchSession::jitterStream(SwitchSession::kDefaultSeed, 0x7C0FF1E5ULL, sw);
  };
  Rng a = stream(3);
  Rng b = stream(3);
  Rng other = stream(4);
  bool differs = false;
  for (const int attempt :
       {1, 2, 3, 8, 63, 64, 65, 1000, std::numeric_limits<int>::max()}) {
    const TimeNs wait = SwitchSession::backoff(attempt, a);
    EXPECT_GT(wait, 0) << "attempt " << attempt;
    EXPECT_LE(wait, SwitchSession::kMaxBackoff) << "attempt " << attempt;
    EXPECT_EQ(wait, SwitchSession::backoff(attempt, b)) << "attempt " << attempt;
    differs = differs || wait != SwitchSession::backoff(attempt, other);
  }
  EXPECT_TRUE(differs) << "switches share one jitter stream";

  // Below the cap each wait sits in its doubling step's jitter band.
  Rng c = stream(0);
  for (const int attempt : {1, 2, 3}) {
    const TimeNs step = SwitchSession::kBaseBackoff << (attempt - 1);
    const TimeNs wait = SwitchSession::backoff(attempt, c);
    EXPECT_GE(wait, static_cast<TimeNs>(static_cast<double>(step) *
                                        (1.0 - SwitchSession::kJitter)));
    EXPECT_LE(wait, step);
  }
}

TEST(Reconfig, PlanUpdateAbortsCleanlyWhenBothVersionsExceedCapacity) {
  // Size the flow tables so one configuration fits but two do not: the
  // prepare phase must refuse before anything is installed.
  const topo::Topology line = topo::makeLine(6);
  const topo::Topology ring = topo::makeRing(6);
  routing::ShortestPathRouting rLine(line);
  routing::ShortestPathRouting rRing(ring);
  auto plantR = projection::planPlant({&line, &ring}, {.numSwitches = 2});
  ASSERT_TRUE(plantR.ok());
  projection::Plant plant = std::move(plantR).value();
  {
    controller::SdtController probe(plant);
    auto dep = probe.deploy(line, rLine);
    ASSERT_TRUE(dep.ok());
    for (auto& spec : plant.switches) {
      spec.flowTableCapacity =
          static_cast<std::size_t>(dep.value().maxEntriesPerSwitch) + 8;
    }
  }
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(line, rLine);
  ASSERT_TRUE(depR.ok()) << depR.error().message;
  controller::Deployment dep = std::move(depR).value();

  controller::DeployOptions opt;
  opt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, ring, rRing, opt);
  ASSERT_FALSE(planR.ok());
  EXPECT_NE(planR.error().message.find("two-phase update"), std::string::npos);
  // Nothing touched: still epoch 1, still the full line table.
  EXPECT_EQ(dep.epoch, 1u);
  expectPureEpoch(dep, 1);
}

// ---------------------------------------------------------------------------
// Fuzz: 200+ random control-channel schedules through a live reconfiguration.
// Every run must (a) terminate, (b) end committed-and-pure or
// rolled-back-and-pure, and (c) never mix epochs on any packet's path.
// ---------------------------------------------------------------------------

struct FuzzOutcome {
  bool finished = false;
  bool committed = false;
  bool rolledBack = false;
  bool pure = false;
  std::size_t violations = 0;
  std::size_t stamped = 0;
};

FuzzOutcome runFuzzSchedule(std::uint64_t seed) {
  Rng rng(seed);
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  if (!plantR.ok()) return {};
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  if (!depR.ok()) return {};
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::EpochConsistencyChecker checker;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, &checker);
  sim::TransportManager tm(sim, *built.net, {});

  // Random impairment mix, drawn deterministically from the fuzz seed.
  sim::ControlChannelConfig cfg;
  cfg.dropProb = rng.uniform() * 0.4;
  cfg.dupProb = rng.uniform() * 0.3;
  cfg.reorderProb = rng.uniform() * 0.3;
  cfg.jitter = static_cast<TimeNs>(rng.between(500, 4'000));
  cfg.reorderDelay = static_cast<TimeNs>(rng.between(5'000, 30'000));
  sim::ControlChannel channel(sim, seed, cfg);
  // Half the schedules also sever one switch's management link for a
  // window that may or may not outlast the bounded retry budget.
  if (rng.uniform() < 0.5) {
    const int sw = static_cast<int>(rng.below(static_cast<std::uint64_t>(
        plant.numSwitches())));
    const TimeNs fromT = static_cast<TimeNs>(rng.between(0, 500'000));
    const TimeNs len = static_cast<TimeNs>(rng.between(50'000, 3'000'000));
    channel.disconnect(sw, fromT, fromT + len);
  }

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  if (!planR.ok()) return {};

  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value());
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 96 * 1024, nullptr);
  }
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));

  FuzzOutcome out;
  out.finished = tx.finished();
  if (!out.finished) return out;
  const controller::ReconfigReport& r = tx.report();
  out.committed = r.committed;
  out.rolledBack = r.rolledBack;
  out.pure = r.pureStateVerified;
  out.violations = checker.violations().size();
  out.stamped = checker.stampedPackets();
  // Cross-check the report's purity claim against the tables directly.
  const std::uint32_t keep = r.committed ? r.toEpoch : r.fromEpoch;
  const std::uint32_t gone = r.committed ? r.fromEpoch : r.toEpoch;
  for (const auto& ofs : dep.switches) {
    if (ofs->table().countEpoch(gone) != 0 || ofs->ingressEpoch() != keep) {
      out.pure = false;
    }
  }
  return out;
}

TEST(ReconfigFuzz, TwoHundredSchedulesConvergeOrRollBackPure) {
  const std::uint64_t base = faultSeed() * 100'000ULL;
  int committed = 0;
  int rolledBack = 0;
  std::size_t stampedTotal = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t seed = base + i;
    const FuzzOutcome out = runFuzzSchedule(seed);
    ASSERT_TRUE(out.finished) << "seed " << seed << " did not converge";
    ASSERT_TRUE(out.committed != out.rolledBack)
        << "seed " << seed << " ended neither committed nor rolled back";
    EXPECT_TRUE(out.pure) << "seed " << seed << " left mixed-epoch state";
    EXPECT_EQ(out.violations, 0u) << "seed " << seed << " mixed epochs on a path";
    committed += out.committed;
    rolledBack += out.rolledBack;
    stampedTotal += out.stamped;
  }
  // The schedule space must actually exercise both outcomes and real
  // epoch-stamped traffic, or the suite is vacuous.
  EXPECT_GT(committed, 0);
  EXPECT_GT(rolledBack, 0);
  EXPECT_GT(stampedTotal, 0u);
}

// ---------------------------------------------------------------------------
// Fuzz: CONCURRENT transactions on disjoint switch sets. Two controllers
// reconfigure two deployments whose switches never overlap, but they share
// one simulator and one lossy management channel — their install/barrier/
// flip/gc acks interleave freely in time. 200 random schedules assert no
// cross-transaction barrier interference: each transaction's barrier counts
// exactly its own switches' acks, its flow-mod totals never absorb the
// neighbor's, and each lands committed-pure or rolled-back-pure on its own
// merits (one may roll back while the other commits).
// ---------------------------------------------------------------------------

struct ConcurrentOutcome {
  bool valid = false;
  bool finishedA = false, finishedB = false;
  bool committedA = false, committedB = false;
  bool rolledBackA = false, rolledBackB = false;
  bool pureA = false, pureB = false;
  int barrierA = 0, barrierB = 0;
  int installedA = 0, installedB = 0;
  int planEntriesA = 0, planEntriesB = 0;
};

ConcurrentOutcome runConcurrentSchedule(std::uint64_t seed) {
  Rng rng(seed);
  const topo::Topology from = topo::makeLine(4);
  const topo::Topology to = topo::makeRing(4);
  routing::ShortestPathRouting rFrom(from);
  routing::ShortestPathRouting rTo(to);

  // Two fully independent fabrics (disjoint switch sets) behind one
  // management network.
  struct Lane {
    projection::Plant plant;
    std::unique_ptr<controller::SdtController> ctl;
    controller::Deployment dep;
    int planEntries = 0;
    std::unique_ptr<controller::ReconfigTransaction> tx;
  };
  Lane lanes[2];
  sim::Simulator sim;
  sim::ControlChannelConfig cfg;
  cfg.dropProb = rng.uniform() * 0.4;
  cfg.dupProb = rng.uniform() * 0.3;
  cfg.reorderProb = rng.uniform() * 0.3;
  cfg.jitter = static_cast<TimeNs>(rng.between(500, 4'000));
  cfg.reorderDelay = static_cast<TimeNs>(rng.between(5'000, 30'000));
  sim::ControlChannel channel(sim, seed, cfg);
  if (rng.uniform() < 0.5) {
    const int sw = static_cast<int>(rng.below(2));
    const TimeNs fromT = static_cast<TimeNs>(rng.between(0, 500'000));
    const TimeNs len = static_cast<TimeNs>(rng.between(50'000, 3'000'000));
    channel.disconnect(sw, fromT, fromT + len);
  }

  for (Lane& lane : lanes) {
    auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
    if (!plantR.ok()) return {};
    lane.plant = std::move(plantR).value();
    lane.ctl = std::make_unique<controller::SdtController>(lane.plant);
    auto depR = lane.ctl->deploy(from, rFrom);
    if (!depR.ok()) return {};
    lane.dep = std::move(depR).value();
    controller::DeployOptions dopt;
    dopt.requireDeadlockFree = false;
    auto planR = lane.ctl->planUpdate(lane.dep, to, rTo, dopt);
    if (!planR.ok()) return {};
    lane.planEntries = planR.value().totalEntries;
    lane.tx = std::make_unique<controller::ReconfigTransaction>(
        sim, channel, lane.dep, std::move(planR).value());
    sim.schedule(static_cast<TimeNs>(rng.between(10'000, 400'000)),
                 [&lane]() { lane.tx->start(); });
  }
  sim.runUntil(msToNs(80.0));

  ConcurrentOutcome out;
  out.valid = true;
  out.finishedA = lanes[0].tx->finished();
  out.finishedB = lanes[1].tx->finished();
  if (!out.finishedA || !out.finishedB) return out;
  const controller::ReconfigReport& a = lanes[0].tx->report();
  const controller::ReconfigReport& b = lanes[1].tx->report();
  out.committedA = a.committed;
  out.committedB = b.committed;
  out.rolledBackA = a.rolledBack;
  out.rolledBackB = b.rolledBack;
  out.pureA = a.pureStateVerified;
  out.pureB = b.pureStateVerified;
  out.barrierA = a.barrierRoundTrips;
  out.barrierB = b.barrierRoundTrips;
  out.installedA = a.flowModsInstalled;
  out.installedB = b.flowModsInstalled;
  out.planEntriesA = lanes[0].planEntries;
  out.planEntriesB = lanes[1].planEntries;
  // Cross-check purity directly against each lane's own tables.
  for (int i = 0; i < 2; ++i) {
    const controller::ReconfigReport& r = lanes[i].tx->report();
    const std::uint32_t keep = r.committed ? r.toEpoch : r.fromEpoch;
    const std::uint32_t gone = r.committed ? r.fromEpoch : r.toEpoch;
    for (const auto& ofs : lanes[i].dep.switches) {
      if (ofs->table().countEpoch(gone) != 0 || ofs->ingressEpoch() != keep) {
        (i == 0 ? out.pureA : out.pureB) = false;
      }
    }
  }
  return out;
}

TEST(ReconfigFuzz, ConcurrentDisjointTransactionsNeverShareBarriers) {
  const std::uint64_t base = faultSeed() * 7'000'000ULL;
  int bothCommitted = 0;
  int split = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t seed = base + i;
    const ConcurrentOutcome out = runConcurrentSchedule(seed);
    ASSERT_TRUE(out.valid) << "seed " << seed << " failed to set up";
    ASSERT_TRUE(out.finishedA && out.finishedB)
        << "seed " << seed << " left a transaction unfinished";
    ASSERT_TRUE(out.committedA != out.rolledBackA) << "seed " << seed;
    ASSERT_TRUE(out.committedB != out.rolledBackB) << "seed " << seed;
    EXPECT_TRUE(out.pureA) << "seed " << seed << " lane A mixed epochs";
    EXPECT_TRUE(out.pureB) << "seed " << seed << " lane B mixed epochs";
    // Barrier accounting stays per-transaction: a barrier over 2 own
    // switches completes in exactly 2 round-trips no matter how the
    // neighbor's acks interleave. A committed transaction installed exactly
    // its own plan's entries — never a neighbor's flow-mods.
    if (out.committedA) {
      EXPECT_EQ(out.barrierA, 2) << "seed " << seed;
      EXPECT_EQ(out.installedA, out.planEntriesA) << "seed " << seed;
    }
    if (out.committedB) {
      EXPECT_EQ(out.barrierB, 2) << "seed " << seed;
      EXPECT_EQ(out.installedB, out.planEntriesB) << "seed " << seed;
    }
    bothCommitted += out.committedA && out.committedB;
    split += out.committedA != out.committedB;
  }
  // The schedule space must exercise genuine concurrency outcomes: both
  // committing, and one rolling back while the other commits (independent
  // fates prove the transactions share nothing).
  EXPECT_GT(bothCommitted, 0);
  EXPECT_GT(split, 0);
}

}  // namespace
}  // namespace sdt
