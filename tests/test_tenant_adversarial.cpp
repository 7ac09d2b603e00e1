// Adversarial isolation suite: a hostile tenant does its worst — storms
// traffic, thrashes live reconfigurations, crashes its controller
// mid-transaction, replays a torn journal — while a victim tenant runs a
// fixed workload on the same shared plant. The victim's packet trace
// (receiver, source, destination, payload bytes, and the exact simulated
// time of every sniffed packet and delivery) must be BYTE-IDENTICAL to a
// run where the hostile tenant sits idle, and so must the victim's flow
// entries and host-port epoch stamps. Runs under any SDT_SHARDS (CI
// exercises 1 and 4): baseline and attack runs share the engine
// configuration, so the comparison is exact either way.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "controller/journal.hpp"
#include "controller/recovery.hpp"
#include "controller/transaction.hpp"
#include "openflow/flow_table.hpp"
#include "routing/shortest_path.hpp"
#include "sim/control_channel.hpp"
#include "sim/transport.hpp"
#include "tenant/tenant.hpp"
#include "topo/generators.hpp"

namespace sdt {
namespace {

// -- Victim trace fingerprint ------------------------------------------------

using Fnv = hash::Fnv64;

// -- Shared world ------------------------------------------------------------

/// Two line(4) tenants on a 2-switch plant: victim = tenant 1 (global hosts
/// 0..3), hostile = tenant 2 (global hosts 4..7).
struct World {
  topo::Topology victimTopo;
  topo::Topology hostileTopo;
  topo::Topology hostileAlt;
  std::unique_ptr<routing::ShortestPathRouting> victimRouting;
  std::unique_ptr<routing::ShortestPathRouting> hostileRouting;
  std::unique_ptr<routing::ShortestPathRouting> hostileAltRouting;
  std::unique_ptr<tenant::TenantManager> mgr;
  sim::Simulator sim;
  sim::BuiltNetwork built;
  std::unique_ptr<sim::TransportManager> transport;
  Fnv victimTrace;
  int victimDelivered = 0;
  /// Attack paraphernalia (transactions, recovery runs, channels, journals)
  /// parked here so it outlives every in-flight control message and stale
  /// retry timer, then dies before the simulator does.
  std::vector<std::shared_ptr<void>> keepAlive;

  World() {
    victimTopo = topo::makeLine(4);
    hostileTopo = topo::makeLine(4);
    hostileAlt = topo::makeRing(4);
    victimRouting = std::make_unique<routing::ShortestPathRouting>(victimTopo);
    hostileRouting = std::make_unique<routing::ShortestPathRouting>(hostileTopo);
    hostileAltRouting = std::make_unique<routing::ShortestPathRouting>(hostileAlt);

    projection::PlantConfig cfg;
    cfg.numSwitches = 2;
    cfg.spec = projection::openflow64x100G();
    cfg.hostPortsPerSwitch = 6;
    cfg.interLinksPerPair = 8;
    auto plant = projection::buildPlant(cfg);
    EXPECT_TRUE(plant.ok());
    mgr = std::make_unique<tenant::TenantManager>(plant.value());

    tenant::TenantSpec victim;
    victim.name = "victim";
    victim.topology = &victimTopo;
    victim.routing = victimRouting.get();
    victim.spareSelfLinksPerSwitch = 1;
    victim.deploy.requireDeadlockFree = false;
    EXPECT_TRUE(mgr->admit(victim).ok());

    tenant::TenantSpec hostile = victim;
    hostile.name = "hostile";
    hostile.topology = &hostileTopo;
    hostile.routing = hostileRouting.get();
    // Headroom for the line <-> ring thrash: the ring needs cables the line
    // does not, and a slice can only morph onto spares it owns.
    hostile.spareSelfLinksPerSwitch = 2;
    hostile.spareInterLinksPerPair = 2;
    EXPECT_TRUE(mgr->admit(hostile).ok());

    built = mgr->buildNetwork(sim, {}, {2.0, 1.0});
    // One transport stack is safe to share: every message/packet id is
    // host-tagged from a per-host lane counter, so hostile sends can never
    // renumber (or otherwise perturb) the victim's flows.
    transport = std::make_unique<sim::TransportManager>(sim, *built.net,
                                                        sim::TransportConfig{});

    // Victim trace: everything its hosts ever receive, bit-exact.
    for (int h = 0; h < 4; ++h) {
      built.net->setSniffer(h, [this, h](const sim::Packet& p) {
        victimTrace.mix(static_cast<std::uint64_t>(h));
        victimTrace.mix(static_cast<std::uint64_t>(p.srcHost));
        victimTrace.mix(static_cast<std::uint64_t>(p.dstHost));
        victimTrace.mix(static_cast<std::uint64_t>(p.payloadBytes));
        victimTrace.mix(static_cast<std::uint64_t>(sim.now()));
      });
    }
  }

  /// Fixed victim workload: bursts of pair messages on a strict schedule,
  /// spanning the whole attack window.
  void startVictimWorkload() {
    for (int k = 0; k < 6; ++k) {
      const TimeNs at = usToNs(50.0) + k * msToNs(4.0);
      for (const auto& [src, dst] :
           {std::pair{0, 3}, std::pair{3, 0}, std::pair{1, 2}, std::pair{2, 1}}) {
        sim.schedule(at, [this, src = src, dst = dst]() {
          transport->sendMessage(src, dst, 32 * 1024, 0,
                                       [this](std::uint64_t, TimeNs) {
                                         ++victimDelivered;
                                         victimTrace.mix(
                                             static_cast<std::uint64_t>(sim.now()));
                                       });
        });
      }
    }
  }

  /// Final victim control-plane state, hashed: its flow entries on every
  /// shared switch (cookie namespace 1) plus its host-port epoch stamps.
  std::uint64_t victimStateDigest() const {
    Fnv d;
    for (const auto& sw : mgr->switches()) {
      for (const openflow::FlowEntry& e : sw->table().entries()) {
        if (openflow::cookieTenant(e.cookie) != 1) continue;
        d.mix(e.cookie);
        d.mix(static_cast<std::uint64_t>(e.priority));
        d.mix(e.match.inPort ? static_cast<std::uint64_t>(*e.match.inPort) : ~0ULL);
        d.mix(e.match.dstAddr ? static_cast<std::uint64_t>(*e.match.dstAddr) : ~0ULL);
      }
    }
    const tenant::TenantSlice* v = mgr->slice(1);
    for (topo::HostId h = 0; h < 4; ++h) {
      const projection::PhysPort pp = v->deployment.projection.hostPortOf(h);
      d.mix(mgr->switches()[pp.sw]->hasPortIngressEpoch(pp.port)
                ? static_cast<std::uint64_t>(
                      mgr->switches()[pp.sw]->portIngressEpoch(pp.port))
                : ~0ULL);
    }
    return d.value();
  }
};

struct RunResult {
  std::uint64_t trace = 0;
  std::uint64_t state = 0;
  int delivered = 0;
};

/// Run a world to a fixed horizon with the victim workload plus `attack`
/// (null = the solo baseline).
RunResult runWorld(const std::function<void(World&)>& attack) {
  World w;
  w.startVictimWorkload();
  if (attack) attack(w);
  w.sim.runUntil(msToNs(60.0));
  RunResult out;
  out.trace = w.victimTrace.value();
  out.state = w.victimStateDigest();
  out.delivered = w.victimDelivered;
  return out;
}

// -- Scenarios ---------------------------------------------------------------

TEST(TenantAdversarial, StormingNeighborLeavesVictimTraceByteIdentical) {
  const RunResult solo = runWorld(nullptr);
  EXPECT_EQ(solo.delivered, 24);

  int hostileDelivered = 0;
  const RunResult stormed = runWorld([&](World& w) {
    // Saturating storm inside the hostile slice, started before the victim's
    // first burst and outliving its last.
    for (int k = 0; k < 8; ++k) {
      for (const auto& [src, dst] :
           {std::pair{4, 7}, std::pair{7, 4}, std::pair{5, 6}, std::pair{6, 5}}) {
        w.sim.schedule(
            usToNs(10.0) + k * msToNs(3.0),
            [&w, src = src, dst = dst, &hostileDelivered]() {
              w.transport->sendMessage(
                  src, dst, 512 * 1024, 0,
                  [&hostileDelivered](std::uint64_t, TimeNs) { ++hostileDelivered; });
            });
      }
    }
  });
  EXPECT_GT(hostileDelivered, 0);  // the storm really ran
  EXPECT_EQ(stormed.delivered, solo.delivered);
  EXPECT_EQ(stormed.trace, solo.trace);
  EXPECT_EQ(stormed.state, solo.state);
}

TEST(TenantAdversarial, ReconfigThrashLeavesVictimTraceByteIdentical) {
  const RunResult solo = runWorld(nullptr);

  int commits = 0;
  const RunResult thrashed = runWorld([&](World& w) {
    // The hostile tenant flips line -> ring -> line -> ring live, back to
    // back, each a scoped two-phase transaction over the shared data plane.
    auto channel = std::make_shared<sim::ControlChannel>(w.sim, 7);
    auto txs = std::make_shared<
        std::vector<std::unique_ptr<controller::ReconfigTransaction>>>();
    w.keepAlive.push_back(channel);
    w.keepAlive.push_back(txs);
    for (int round = 0; round < 3; ++round) {
      w.sim.schedule(usToNs(200.0) + round * msToNs(8.0), [&w, channel, txs,
                                                           round, &commits]() {
        const bool toRing = round % 2 == 0;
        const topo::Topology& next = toRing ? w.hostileAlt : w.hostileTopo;
        const routing::RoutingAlgorithm& routing =
            toRing ? *w.hostileAltRouting : *w.hostileRouting;
        auto plan = w.mgr->planSliceUpdate(2, next, routing);
        ASSERT_TRUE(plan.ok()) << plan.error().message;
        auto tx = std::make_unique<controller::ReconfigTransaction>(
            w.sim, *channel, w.mgr->mutableSlice(2)->deployment,
            std::move(plan).value());
        tx->start();
        controller::ReconfigTransaction* raw = tx.get();
        txs->push_back(std::move(tx));
        // Settle bookkeeping just before the next round begins.
        w.sim.schedule(msToNs(7.0), [&w, raw, toRing, &commits]() {
          ASSERT_TRUE(raw->finished());
          ASSERT_TRUE(raw->report().committed) << raw->report().failure;
          ++commits;
          w.mgr->noteReconfigured(2, toRing ? &w.hostileAlt : &w.hostileTopo,
                                  toRing ? w.hostileAltRouting.get()
                                         : w.hostileRouting.get());
        });
      });
    }
  });
  EXPECT_EQ(commits, 3);
  EXPECT_EQ(thrashed.delivered, solo.delivered);
  EXPECT_EQ(thrashed.trace, solo.trace);
  EXPECT_EQ(thrashed.state, solo.state);
}

TEST(TenantAdversarial, CrashMidTransactionAndRecoveryLeaveVictimUntouched) {
  const RunResult solo = runWorld(nullptr);

  bool recovered = false;
  std::uint32_t recoveredEpoch = 0;
  const RunResult crashed = runWorld([&](World& w) {
    auto channel = std::make_shared<sim::ControlChannel>(w.sim, 11);
    auto storage = std::make_shared<controller::MemoryJournalStorage>();
    auto journal = std::make_shared<controller::Journal>(*storage);
    auto holder =
        std::make_shared<std::unique_ptr<controller::ReconfigTransaction>>();
    auto recovery = std::make_shared<std::unique_ptr<controller::RecoveryRun>>();
    for (const std::shared_ptr<void>& p :
         {std::shared_ptr<void>(channel), std::shared_ptr<void>(storage),
          std::shared_ptr<void>(journal), std::shared_ptr<void>(holder),
          std::shared_ptr<void>(recovery)}) {
      w.keepAlive.push_back(p);
    }
    ASSERT_TRUE(
        controller::journalDeploy(*journal, w.mgr->slice(2)->deployment, 0).ok());

    w.sim.schedule(usToNs(200.0), [&w, channel, journal, holder]() {
      auto plan = w.mgr->planSliceUpdate(2, w.hostileAlt, *w.hostileAltRouting);
      ASSERT_TRUE(plan.ok()) << plan.error().message;
      controller::ReconfigOptions topt;
      topt.journal = journal.get();
      topt.crashAt = controller::CrashPoint::kPostFlip;  // dies mid-commit
      *holder = std::make_unique<controller::ReconfigTransaction>(
          w.sim, *channel, w.mgr->mutableSlice(2)->deployment,
          std::move(plan).value(), topt);
      (*holder)->start();
    });
    // The crashed hostile controller's successor cold-starts from the
    // journal alone: the flip marker is durable, so it rolls FORWARD and
    // converges its own namespace only.
    w.sim.schedule(msToNs(20.0), [&w, channel, journal, holder, recovery]() {
      ASSERT_TRUE(*holder != nullptr && (*holder)->finished());
      ASSERT_TRUE((*holder)->crashed());
      controller::IntentCatalog catalog;
      catalog[w.hostileTopo.name()] = {&w.hostileTopo, w.hostileRouting.get()};
      catalog[w.hostileAlt.name()] = {&w.hostileAlt, w.hostileAltRouting.get()};
      auto rplan = controller::planRecovery(*w.mgr->slice(2)->controller,
                                            *journal, catalog,
                                            w.mgr->slice(2)->deployOptions);
      ASSERT_TRUE(rplan.ok()) << rplan.error().message;
      EXPECT_EQ(rplan.value().decision, controller::RecoveryDecision::kRollForward);
      controller::RecoveryOptions ropt;
      ropt.journal = journal.get();
      *recovery = std::make_unique<controller::RecoveryRun>(
          w.sim, *channel, w.mgr->switches(), std::move(rplan).value(), ropt);
      (*recovery)->start();
    });
    w.sim.schedule(msToNs(50.0), [&w, recovery, &recovered, &recoveredEpoch]() {
      ASSERT_TRUE(*recovery != nullptr && (*recovery)->finished());
      recovered = (*recovery)->report().converged &&
                  (*recovery)->report().pureStateVerified;
      recoveredEpoch = (*recovery)->report().targetEpoch;
      if (!recovered) return;
      w.mgr->mutableSlice(2)->deployment = (*recovery)->takeDeployment();
      w.mgr->noteReconfigured(2, &w.hostileAlt, w.hostileAltRouting.get());
    });
  });
  EXPECT_TRUE(recovered);
  EXPECT_EQ(recoveredEpoch, openflow::makeScopedEpoch(2, 2));  // rolled forward
  EXPECT_EQ(crashed.delivered, solo.delivered);
  EXPECT_EQ(crashed.trace, solo.trace);
  EXPECT_EQ(crashed.state, solo.state);
}

TEST(TenantAdversarial, TornJournalReplayIsContainedToTheHostileTenant) {
  const RunResult solo = runWorld(nullptr);

  bool recovered = false;
  std::size_t dropped = 0;
  const RunResult replayed = runWorld([&](World& w) {
    auto channel = std::make_shared<sim::ControlChannel>(w.sim, 13);
    auto storage = std::make_shared<controller::MemoryJournalStorage>();
    auto journal = std::make_shared<controller::Journal>(*storage);
    auto holder =
        std::make_shared<std::unique_ptr<controller::ReconfigTransaction>>();
    auto recovery = std::make_shared<std::unique_ptr<controller::RecoveryRun>>();
    for (const std::shared_ptr<void>& p :
         {std::shared_ptr<void>(channel), std::shared_ptr<void>(storage),
          std::shared_ptr<void>(journal), std::shared_ptr<void>(holder),
          std::shared_ptr<void>(recovery)}) {
      w.keepAlive.push_back(p);
    }
    ASSERT_TRUE(
        controller::journalDeploy(*journal, w.mgr->slice(2)->deployment, 0).ok());

    w.sim.schedule(usToNs(200.0), [&w, channel, journal, holder]() {
      auto plan = w.mgr->planSliceUpdate(2, w.hostileAlt, *w.hostileAltRouting);
      ASSERT_TRUE(plan.ok()) << plan.error().message;
      controller::ReconfigOptions topt;
      topt.journal = journal.get();
      topt.crashAt = controller::CrashPoint::kPostFlip;
      *holder = std::make_unique<controller::ReconfigTransaction>(
          w.sim, *channel, w.mgr->mutableSlice(2)->deployment,
          std::move(plan).value(), topt);
      (*holder)->start();
    });
    w.sim.schedule(msToNs(20.0), [&w, channel, storage, holder, recovery,
                                  &dropped]() {
      ASSERT_TRUE(*holder != nullptr && (*holder)->crashed());
      // Torn write: the journal's tail (the flip marker) lost its last
      // bytes. Replay degrades to the intact record prefix — and whatever
      // the recovery then decides, it stays inside the hostile namespace.
      ASSERT_GT(storage->bytes().size(), 7u);
      storage->bytes().resize(storage->bytes().size() - 7);
      controller::Journal reopened(*storage);
      auto replayR = reopened.replay();
      ASSERT_TRUE(replayR.ok());
      EXPECT_GT(replayR.value().droppedBytes, 0u);
      dropped = replayR.value().droppedBytes;
      controller::IntentCatalog catalog;
      catalog[w.hostileTopo.name()] = {&w.hostileTopo, w.hostileRouting.get()};
      catalog[w.hostileAlt.name()] = {&w.hostileAlt, w.hostileAltRouting.get()};
      auto rplan = controller::planRecovery(*w.mgr->slice(2)->controller,
                                            reopened, catalog,
                                            w.mgr->slice(2)->deployOptions);
      ASSERT_TRUE(rplan.ok()) << rplan.error().message;
      *recovery = std::make_unique<controller::RecoveryRun>(
          w.sim, *channel, w.mgr->switches(), std::move(rplan).value(),
          controller::RecoveryOptions{});
      (*recovery)->start();
    });
    w.sim.schedule(msToNs(50.0), [&w, recovery, &recovered]() {
      ASSERT_TRUE(*recovery != nullptr && (*recovery)->finished());
      recovered = (*recovery)->report().converged &&
                  (*recovery)->report().pureStateVerified;
      if (!recovered) return;
      const bool forward = (*recovery)->report().decision ==
                           controller::RecoveryDecision::kRollForward;
      w.mgr->mutableSlice(2)->deployment = (*recovery)->takeDeployment();
      w.mgr->noteReconfigured(2, forward ? &w.hostileAlt : &w.hostileTopo,
                              forward ? w.hostileAltRouting.get()
                                      : w.hostileRouting.get());
    });
  });
  EXPECT_GT(dropped, 0u);
  EXPECT_TRUE(recovered);
  EXPECT_EQ(replayed.delivered, solo.delivered);
  EXPECT_EQ(replayed.trace, solo.trace);
  EXPECT_EQ(replayed.state, solo.state);
}

}  // namespace
}  // namespace sdt
