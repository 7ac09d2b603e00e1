// Tests: multi-tenant slicing — capacity-aware admission, cookie/epoch
// namespacing, per-port ingress stamps, scoped reconfiguration, eviction GC,
// and fault containment (tenant/tenant.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "controller/journal.hpp"
#include "controller/recovery.hpp"
#include "controller/transaction.hpp"
#include "routing/shortest_path.hpp"
#include "sim/control_channel.hpp"
#include "sim/transport.hpp"
#include "tenant/tenant.hpp"
#include "topo/generators.hpp"

namespace sdt {
namespace {

/// Plant with room for two line(4)/ring(4) tenants on two shared switches.
projection::Plant twoTenantPlant(std::size_t flowTableCapacity = 8192) {
  projection::PlantConfig cfg;
  cfg.numSwitches = 2;
  cfg.spec = projection::openflow64x100G();
  cfg.spec.flowTableCapacity = flowTableCapacity;
  cfg.hostPortsPerSwitch = 6;
  cfg.interLinksPerPair = 8;
  auto plant = projection::buildPlant(cfg);
  EXPECT_TRUE(plant.ok());
  return plant.value();
}

/// This slice's entries on switch `sw`, in table order (byte-identity probe).
std::vector<openflow::FlowEntry> tenantEntries(const openflow::Switch& sw,
                                               std::uint16_t tenant) {
  std::vector<openflow::FlowEntry> out;
  for (const openflow::FlowEntry& e : sw.table().entries()) {
    if (openflow::cookieTenant(e.cookie) == tenant) out.push_back(e);
  }
  return out;
}

bool sameEntries(const std::vector<openflow::FlowEntry>& a,
                 const std::vector<openflow::FlowEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!openflow::sameRule(a[i], b[i])) return false;
  }
  return true;
}

class Tenancy : public ::testing::Test {
 protected:
  void SetUp() override {
    lineA_ = topo::makeLine(4);
    lineB_ = topo::makeLine(4);
    ringA_ = topo::makeRing(4);
    routingA_ = std::make_unique<routing::ShortestPathRouting>(lineA_);
    routingB_ = std::make_unique<routing::ShortestPathRouting>(lineB_);
    routingRingA_ = std::make_unique<routing::ShortestPathRouting>(ringA_);
  }

  tenant::TenantSpec specFor(const std::string& name, const topo::Topology& t,
                             const routing::RoutingAlgorithm& r) {
    tenant::TenantSpec spec;
    spec.name = name;
    spec.topology = &t;
    spec.routing = &r;
    spec.spareSelfLinksPerSwitch = 1;
    spec.deploy.requireDeadlockFree = false;  // ring target: cyclic CDG
    return spec;
  }

  topo::Topology lineA_, lineB_, ringA_;
  std::unique_ptr<routing::ShortestPathRouting> routingA_, routingB_, routingRingA_;
};

TEST_F(Tenancy, AdmitTwoSlicesNamespacesCookiesAndStampsHostPorts) {
  tenant::TenantManager mgr(twoTenantPlant());
  auto a = mgr.admit(specFor("alice", lineA_, *routingA_));
  ASSERT_TRUE(a.ok()) << a.error().message;
  auto b = mgr.admit(specFor("bob", lineB_, *routingB_));
  ASSERT_TRUE(b.ok()) << b.error().message;
  EXPECT_EQ(a.value().id, 1);
  EXPECT_EQ(b.value().id, 2);
  EXPECT_EQ(mgr.numTenants(), 2);

  const tenant::TenantSlice* alice = mgr.slice(1);
  const tenant::TenantSlice* bob = mgr.slice(2);
  ASSERT_NE(alice, nullptr);
  ASSERT_NE(bob, nullptr);
  EXPECT_EQ(alice->hostBase, 0u);
  EXPECT_EQ(bob->hostBase, 4u);
  EXPECT_EQ(alice->deployment.epoch, openflow::makeScopedEpoch(1, 1));
  EXPECT_EQ(bob->deployment.epoch, openflow::makeScopedEpoch(2, 1));

  // Every installed entry belongs to exactly one tenant's cookie namespace,
  // and the two-version reservation covers both.
  for (int sw = 0; sw < mgr.plant().numSwitches(); ++sw) {
    const openflow::FlowTable& table = mgr.switches()[sw]->table();
    const std::size_t t1 = table.countTenant(1);
    const std::size_t t2 = table.countTenant(2);
    EXPECT_EQ(t1 + t2, table.size()) << "switch " << sw;
    EXPECT_EQ(mgr.reservedEntries(sw), 2 * (t1 + t2)) << "switch " << sw;
    // No whole-switch stamp: shared hardware never flips globally.
    EXPECT_EQ(mgr.switches()[sw]->ingressEpoch(), 0u);
  }

  // Each slice's host-facing ports carry its scoped epoch.
  for (const tenant::TenantSlice* s : {alice, bob}) {
    for (topo::HostId h = 0; h < s->topology->numHosts(); ++h) {
      const projection::PhysPort pp = s->deployment.projection.hostPortOf(h);
      EXPECT_TRUE(mgr.switches()[pp.sw]->hasPortIngressEpoch(pp.port));
      EXPECT_EQ(mgr.switches()[pp.sw]->portIngressEpoch(pp.port),
                s->deployment.epoch);
    }
  }

  // Carved resources are disjoint: no watched queue belongs to both.
  std::vector<std::pair<int, int>> overlap;
  std::set_intersection(alice->watchPorts.begin(), alice->watchPorts.end(),
                        bob->watchPorts.begin(), bob->watchPorts.end(),
                        std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty());
}

TEST_F(Tenancy, TrafficFlowsWithinEachSliceWithoutCrosstalk) {
  tenant::TenantManager mgr(twoTenantPlant());
  ASSERT_TRUE(mgr.admit(specFor("alice", lineA_, *routingA_)).ok());
  ASSERT_TRUE(mgr.admit(specFor("bob", lineB_, *routingB_)).ok());

  sim::Simulator sim;
  auto built = mgr.buildNetwork(sim, {}, {2.0, 1.0});
  sim::TransportManager transport(sim, *built.net, {});

  std::vector<std::vector<int>> seenSources(8);
  for (int h = 0; h < 8; ++h) {
    built.net->setSniffer(h, [&seenSources, h](const sim::Packet& p) {
      seenSources[h].push_back(p.srcHost);
    });
  }
  int delivered = 0;
  // Alice = global hosts 0..3, Bob = 4..7; end-to-end in both at once.
  for (const auto& [src, dst] :
       {std::pair{0, 3}, std::pair{3, 0}, std::pair{4, 7}, std::pair{7, 4}}) {
    transport.sendMessage(src, dst, 64 * 1024, 0,
                          [&](std::uint64_t, TimeNs) { ++delivered; });
  }
  sim.run();
  EXPECT_EQ(delivered, 4);
  for (int h = 0; h < 8; ++h) {
    for (const int src : seenSources[h]) {
      EXPECT_EQ(h < 4, src < 4) << "host " << h << " sniffed tenant-foreign " << src;
    }
  }
  EXPECT_EQ(built.net->totalDrops(), 0u);
}

TEST_F(Tenancy, AdmissionRejectsWhenTwoVersionCapacityWouldBreak) {
  // Measure one slice's worst-case per-switch footprint first.
  std::size_t maxPerSwitch = 0;
  {
    tenant::TenantManager probe(twoTenantPlant());
    ASSERT_TRUE(probe.admit(specFor("alice", lineA_, *routingA_)).ok());
    for (int sw = 0; sw < probe.plant().numSwitches(); ++sw) {
      maxPerSwitch = std::max(maxPerSwitch, probe.switches()[sw]->table().countTenant(1));
    }
  }
  ASSERT_GT(maxPerSwitch, 0u);

  // Capacity is exactly one slice's two-version budget on its heaviest
  // switch: the first tenant can always morph, a second must be rejected
  // up front (admitting it would wedge someone's reconfig window).
  tenant::TenantManager mgr(twoTenantPlant(/*flowTableCapacity=*/2 * maxPerSwitch));
  auto a = mgr.admit(specFor("alice", lineA_, *routingA_));
  ASSERT_TRUE(a.ok()) << a.error().message;
  auto b = mgr.admit(specFor("bob", lineB_, *routingB_));
  ASSERT_FALSE(b.ok());
  EXPECT_NE(b.error().message.find("two-version capacity"), std::string::npos)
      << b.error().message;
  // Clean rejection: nothing of bob's touched the shared plane.
  EXPECT_EQ(mgr.numTenants(), 1);
  for (int sw = 0; sw < mgr.plant().numSwitches(); ++sw) {
    EXPECT_EQ(mgr.switches()[sw]->table().countTenant(2), 0u);
  }
}

TEST_F(Tenancy, EvictRemovesOnlyItsOwnNamespaceAndFreesResources) {
  tenant::TenantManager mgr(twoTenantPlant());
  ASSERT_TRUE(mgr.admit(specFor("alice", lineA_, *routingA_)).ok());
  ASSERT_TRUE(mgr.admit(specFor("bob", lineB_, *routingB_)).ok());

  const int n = mgr.plant().numSwitches();
  std::vector<std::vector<openflow::FlowEntry>> bobBefore;
  for (int sw = 0; sw < n; ++sw) {
    bobBefore.push_back(tenantEntries(*mgr.switches()[sw], 2));
  }
  std::vector<projection::PhysPort> aliceHostPorts;
  for (topo::HostId h = 0; h < 4; ++h) {
    aliceHostPorts.push_back(mgr.slice(1)->deployment.projection.hostPortOf(h));
  }

  ASSERT_TRUE(mgr.evict(1).ok());
  EXPECT_EQ(mgr.numTenants(), 1);
  EXPECT_EQ(mgr.slice(1), nullptr);
  for (int sw = 0; sw < n; ++sw) {
    EXPECT_EQ(mgr.switches()[sw]->table().countTenant(1), 0u);
    EXPECT_TRUE(sameEntries(tenantEntries(*mgr.switches()[sw], 2), bobBefore[sw]))
        << "bob's entries disturbed on switch " << sw;
  }
  for (const projection::PhysPort& pp : aliceHostPorts) {
    EXPECT_FALSE(mgr.switches()[pp.sw]->hasPortIngressEpoch(pp.port));
  }
  // Bob's host ports keep their stamps.
  for (topo::HostId h = 0; h < 4; ++h) {
    const projection::PhysPort pp = mgr.slice(2)->deployment.projection.hostPortOf(h);
    EXPECT_EQ(mgr.switches()[pp.sw]->portIngressEpoch(pp.port),
              mgr.slice(2)->deployment.epoch);
  }

  // The freed cables, ports, and host-id range are reusable.
  auto c = mgr.admit(specFor("carol", lineA_, *routingA_));
  ASSERT_TRUE(c.ok()) << c.error().message;
  EXPECT_EQ(c.value().id, 3);
  EXPECT_EQ(mgr.slice(3)->hostBase, 0u);
}

TEST_F(Tenancy, ScopedReconfigLeavesCoTenantByteIdentical) {
  tenant::TenantManager mgr(twoTenantPlant());
  ASSERT_TRUE(mgr.admit(specFor("alice", lineA_, *routingA_)).ok());
  ASSERT_TRUE(mgr.admit(specFor("bob", lineB_, *routingB_)).ok());
  const int n = mgr.plant().numSwitches();

  auto planned = mgr.planSliceUpdate(1, ringA_, *routingRingA_);
  ASSERT_TRUE(planned.ok()) << planned.error().message;
  controller::UpdatePlan plan = std::move(planned).value();
  EXPECT_EQ(plan.fromEpoch, openflow::makeScopedEpoch(1, 1));
  EXPECT_EQ(plan.toEpoch, openflow::makeScopedEpoch(1, 2));
  EXPECT_EQ(plan.scope.tenant(), 1);
  ASSERT_FALSE(plan.scope.switches().empty());

  std::vector<std::vector<openflow::FlowEntry>> bobBefore;
  for (int sw = 0; sw < n; ++sw) {
    bobBefore.push_back(tenantEntries(*mgr.switches()[sw], 2));
  }

  sim::Simulator sim;
  sim::ControlChannel channel(sim, 1);
  tenant::TenantSlice* alice = mgr.mutableSlice(1);
  controller::ReconfigTransaction tx(sim, channel, alice->deployment,
                                     std::move(plan));
  sim.schedule(usToNs(10.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(40.0));
  ASSERT_TRUE(tx.finished());
  ASSERT_TRUE(tx.report().committed) << tx.report().failure;
  EXPECT_TRUE(tx.report().pureStateVerified);
  mgr.noteReconfigured(1, &ringA_, routingRingA_.get());

  // Alice is on her new scoped epoch: old rules gone, host ports re-stamped.
  EXPECT_EQ(alice->deployment.epoch, openflow::makeScopedEpoch(1, 2));
  for (int sw = 0; sw < n; ++sw) {
    EXPECT_EQ(mgr.switches()[sw]->table().countEpoch(openflow::makeScopedEpoch(1, 1)),
              0u);
    EXPECT_EQ(mgr.switches()[sw]->ingressEpoch(), 0u);  // never whole-switch
  }
  for (topo::HostId h = 0; h < 4; ++h) {
    const projection::PhysPort pp = alice->deployment.projection.hostPortOf(h);
    EXPECT_EQ(mgr.switches()[pp.sw]->portIngressEpoch(pp.port),
              openflow::makeScopedEpoch(1, 2));
  }
  // Bob's world is byte-identical: entries, stamps, epoch.
  for (int sw = 0; sw < n; ++sw) {
    EXPECT_TRUE(sameEntries(tenantEntries(*mgr.switches()[sw], 2), bobBefore[sw]))
        << "bob's entries disturbed on switch " << sw;
  }
  for (topo::HostId h = 0; h < 4; ++h) {
    const projection::PhysPort pp = mgr.slice(2)->deployment.projection.hostPortOf(h);
    EXPECT_EQ(mgr.switches()[pp.sw]->portIngressEpoch(pp.port),
              openflow::makeScopedEpoch(2, 1));
  }
}

// Regression: a plan from the slice controller's own planUpdate() carried no
// scope, so committing it stamped alice's epoch switch-wide on both shared
// switches and set her totals to 56 rules where she owns 32 (bob's 24 were
// counted). The plan now derives its scope from the slice's epoch, whoever
// asks for it.
TEST_F(Tenancy, SliceControllerPlanScopesItself) {
  tenant::TenantManager mgr(twoTenantPlant());
  ASSERT_TRUE(mgr.admit(specFor("alice", lineA_, *routingA_)).ok());
  ASSERT_TRUE(mgr.admit(specFor("bob", lineB_, *routingB_)).ok());
  tenant::TenantSlice* alice = mgr.mutableSlice(1);
  auto planned = alice->controller->planUpdate(alice->deployment, ringA_,
                                               *routingRingA_, alice->deployOptions);
  ASSERT_TRUE(planned.ok()) << planned.error().message;
  EXPECT_EQ(planned.value().scope.tenant(), 1);

  sim::Simulator sim;
  sim::ControlChannel channel(sim, 1);
  controller::ReconfigTransaction tx(sim, channel, alice->deployment,
                                     std::move(planned).value());
  sim.schedule(usToNs(10.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(40.0));
  ASSERT_TRUE(tx.finished());
  ASSERT_TRUE(tx.report().committed) << tx.report().failure;
  EXPECT_TRUE(tx.report().pureStateVerified);
  std::size_t owned = 0;
  for (const auto& sw : mgr.switches()) {
    EXPECT_EQ(sw->ingressEpoch(), 0u);  // never whole-switch
    owned += sw->table().countTenant(1);
  }
  EXPECT_EQ(alice->deployment.totalFlowEntries, 32);
  EXPECT_EQ(static_cast<std::size_t>(alice->deployment.totalFlowEntries), owned);
}

// Regression: planRecovery() left a tenant's plan unscoped until the caller
// listed the slice's ports through the tenant manager. Without that, recovery
// re-stamped no port: a cleared host-port stamp stayed at epoch 0 while the
// report read converged and pure.
TEST_F(Tenancy, RecoveryPlanRestampsAClearedHostPort) {
  tenant::TenantManager mgr(twoTenantPlant());
  ASSERT_TRUE(mgr.admit(specFor("alice", lineA_, *routingA_)).ok());
  ASSERT_TRUE(mgr.admit(specFor("bob", lineB_, *routingB_)).ok());
  const tenant::TenantSlice* alice = mgr.slice(1);
  const tenant::TenantSlice* bob = mgr.slice(2);
  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  ASSERT_TRUE(controller::journalDeploy(journal, alice->deployment, 0).ok());

  const projection::PhysPort cleared = alice->deployment.projection.hostPortOf(0);
  mgr.switches()[cleared.sw]->clearPortIngressEpoch(cleared.port);
  ASSERT_EQ(mgr.switches()[cleared.sw]->portIngressEpoch(cleared.port), 0u);

  controller::IntentCatalog catalog;
  catalog[lineA_.name()] = {&lineA_, routingA_.get()};
  auto plan = controller::planRecovery(*alice->controller, journal, catalog,
                                       alice->deployOptions);
  ASSERT_TRUE(plan.ok()) << plan.error().message;
  sim::Simulator sim;
  sim::ControlChannel channel(sim, 1);
  controller::RecoveryRun run(sim, channel, mgr.switches(), std::move(plan).value());
  run.start();
  sim.run();
  ASSERT_TRUE(run.finished());
  EXPECT_TRUE(run.report().converged) << run.report().failure;
  EXPECT_TRUE(run.report().pureStateVerified);
  EXPECT_EQ(run.report().switchesDrifted, 1);
  EXPECT_EQ(mgr.switches()[cleared.sw]->portIngressEpoch(cleared.port),
            alice->deployment.epoch);
  for (topo::HostId h = 0; h < bob->topology->numHosts(); ++h) {
    const projection::PhysPort pp = bob->deployment.projection.hostPortOf(h);
    EXPECT_EQ(mgr.switches()[pp.sw]->portIngressEpoch(pp.port), bob->deployment.epoch);
  }
  for (const auto& sw : mgr.switches()) EXPECT_EQ(sw->ingressEpoch(), 0u);
}

TEST_F(Tenancy, FaultContainmentRoutesFailuresToOwningSliceOnly) {
  tenant::TenantManager mgr(twoTenantPlant());
  ASSERT_TRUE(mgr.admit(specFor("alice", lineA_, *routingA_)).ok());
  ASSERT_TRUE(mgr.admit(specFor("bob", lineB_, *routingB_)).ok());
  const int n = mgr.plant().numSwitches();

  // Pick one of alice's realized (traffic-carrying) cables.
  const tenant::TenantSlice* alice = mgr.slice(1);
  ASSERT_FALSE(alice->deployment.projection.realizedLinks().empty());
  const projection::RealizedLink rl = alice->deployment.projection.realizedLinks()[0];
  const projection::PhysLink cable =
      rl.interSwitch
          ? mgr.plant().interLinks[alice->interToShared[rl.physLink]]
          : mgr.plant().selfLinks[alice->selfToShared[rl.physLink]];
  EXPECT_EQ(mgr.tenantOwningPort(cable.a), 1);
  EXPECT_EQ(mgr.tenantOwningPort(cable.b), 1);

  std::vector<std::vector<openflow::FlowEntry>> bobBefore;
  for (int sw = 0; sw < n; ++sw) {
    bobBefore.push_back(tenantEntries(*mgr.switches()[sw], 2));
  }

  controller::FailureSet failures;
  failures.ports = {cable.a, cable.b};
  // Bob's repair path sees nothing of alice's failure: a no-op.
  auto bobRepair = mgr.repairSlice(2, failures);
  ASSERT_TRUE(bobRepair.ok());
  EXPECT_EQ(bobRepair.value().remappedLinks, 0);
  EXPECT_EQ(bobRepair.value().flowMods(), 0);

  // Alice's repair lands on her own spare and never disturbs bob.
  auto aliceRepair = mgr.repairSlice(1, failures);
  ASSERT_TRUE(aliceRepair.ok()) << aliceRepair.error().message;
  EXPECT_EQ(aliceRepair.value().remappedLinks, 1);
  EXPECT_FALSE(aliceRepair.value().degraded);
  for (int sw = 0; sw < n; ++sw) {
    EXPECT_TRUE(sameEntries(tenantEntries(*mgr.switches()[sw], 2), bobBefore[sw]))
        << "bob's entries disturbed on switch " << sw;
  }
}

}  // namespace
}  // namespace sdt
