// Tests: SDT controller — config loading, checking function, deployment
// (flow-table compilation, capacity guard, deadlock gate), repair.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "controller/config.hpp"
#include "controller/controller.hpp"
#include "controller/table_diff.hpp"
#include "routing/shortest_path.hpp"
#include "topo/generators.hpp"

namespace sdt::controller {
namespace {

projection::Plant plantOf(int switches, int hostPorts, int inter,
                          projection::PhysicalSwitchSpec spec =
                              projection::openflow64x100G()) {
  projection::PlantConfig cfg;
  cfg.numSwitches = switches;
  cfg.spec = spec;
  cfg.hostPortsPerSwitch = hostPorts;
  cfg.interLinksPerPair = inter;
  auto p = projection::buildPlant(cfg);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(Config, TopologyFromJsonFamilies) {
  const auto build = [](const char* text) {
    auto doc = json::parse(text);
    EXPECT_TRUE(doc.ok());
    return topologyFromJson(doc.value());
  };
  auto ft = build(R"({"type": "fattree", "k": 4})");
  ASSERT_TRUE(ft.ok());
  EXPECT_EQ(ft.value().numSwitches(), 20);
  auto df = build(R"({"type": "dragonfly", "a": 4, "g": 9, "h": 2})");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df.value().numSwitches(), 36);
  auto t3 = build(R"({"type": "torus3d", "x": 4, "y": 4, "z": 4})");
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(t3.value().numLinks(), 192);
  auto line = build(R"({"type": "line", "n": 8, "link_gbps": 25})");
  ASSERT_TRUE(line.ok());
  EXPECT_DOUBLE_EQ(line.value().link(0).speed.value, 25.0);
  auto zoo = build(R"({"type": "zoo", "index": 5})");
  ASSERT_TRUE(zoo.ok());
}

TEST(Config, CustomTopology) {
  auto doc = json::parse(R"({
    "type": "custom", "name": "tri", "switches": 3,
    "links": [[0,1],[1,2],[2,0]], "hosts": [0, 2]
  })");
  ASSERT_TRUE(doc.ok());
  auto t = topologyFromJson(doc.value());
  ASSERT_TRUE(t.ok()) << t.error().message;
  EXPECT_EQ(t.value().numSwitches(), 3);
  EXPECT_EQ(t.value().numLinks(), 3);
  EXPECT_EQ(t.value().numHosts(), 2);
}

TEST(Config, RejectsBadSpecs) {
  const auto tryBuild = [](const char* text) {
    auto doc = json::parse(text);
    EXPECT_TRUE(doc.ok());
    return topologyFromJson(doc.value()).ok();
  };
  EXPECT_FALSE(tryBuild(R"({"type": "fattree", "k": 5})"));   // odd k
  EXPECT_FALSE(tryBuild(R"({"type": "dragonfly", "a": 2, "g": 9, "h": 2})"));
  EXPECT_FALSE(tryBuild(R"({"type": "nope"})"));
  EXPECT_FALSE(tryBuild(R"({"type": "zoo", "index": 999})"));
  EXPECT_FALSE(tryBuild(R"({"type": "custom", "switches": 2, "links": [[0,5]]})"));
}

TEST(Config, ExperimentKnobs) {
  auto doc = json::parse(R"({
    "topology": {"type": "line", "n": 8},
    "routing": "shortest", "pfc": false, "dcqcn": false, "cut_through": false
  })");
  ASSERT_TRUE(doc.ok());
  auto cfg = parseExperimentConfig(doc.value());
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().routingStrategy, "shortest");
  sim::NetworkConfig net;
  applyFabricKnobs(cfg.value(), net);
  EXPECT_FALSE(net.pfcEnabled);
  EXPECT_FALSE(net.ecnEnabled);
  EXPECT_FALSE(net.cutThrough);
}

TEST(Controller, DeployLineTopology) {
  const topo::Topology topo = topo::makeLine(8);
  routing::ShortestPathRouting routing(topo);
  SdtController ctl(plantOf(2, 8, 8));
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  EXPECT_GT(dep.value().totalFlowEntries, 0);
  EXPECT_EQ(dep.value().switches.size(), 2u);
  // Modeled reconfiguration time in the paper's 100ms~1s envelope.
  EXPECT_GE(dep.value().reconfigTime, msToNs(80.0));
  EXPECT_LE(dep.value().reconfigTime, secToNs(1.0));
}

TEST(Controller, FlowTablesForwardEveryPair) {
  // Walk every host pair through the programmed tables by hand.
  const topo::Topology topo = topo::makeLine(4);
  routing::ShortestPathRouting routing(topo);
  SdtController ctl(plantOf(1, 4, 0));
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  const auto& deployment = dep.value();
  for (topo::HostId src = 0; src < 4; ++src) {
    for (topo::HostId dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      // Start at src's host port.
      projection::PhysPort at = deployment.projection.hostPortOf(src);
      int hops = 0;
      while (true) {
        ASSERT_LT(++hops, 16) << "loop " << src << "->" << dst;
        openflow::PacketHeader h;
        h.inPort = at.port;
        h.dstAddr = static_cast<std::uint32_t>(dst);
        const auto decision = deployment.switches[at.sw]->process(h);
        ASSERT_TRUE(decision.matched) << src << "->" << dst << " at port " << at.port;
        ASSERT_GE(decision.outPort, 0);
        const projection::PhysPort out{at.sw, decision.outPort};
        if (out == deployment.projection.hostPortOf(dst)) break;  // delivered
        // Otherwise we must be on a fabric link: hop across it.
        const auto logical = deployment.projection.logicalAt(out);
        ASSERT_TRUE(logical.has_value());
        const auto peer = topo.neighborOf(*logical);
        ASSERT_TRUE(peer.has_value());
        at = deployment.projection.physOf(*peer);
      }
    }
  }
}

TEST(Controller, CapacityGuardRefusesTinyTables) {
  const topo::Topology topo = topo::makeFatTree(4);
  routing::ShortestPathRouting routing(topo);
  projection::PhysicalSwitchSpec tiny = projection::openflow128x100G();
  tiny.flowTableCapacity = 50;
  SdtController ctl(plantOf(2, 10, 12, tiny));
  auto dep = ctl.deploy(topo, routing);
  ASSERT_FALSE(dep.ok());
  EXPECT_NE(dep.error().message.find("flow entries"), std::string::npos);
}

TEST(Controller, DeadlockGateBlocksCyclicRouting) {
  const topo::Topology ring = topo::makeRing(6);
  routing::ShortestPathRouting routing(ring);  // cyclic CDG on a ring
  SdtController ctl(plantOf(1, 6, 0));
  DeployOptions opt;
  opt.requireDeadlockFree = true;
  EXPECT_FALSE(ctl.deploy(ring, routing, opt).ok());
  opt.requireDeadlockFree = false;  // lossy network: allowed
  EXPECT_TRUE(ctl.deploy(ring, routing, opt).ok());
}

TEST(Controller, CheckReportsResourceDemands) {
  const topo::Topology a = topo::makeLine(8);
  const topo::Topology b = topo::makeRing(8);
  SdtController ctl(plantOf(2, 8, 8));
  const CheckReport report = ctl.check({&a, &b});
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
  EXPECT_GT(report.maxSelfLinksPerSwitch, 0);
  EXPECT_GT(report.maxHostPortsPerSwitch, 0);
}

TEST(Controller, CheckFlagsInfeasibleTopology) {
  const topo::Topology big = topo::makeFullMesh(24);  // 276 links >> plant
  SdtController ctl(plantOf(2, 8, 8));
  const CheckReport report = ctl.check({&big});
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.problems.empty());
}

// Regression: repair() recompiled with the caller's DeployOptions salt, not
// the deployment's own. On FT-k4 deployed with ecmpSalt 1, a repair with no
// failures and default options strict-deleted and re-added 624 of its 960
// rules, silently re-routing the fabric.
TEST(Controller, RepairRecompilesWithTheDeployedEcmpSalt) {
  const topo::Topology topo = topo::makeFatTree(4);
  routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  ASSERT_TRUE(plant.ok());
  SdtController ctl(plant.value());
  DeployOptions salted;
  salted.ecmpSalt = 1;
  auto dep = ctl.deploy(topo, routing, salted);
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  std::vector<std::vector<openflow::FlowEntry>> before;
  for (const auto& ofs : dep.value().switches) before.push_back(ofs->table().entries());

  auto rep = ctl.repair(dep.value(), topo, routing, FailureSet{});
  ASSERT_TRUE(rep.ok()) << rep.error().message;
  EXPECT_EQ(rep.value().flowMods(), 0);
  for (std::size_t sw = 0; sw < before.size(); ++sw) {
    const std::vector<openflow::FlowEntry>& after =
        dep.value().switches[sw]->table().entries();
    ASSERT_EQ(after.size(), before[sw].size()) << "switch " << sw;
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_TRUE(openflow::sameRule(after[i], before[sw][i]))
          << "switch " << sw << " entry " << i;
    }
  }
}

TEST(Controller, EntriesScaleIsSane) {
  // §VII-C ballpark: FT k=4 on 2 switches needs hundreds (not tens of
  // thousands) of entries per switch.
  const topo::Topology topo = topo::makeFatTree(4);
  routing::ShortestPathRouting routing(topo);
  SdtController ctl(plantOf(2, 10, 12, projection::openflow128x100G()));
  auto dep = ctl.deploy(topo, routing);
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  EXPECT_GT(dep.value().maxEntriesPerSwitch, 100);
  EXPECT_LT(dep.value().maxEntriesPerSwitch, 5000);
}

// Reference for detail::diffEntries: the string-keyed multiset diff it
// replaced. A rule's key prints its priority, cookie tag, match and actions
// (set-VC as action type 2, output as type 0), so the cookie's epoch half and
// the counters are not part of a rule's identity.
std::string referenceKey(const openflow::FlowEntry& e) {
  std::string key = strFormat("p%d c%u m", e.priority, openflow::cookieTag(e.cookie));
  key += e.match.describe();
  if (e.setVc >= 0) key += strFormat(" a2:%d", e.setVc);
  if (e.outPort >= 0) key += strFormat(" a0:%d", e.outPort);
  return key;
}

detail::TableDiff referenceDiff(const std::vector<openflow::FlowEntry>& live,
                                const std::vector<openflow::FlowEntry>& desired) {
  detail::TableDiff diff;
  std::map<std::string, int> want;
  for (const openflow::FlowEntry& e : desired) ++want[referenceKey(e)];
  for (const openflow::FlowEntry& e : live) {
    const auto it = want.find(referenceKey(e));
    if (it == want.end() || it->second == 0) {
      diff.toRemove.push_back(e);
    } else {
      --it->second;
    }
  }
  std::map<std::string, int> have;
  for (const openflow::FlowEntry& e : live) ++have[referenceKey(e)];
  for (const openflow::FlowEntry& e : desired) {
    const auto it = have.find(referenceKey(e));
    if (it != have.end() && it->second > 0) {
      --it->second;
    } else {
      diff.toAdd.push_back(e);
    }
  }
  return diff;
}

void expectSameEntries(const std::vector<openflow::FlowEntry>& got,
                       const std::vector<openflow::FlowEntry>& want, const char* what,
                       int trial) {
  ASSERT_EQ(got.size(), want.size()) << what << ", trial " << trial;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(openflow::sameRule(got[i], want[i])) << what << " " << i << ", trial " << trial;
  }
}

TEST(TableDiff, MatchesStringKeyedReference) {
  Rng rng(0xD1FFD1FFu);
  const auto compiledShape = [&rng] {
    openflow::FlowEntry e;
    e.priority = 100 + static_cast<int>(rng.below(2));
    e.match.inPort = static_cast<int>(rng.below(4));
    e.match.dstAddr = static_cast<std::uint32_t>(rng.below(4));
    if (rng.below(3) == 0) e.match.trafficClass = static_cast<std::uint8_t>(rng.below(2));
    if (rng.below(3) == 0) e.setVc = static_cast<int>(rng.below(2));
    e.outPort = static_cast<int>(rng.below(4));
    e.cookie = openflow::makeCookie(1 + static_cast<std::uint32_t>(rng.below(2)),
                                    1 + static_cast<std::uint32_t>(rng.below(3)));
    return e;
  };
  // A copy of `e` that is a duplicate, or differs in exactly one field: the
  // epoch (still the same rule), setVc, outPort, the VC match or the
  // destination.
  const auto twin = [&rng](openflow::FlowEntry e) {
    switch (rng.below(6)) {
      case 0:
        e.cookie = openflow::makeCookie(openflow::cookieEpoch(e.cookie) + 1,
                                        openflow::cookieTag(e.cookie));
        break;
      case 1:
        e.setVc = e.setVc >= 0 ? -1 : static_cast<int>(rng.below(2));
        break;
      case 2:
        e.outPort = e.outPort >= 0 && rng.below(4) == 0 ? -1 : e.outPort + 1;
        break;
      case 3:
        if (e.match.trafficClass) {
          e.match.trafficClass.reset();
        } else {
          e.match.trafficClass = 0;
        }
        break;
      case 4:
        e.match.dstAddr = *e.match.dstAddr + 1 + static_cast<std::uint32_t>(rng.below(2));
        break;
      default:
        break;
    }
    return e;
  };
  std::size_t removed = 0;
  std::size_t added = 0;
  std::size_t kept = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<openflow::FlowEntry> pool;
    const std::size_t poolSize = 1 + rng.below(12);
    for (std::size_t i = 0; i < poolSize; ++i) pool.push_back(compiledShape());
    const auto table = [&] {
      std::vector<openflow::FlowEntry> t;
      const std::size_t n = rng.below(40);
      for (std::size_t i = 0; i < n; ++i) t.push_back(twin(pool[rng.below(pool.size())]));
      return t;
    };
    const std::vector<openflow::FlowEntry> live = table();
    const std::vector<openflow::FlowEntry> desired = table();
    const detail::TableDiff got = detail::diffEntries(live, desired);
    const detail::TableDiff want = referenceDiff(live, desired);
    expectSameEntries(got.toRemove, want.toRemove, "remove", trial);
    expectSameEntries(got.toAdd, want.toAdd, "add", trial);
    removed += want.toRemove.size();
    added += want.toAdd.size();
    kept += live.size() - want.toRemove.size();
  }
  // The tables overlap enough that every outcome occurs many times.
  EXPECT_GT(removed, 1000u);
  EXPECT_GT(added, 1000u);
  EXPECT_GT(kept, 1000u);
}

}  // namespace
}  // namespace sdt::controller
