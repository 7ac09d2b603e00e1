// End-to-end property tests: the SDT plane (projection + compiled flow
// tables on physical switches) must forward exactly like the logical plane
// (routing algorithm on the full testbed) — the transparency property the
// paper's whole evaluation rests on. Verified on randomized topologies.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "controller/controller.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/transport.hpp"
#include "testbed/evaluator.hpp"
#include "topo/generators.hpp"
#include "workloads/apps.hpp"

namespace sdt {
namespace {

/// Random connected topology: spanning tree + extra edges + hosts.
topo::Topology randomTopology(std::uint64_t seed) {
  Rng rng(seed);
  const int n = 5 + static_cast<int>(rng.below(12));
  topo::Topology t(strFormat("rand-%llu-n%d", static_cast<unsigned long long>(seed), n),
                   n);
  for (int v = 1; v < n; ++v) {
    t.connect(static_cast<int>(rng.below(static_cast<std::uint64_t>(v))), v);
  }
  const int extra = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  for (int e = 0; e < extra; ++e) {
    const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (u != v) t.connect(u, v);
  }
  for (int sw = 0; sw < n; ++sw) {
    if (rng.uniform() < 0.7) t.attachHost(sw);
  }
  if (t.numHosts() < 2) {
    t.attachHost(0);
    t.attachHost(n - 1);
  }
  return t;
}

/// Walk a (src, dst) pair through the deployment's flow tables; returns the
/// sequence of *logical* switches traversed.
Result<std::vector<topo::SwitchId>> tableWalk(const topo::Topology& topo,
                                              const controller::Deployment& dep,
                                              topo::HostId src, topo::HostId dst) {
  std::vector<topo::SwitchId> path;
  projection::PhysPort at = dep.projection.hostPortOf(src);
  path.push_back(topo.hostSwitch(src));
  int vc = 0;
  for (int hop = 0; hop < 4 * topo.numSwitches() + 8; ++hop) {
    openflow::PacketHeader h;
    h.inPort = at.port;
    h.dstAddr = static_cast<std::uint32_t>(dst);
    h.trafficClass = static_cast<std::uint8_t>(vc);
    const auto decision = dep.switches[at.sw]->process(h);
    if (!decision.matched || decision.outPort < 0) return makeError("table miss");
    if (decision.vc >= 0) vc = decision.vc;
    const projection::PhysPort out{at.sw, decision.outPort};
    if (out == dep.projection.hostPortOf(dst)) return path;  // delivered
    const auto logical = dep.projection.logicalAt(out);
    if (!logical) return makeError("forwarded out an unmapped port");
    const auto peer = topo.neighborOf(*logical);
    if (!peer) return makeError("mapped port carries no fabric link");
    at = dep.projection.physOf(*peer);
    path.push_back(peer->sw);
  }
  return makeError("loop");
}

class EquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceSweep, FlowTablesMatchRoutingPaths) {
  const topo::Topology t = randomTopology(GetParam());
  routing::ShortestPathRouting routing(t);
  auto plant = projection::planPlant(
      {&t}, {.numSwitches = 2, .spec = projection::openflow64x100G()});
  ASSERT_TRUE(plant.ok()) << t.name() << ": " << plant.error().message;
  controller::SdtController ctl(plant.value());
  // Random graphs may have cyclic CDGs; equivalence is about forwarding.
  auto dep = ctl.deploy(t, routing, {.requireDeadlockFree = false});
  ASSERT_TRUE(dep.ok()) << t.name() << ": " << dep.error().message;

  for (topo::HostId src = 0; src < t.numHosts(); ++src) {
    for (topo::HostId dst = 0; dst < t.numHosts(); ++dst) {
      if (src == dst || t.hostSwitch(src) == t.hostSwitch(dst)) continue;
      // The controller compiles per-destination ECMP (hash = dst), so the
      // logical reference must use the same hash.
      std::vector<topo::SwitchId> logicalPath;
      topo::SwitchId sw = t.hostSwitch(src);
      logicalPath.push_back(sw);
      int vc = 0;
      while (sw != t.hostSwitch(dst)) {
        auto hop = routing.nextHop(sw, dst, vc, static_cast<std::uint64_t>(dst));
        ASSERT_TRUE(hop.ok());
        const auto peer = t.neighborOf(topo::SwitchPort{sw, hop.value().outPort});
        ASSERT_TRUE(peer.has_value());
        sw = peer->sw;
        vc = hop.value().vc;
        logicalPath.push_back(sw);
        ASSERT_LE(logicalPath.size(), 64u);
      }
      auto walked = tableWalk(t, dep.value(), src, dst);
      ASSERT_TRUE(walked.ok()) << t.name() << " " << src << "->" << dst << ": "
                               << walked.error().message;
      EXPECT_EQ(walked.value(), logicalPath) << t.name() << " " << src << "->" << dst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, EquivalenceSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class ActEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ActEquivalence, SdtActWithinBandOnRandomTopologies) {
  // The dynamic version of the same property: running real traffic, the
  // SDT plane's ACT stays within the paper's accuracy band of the logical
  // plane's on arbitrary topologies.
  const topo::Topology t = randomTopology(GetParam() * 1000 + 7);
  routing::ShortestPathRouting routing(t);
  auto plant = projection::planPlant(
      {&t}, {.numSwitches = 2, .spec = projection::openflow64x100G()});
  ASSERT_TRUE(plant.ok()) << plant.error().message;

  testbed::InstanceOptions opt;
  opt.deploy.requireDeadlockFree = false;
  opt.network.pfcEnabled = false;  // arbitrary graphs: run lossy ethernet

  const workloads::Workload w = workloads::imbAlltoall(t.numHosts(), 8 * 1024, 1);
  auto full = testbed::makeFullTestbed(t, routing, opt);
  const testbed::RunResult fr = testbed::runWorkload(full, w);
  auto sdt = testbed::makeSdt(t, routing, plant.value(), opt);
  ASSERT_TRUE(sdt.ok()) << sdt.error().message;
  const testbed::RunResult sr = testbed::runWorkload(sdt.value(), w);

  ASSERT_GT(fr.act, 0);
  const double deviation = std::abs(static_cast<double>(sr.act - fr.act)) /
                           static_cast<double>(fr.act);
  EXPECT_LT(deviation, 0.05) << t.name() << ": full=" << fr.act << " sdt=" << sr.act;
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, ActEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace sdt
