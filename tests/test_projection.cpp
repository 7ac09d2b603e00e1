// Tests: Link Projection (the SDT core algorithm, paper §IV).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "partition/partitioner.hpp"
#include "projection/link_projector.hpp"
#include "topo/generators.hpp"

namespace sdt::projection {
namespace {

Plant canonicalPlant(int switches = 3, int hostPorts = 11, int inter = 8,
                     PhysicalSwitchSpec spec = openflow64x100G()) {
  PlantConfig cfg;
  cfg.numSwitches = switches;
  cfg.spec = spec;
  cfg.hostPortsPerSwitch = hostPorts;
  cfg.interLinksPerPair = inter;
  auto p = buildPlant(cfg);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(LinkProjection, SingleSwitchLine) {
  const topo::Topology topo = topo::makeLine(8);
  const Plant plant = canonicalPlant(1, 8, 0);
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  const Projection& p = proj.value();
  EXPECT_TRUE(p.validate(topo, plant).ok());
  EXPECT_EQ(p.interSwitchLinkCount(), 0);
  // All 8 sub-switches share crossbar 0.
  EXPECT_EQ(p.subSwitchCountOn(0), 8);
  EXPECT_EQ(p.subSwitches().size(), 8u);
}

TEST(LinkProjection, PortMapIsBijective) {
  const topo::Topology topo = topo::makeLine(8);
  const Plant plant = canonicalPlant(1, 8, 0);
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok());
  std::set<std::pair<int, int>> physSeen;
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    for (topo::PortId lp = 0; lp < topo.fabricRadix(sw); ++lp) {
      const PhysPort pp = proj.value().physOf(topo::SwitchPort{sw, lp});
      ASSERT_TRUE(pp.valid());
      EXPECT_TRUE(physSeen.insert({pp.sw, pp.port}).second)
          << "physical port reused";
      // Reverse lookup round-trips.
      const auto back = proj.value().logicalAt(pp);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(back->sw, sw);
      EXPECT_EQ(back->port, lp);
    }
  }
}

TEST(LinkProjection, RealizedLinksJoinProjectedPorts) {
  // The Projection::validate() call inside project() already enforces this;
  // double-check the self/inter split for a topology forced across switches.
  const topo::Topology topo = topo::makeTorus2D(4, 4);  // 32 links, 64 ports
  const Plant plant = canonicalPlant(2, 16, 10);
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  EXPECT_TRUE(proj.value().validate(topo, plant).ok());
  EXPECT_GT(proj.value().interSwitchLinkCount(), 0);
  EXPECT_LE(proj.value().interSwitchLinkCount(), 10);
}

TEST(LinkProjection, PrefersFewestSwitches) {
  // A tiny ring fits one switch; it must not be spread.
  const topo::Topology topo = topo::makeRing(4);
  const Plant plant = canonicalPlant(3, 4, 8);
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj.value().interSwitchLinkCount(), 0);
}

TEST(LinkProjection, HostsLandOnTheirLogicalSwitch) {
  // Dragonfly(4,9,2) needs 216 ports; the paper's 3 H3C boxes provide 264.
  const topo::Topology topo = topo::makeDragonfly(4, 9, 2);
  auto planned = planPlant({&topo}, {.numSwitches = 3, .spec = h3cS6861()});
  ASSERT_TRUE(planned.ok()) << planned.error().message;
  const Plant plant = std::move(planned).value();
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) {
    const int physSw = proj.value().hostPortOf(h).sw;
    EXPECT_EQ(physSw, proj.value().physSwitchOf(topo.hostSwitch(h)));
  }
}

TEST(LinkProjection, FailsWithHelpfulErrorWhenSelfLinksShort) {
  const topo::Topology topo = topo::makeFullMesh(10);  // 45 links, 90 ports
  const Plant plant = canonicalPlant(1, 2, 0, openflow64x100G());
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_FALSE(proj.ok());
  EXPECT_NE(proj.error().message.find("self-link"), std::string::npos)
      << proj.error().message;
}

TEST(LinkProjection, FailsWhenInterLinksShort) {
  // Force 2 parts but reserve zero inter-switch links.
  const topo::Topology topo = topo::makeTorus3D(4, 4, 4);  // 384 fabric ports
  PlantConfig cfg;
  cfg.numSwitches = 2;
  cfg.spec = openflow128x100G();  // 2x128 < 384+hosts: must span... still 2 parts
  cfg.hostPortsPerSwitch = 32;
  cfg.interLinksPerPair = 0;
  auto plant = buildPlant(cfg);
  ASSERT_TRUE(plant.ok());
  auto proj = LinkProjector::project(topo, plant.value());
  EXPECT_FALSE(proj.ok());
}

TEST(LinkProjection, FailsWhenHostPortsShort) {
  const topo::Topology topo = topo::makeLine(4, {.hostsPerSwitch = 3, .linkSpeed = Gbps{10}});
  const Plant plant = canonicalPlant(1, 2, 0);  // 12 hosts needed, 2 ports
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_FALSE(proj.ok());
  EXPECT_NE(proj.error().message.find("host port"), std::string::npos);
}

TEST(LinkProjection, ExplicitAssignmentRespected) {
  const topo::Topology topo = topo::makeLine(4);
  const Plant plant = canonicalPlant(2, 8, 8);
  const std::vector<int> assignment{0, 0, 1, 1};
  auto proj = LinkProjector::projectWithAssignment(topo, plant, assignment);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  EXPECT_EQ(proj.value().physSwitchOf(0), 0);
  EXPECT_EQ(proj.value().physSwitchOf(3), 1);
  EXPECT_EQ(proj.value().interSwitchLinkCount(), 1);  // the 1-2 link
}

TEST(LinkProjection, AssignmentValidation) {
  const topo::Topology topo = topo::makeLine(4);
  const Plant plant = canonicalPlant(2, 8, 8);
  EXPECT_FALSE(LinkProjector::projectWithAssignment(topo, plant, {0, 0, 0}).ok());
  EXPECT_FALSE(LinkProjector::projectWithAssignment(topo, plant, {0, 0, 0, 7}).ok());
}

// Paper-scale sweep: every evaluation topology projects onto the paper's
// 3-switch class of plant (port counts scaled to fit hosts).
class ProjectionSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ProjectionSweep, ProjectsOnPlant) {
  const std::string which = GetParam();
  topo::Topology topo;
  PlanOptions opt;
  if (which == "fattree4") {
    topo = topo::makeFatTree(4);
    opt = {.numSwitches = 2, .spec = openflow64x100G()};
  } else if (which == "dragonfly") {
    topo = topo::makeDragonfly(4, 9, 2);
    opt = {.numSwitches = 3, .spec = h3cS6861()};
  } else if (which == "torus2d") {
    topo = topo::makeTorus2D(5, 5);
    opt = {.numSwitches = 2, .spec = openflow128x100G()};
  } else {
    topo = topo::makeTorus3D(4, 4, 4);
    opt = {.numSwitches = 4, .spec = openflow128x100G()};
  }
  auto planned = planPlant({&topo}, opt);
  ASSERT_TRUE(planned.ok()) << which << ": " << planned.error().message;
  const Plant plant = std::move(planned).value();
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok()) << which << ": " << proj.error().message;
  EXPECT_TRUE(proj.value().validate(topo, plant).ok());
}

INSTANTIATE_TEST_SUITE_P(PaperTopologies, ProjectionSweep,
                         ::testing::Values("fattree4", "dragonfly", "torus2d",
                                           "torus3d"));

// project() skips a part count whose physical switches hold too few links or
// host ports for the topology. The reference is the search without that
// skip: part counts 1..min(plant switches, logical switches), the
// projector's 4 partition seeds 1 + attempt * 7919 for each count above 1,
// first success wins. Keep it in step with link_projector.cpp.
constexpr int kReferenceAttempts = 4;

Result<Projection> exhaustiveProject(const topo::Topology& topo, const Plant& plant) {
  const int maxParts = std::min(plant.numSwitches(), std::max(1, topo.numSwitches()));
  for (int parts = 1; parts <= maxParts; ++parts) {
    if (parts == 1) {
      auto r = LinkProjector::projectWithAssignment(
          topo, plant, std::vector<int>(static_cast<std::size_t>(topo.numSwitches()), 0));
      if (r) return r;
      continue;
    }
    for (int attempt = 0; attempt < kReferenceAttempts; ++attempt) {
      partition::PartitionOptions popt;
      popt.parts = parts;
      popt.seed = 1 + static_cast<std::uint64_t>(attempt) * 7919;
      auto part = partition::partitionGraph(topo.switchGraph(), popt);
      if (!part) continue;
      auto r = LinkProjector::projectWithAssignment(topo, plant, part.value().assignment);
      if (r) return r;
    }
  }
  return makeError("no part count fits");
}

/// Every placement a projection records, flattened for comparison.
std::vector<int> placements(const topo::Topology& topo, const Projection& p) {
  std::vector<int> out;
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    out.push_back(p.physSwitchOf(sw));
    for (topo::PortId port = 0; port < topo.fabricRadix(sw); ++port) {
      const PhysPort pp = p.physOf(topo::SwitchPort{sw, port});
      out.insert(out.end(), {pp.sw, pp.port});
    }
  }
  for (const RealizedLink& rl : p.realizedLinks()) {
    out.insert(out.end(), {rl.logicalLink, rl.interSwitch, rl.optical, rl.physLink});
  }
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) {
    out.insert(out.end(), {p.hostPortOf(h).sw, p.hostPortOf(h).port});
  }
  for (const PhysLink& c : p.opticalCircuits()) {
    out.insert(out.end(), {c.a.sw, c.a.port, c.b.sw, c.b.port});
  }
  return out;
}

/// project() and the exhaustive search agree; returns whether they fit.
bool expectSameAsExhaustive(const topo::Topology& topo, const Plant& plant) {
  const auto bounded = LinkProjector::project(topo, plant);
  const auto exhaustive = exhaustiveProject(topo, plant);
  EXPECT_EQ(bounded.ok(), exhaustive.ok()) << (bounded ? "" : bounded.error().message);
  if (bounded && exhaustive) {
    EXPECT_EQ(placements(topo, bounded.value()), placements(topo, exhaustive.value()));
  }
  return bounded.ok();
}

topo::Topology randomTopology(Rng& rng) {
  const auto pick = [&](int lo, int hi) { return static_cast<int>(rng.between(lo, hi)); };
  const topo::GenOptions opt{.hostsPerSwitch = pick(0, 3), .linkSpeed = Gbps{10.0}};
  switch (rng.below(6)) {
    case 0:
      return topo::makeRing(pick(3, 40), opt);
    case 1:
      return topo::makeLine(pick(2, 40), opt);
    case 2: {
      const int x = pick(3, 6);
      const int y = pick(3, 6);
      return topo::makeTorus2D(x, y, opt);
    }
    case 3:
      return topo::makeFatTree(2 * pick(1, 3), opt);
    case 4: {
      const int a = pick(2, 4);
      const int h = pick(1, 2);
      const int g = pick(2, a * h + 1);
      return topo::makeDragonfly(a, g, h, opt);
    }
    default:
      return topo::makeFullMesh(pick(3, 12), opt);
  }
}

Plant randomPlant(Rng& rng) {
  const auto pick = [&](int lo, int hi) { return static_cast<int>(rng.between(lo, hi)); };
  const int switches = pick(1, 6);
  const PhysicalSwitchSpec spec = rng.below(2) == 0 ? openflow64x100G() : openflow128x100G();
  const int hostPorts = pick(0, 16);
  const int inter = pick(0, 8);
  Plant plant = canonicalPlant(switches, hostPorts, inter, spec);
  if (rng.below(2) == 0) {
    EXPECT_TRUE(addOpticalFlex(plant, pick(1, 4)).ok());
  }
  return plant;
}

TEST(LinkProjection, BoundedSearchMatchesExhaustiveSearch) {
  Rng rng(19);
  int fits = 0;
  constexpr int kCases = 240;
  for (int i = 0; i < kCases; ++i) {
    const topo::Topology topo = randomTopology(rng);
    const Plant plant = randomPlant(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + topo.name() + " on " +
                 std::to_string(plant.numSwitches()) + " switches");
    fits += expectSameAsExhaustive(topo, plant) ? 1 : 0;
  }
  // Both outcomes are well represented.
  EXPECT_GT(fits, kCases / 4);
  EXPECT_LT(fits, kCases * 3 / 4);

  // Exact fits, where supply equals demand, still project.
  // 21 ring links on 16 fixed self-links + 10 flex ports (16 + 10 / 2).
  const topo::Topology ring = topo::makeRing(21, {.hostsPerSwitch = 0});
  Plant flex = canonicalPlant(1, 22, 0);
  ASSERT_TRUE(addOpticalFlex(flex, 5).ok());
  EXPECT_TRUE(expectSameAsExhaustive(ring, flex));
  // 12 hosts on 4 switches with 3 host ports each.
  const topo::Topology mesh = topo::makeFullMesh(4, {.hostsPerSwitch = 3});
  EXPECT_TRUE(expectSameAsExhaustive(mesh, canonicalPlant(4, 3, 6)));
  // 16 ring links on the 28 self-links of one 64-port switch with 8 host
  // ports: every link a self-link, where a loopback-pair budget of half the
  // ports (14 pairs) would not fit.
  const topo::Topology ring16 = topo::makeRing(16, {.hostsPerSwitch = 0});
  EXPECT_TRUE(expectSameAsExhaustive(ring16, canonicalPlant(1, 8, 0)));
}

}  // namespace
}  // namespace sdt::projection
