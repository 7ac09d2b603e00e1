// Tests: §VII-A flexibility enhancement — flex ports cabled into a MEMS
// optical switch let the projector dial on-demand self-links or
// inter-switch links when the fixed reservation runs out.
#include <gtest/gtest.h>

#include <string>

#include "projection/link_projector.hpp"
#include "topo/generators.hpp"

namespace sdt::projection {
namespace {

Plant basePlant(int switches, int hostPorts, int inter) {
  PlantConfig cfg;
  cfg.numSwitches = switches;
  cfg.spec = openflow64x100G();
  cfg.hostPortsPerSwitch = hostPorts;
  cfg.interLinksPerPair = inter;
  auto p = buildPlant(cfg);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(OpticalFlex, ConvertsSelfLinksToFlexPorts) {
  Plant plant = basePlant(2, 8, 4);
  const std::size_t selfBefore = plant.selfLinks.size();
  ASSERT_TRUE(addOpticalFlex(plant, 3).ok());
  EXPECT_EQ(plant.selfLinks.size(), selfBefore - 6);  // 3 pairs x 2 switches
  EXPECT_EQ(plant.flexPorts.size(), 12u);
  EXPECT_EQ(plant.flexPortsOf(0).size(), 6u);
  EXPECT_TRUE(plant.validate().ok());
}

TEST(OpticalFlex, RespectsOpticalPortBudget) {
  Plant plant = basePlant(2, 8, 4);
  OpticalSwitchSpec tiny = mems320();
  tiny.numPorts = 4;
  EXPECT_FALSE(addOpticalFlex(plant, 3, tiny).ok());  // needs 12 ports
  EXPECT_TRUE(addOpticalFlex(plant, 1, tiny).ok());   // needs 4 ports
}

TEST(OpticalFlex, HugePairCountRejectedWithoutOverflow) {
  // 2^30 pairs on each of two switches need 2^32 optical ports: the count
  // must not wrap in int, and the request fails against the 320-port OCS
  // before any self-link is converted.
  Plant plant = basePlant(2, 8, 4);
  const std::size_t selfBefore = plant.selfLinks.size();
  const auto s = addOpticalFlex(plant, 1 << 30);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("has 320 ports; 4294967296 needed"), std::string::npos)
      << s.error().message;
  EXPECT_EQ(plant.selfLinks.size(), selfBefore);
  EXPECT_TRUE(plant.flexPorts.empty());
}

TEST(OpticalFlex, FailsWhenNoSelfLinksLeft) {
  Plant plant = basePlant(1, 62, 0);  // 64-port switch: 1 self-link left
  EXPECT_FALSE(addOpticalFlex(plant, 2).ok());
}

TEST(OpticalFlex, RescuesSelfLinkShortage) {
  // A ring of 20 needs 20 self-links; leave only 16 fixed ones and let the
  // optical pool carry the remainder.
  const topo::Topology ring = topo::makeRing(20, {.hostsPerSwitch = 0, .linkSpeed = Gbps{10}});
  Plant plant = basePlant(1, 22, 0);  // (64-22)/2 = 21 self-links
  ASSERT_TRUE(addOpticalFlex(plant, 5).ok());  // 16 fixed self-links + 10 flex ports
  ASSERT_EQ(plant.selfLinksOf(0).size(), 16u);

  auto proj = LinkProjector::project(ring, plant);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  EXPECT_TRUE(proj.value().validate(ring, plant).ok());
  // Exactly 4 links had to go optical.
  EXPECT_EQ(proj.value().opticalCircuits().size(), 4u);
  int optical = 0;
  for (const RealizedLink& rl : proj.value().realizedLinks()) optical += rl.optical;
  EXPECT_EQ(optical, 4);
}

TEST(OpticalFlex, RescuesInterLinkShortage) {
  // Two-switch plant with only 1 reserved inter-switch link; force a split
  // topology needing 2 cross links.
  const topo::Topology ring = topo::makeRing(40, {.hostsPerSwitch = 0, .linkSpeed = Gbps{10}});
  // 40 links total; one 64-port switch offers at most 32 -> must split; a
  // ring split in two needs exactly 2 cross links.
  Plant plant = basePlant(2, 2, 1);
  ASSERT_TRUE(addOpticalFlex(plant, 2).ok());
  auto proj = LinkProjector::project(ring, plant);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  int opticalInter = 0;
  for (const RealizedLink& rl : proj.value().realizedLinks()) {
    opticalInter += rl.optical && rl.interSwitch;
  }
  EXPECT_GE(opticalInter, 1);
  EXPECT_TRUE(proj.value().validate(ring, plant).ok());
}

TEST(OpticalFlex, WithoutFlexTheSameProjectionFails) {
  const topo::Topology ring = topo::makeRing(20, {.hostsPerSwitch = 0, .linkSpeed = Gbps{10}});
  Plant plant = basePlant(1, 22, 0);
  ASSERT_TRUE(addOpticalFlex(plant, 5).ok());
  Plant noFlex = plant;
  noFlex.flexPorts.clear();
  EXPECT_TRUE(LinkProjector::project(ring, plant).ok());
  EXPECT_FALSE(LinkProjector::project(ring, noFlex).ok());
}

}  // namespace
}  // namespace sdt::projection
