// Tests: physical plant construction and validation.
#include <gtest/gtest.h>

#include "projection/plant.hpp"

namespace sdt::projection {
namespace {

TEST(Plant, BuildCanonical) {
  PlantConfig cfg;
  cfg.numSwitches = 3;
  cfg.spec = openflow64x100G();
  cfg.hostPortsPerSwitch = 11;
  cfg.interLinksPerPair = 8;
  auto plant = buildPlant(cfg);
  ASSERT_TRUE(plant.ok()) << plant.error().message;
  const Plant& p = plant.value();
  EXPECT_EQ(p.numSwitches(), 3);
  // Inter: 8 per pair * 3 pairs.
  EXPECT_EQ(p.interLinks.size(), 24u);
  EXPECT_EQ(p.hostPorts.size(), 33u);
  // Per switch: 64 - 16 inter - 11 host = 37 -> 18 self-links (one spare port).
  EXPECT_EQ(p.selfLinksOf(0).size(), 18u);
  EXPECT_EQ(p.interLinksBetween(0, 1).size(), 8u);
  EXPECT_EQ(p.interLinksBetween(1, 0).size(), 8u);
  EXPECT_EQ(p.hostPortsOf(2).size(), 11u);
  EXPECT_TRUE(p.validate().ok());
  EXPECT_DOUBLE_EQ(p.totalCostUsd(), 15000.0);
}

TEST(Plant, SingleSwitchNoInterLinks) {
  PlantConfig cfg;
  cfg.numSwitches = 1;
  cfg.spec = openflow64x100G();
  cfg.hostPortsPerSwitch = 4;
  cfg.interLinksPerPair = 8;  // no pairs exist
  auto plant = buildPlant(cfg);
  ASSERT_TRUE(plant.ok());
  EXPECT_TRUE(plant.value().interLinks.empty());
  EXPECT_EQ(plant.value().selfLinksOf(0).size(), 30u);
}

TEST(Plant, RejectsOverSubscription) {
  PlantConfig cfg;
  cfg.numSwitches = 2;
  cfg.spec = openflow64x100G();
  cfg.hostPortsPerSwitch = 70;  // more than the switch has
  EXPECT_FALSE(buildPlant(cfg).ok());
}

TEST(Plant, RejectsNegativeReservations) {
  PlantConfig cfg;
  cfg.hostPortsPerSwitch = -1;
  EXPECT_FALSE(buildPlant(cfg).ok());
}

TEST(Plant, ValidateCatchesDoubleUse) {
  Plant p;
  p.switches = {openflow64x100G()};
  p.selfLinks.push_back(PhysLink{{0, 0}, {0, 1}});
  p.hostPorts.push_back(PhysPort{0, 1});  // port 1 used twice
  EXPECT_FALSE(p.validate().ok());
}

TEST(Plant, ValidateCatchesCrossSwitchSelfLink) {
  Plant p;
  p.switches = {openflow64x100G(), openflow64x100G()};
  p.selfLinks.push_back(PhysLink{{0, 0}, {1, 0}});
  EXPECT_FALSE(p.validate().ok());
}

TEST(Plant, SpecCatalog) {
  EXPECT_EQ(openflow64x100G().numPorts, 64);
  EXPECT_EQ(openflow128x100G().numPorts, 128);
  EXPECT_GT(p4Switch64x100G().costUsd, openflow64x100G().costUsd);
  EXPECT_EQ(p4Switch128x100G().model, "p4-128x100G");
  EXPECT_DOUBLE_EQ(h3cS6861().portSpeed.value, 10.0);
  EXPECT_EQ(mems320().numPorts, 320);
}

}  // namespace
}  // namespace sdt::projection
