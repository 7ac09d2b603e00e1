// Integration: the JSON config files shipped under examples/configs must
// parse, build, route, and project — they are the repo's user-facing
// contract (paper Fig. 2's "configuration file" workflow).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "controller/config.hpp"
#include "controller/controller.hpp"

namespace sdt::controller {
namespace {

std::string configDir() {
  // Tests run from the build tree; the sources sit next to this file.
  for (const char* candidate :
       {"../examples/configs", "../../examples/configs", "examples/configs"}) {
    if (std::ifstream(std::string(candidate) + "/fattree_k4.json").good()) {
      return candidate;
    }
  }
  return SDT_SOURCE_DIR "/examples/configs";
}

class ExampleConfigs : public ::testing::TestWithParam<const char*> {};

TEST_P(ExampleConfigs, LoadsDeploysAndRoutes) {
  const std::string path = configDir() + "/" + GetParam();
  auto config = loadExperimentConfig(path);
  ASSERT_TRUE(config.ok()) << path << ": " << config.error().message;
  const topo::Topology& topo = config.value().topology;
  EXPECT_GT(topo.numSwitches(), 0);
  EXPECT_TRUE(topo.validate(/*requireConnected=*/true).ok());

  auto routing = routing::makeRouting(config.value().routingStrategy, topo);
  ASSERT_TRUE(routing.ok()) << routing.error().message;

  auto plant = projection::planPlant(
      {&topo}, {.numSwitches = 2, .spec = projection::openflow128x100G()});
  ASSERT_TRUE(plant.ok()) << plant.error().message;
  SdtController ctl(plant.value());
  DeployOptions opt;
  opt.requireDeadlockFree = config.value().pfc;
  auto dep = ctl.deploy(topo, *routing.value(), opt);
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  EXPECT_GT(dep.value().totalFlowEntries, 0);
}

INSTANTIATE_TEST_SUITE_P(Shipped, ExampleConfigs,
                         ::testing::Values("fattree_k4.json", "dragonfly.json",
                                           "torus_5x5.json",
                                           "custom_triangle.json",
                                           "incast_ft4.json",
                                           "partition_aggregate.json"));

TEST(ExampleConfigs, OverloadDemosRunLossy) {
  // The overload demos only demonstrate anything on a lossy fabric: with PFC
  // on, incast backpressures hop by hop instead of dropping, and the
  // admission tier has nothing to save.
  for (const char* name : {"incast_ft4.json", "partition_aggregate.json"}) {
    auto config = loadExperimentConfig(configDir() + "/" + name);
    ASSERT_TRUE(config.ok()) << name;
    sim::NetworkConfig net;
    applyFabricKnobs(config.value(), net);
    EXPECT_FALSE(net.pfcEnabled) << name;
    EXPECT_TRUE(net.ecnEnabled) << name;
  }
}

TEST(ExampleConfigs, FabricKnobsApplied) {
  auto config = loadExperimentConfig(configDir() + "/custom_triangle.json");
  ASSERT_TRUE(config.ok());
  sim::NetworkConfig net;
  applyFabricKnobs(config.value(), net);
  EXPECT_FALSE(net.pfcEnabled);   // the triangle config runs lossy
  EXPECT_FALSE(net.ecnEnabled);
}

TEST(ExampleConfigs, EveryShippedConfigParses) {
  int parsed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(configDir())) {
    if (entry.path().extension() != ".json") continue;
    auto config = loadExperimentConfig(entry.path().string());
    EXPECT_TRUE(config.ok()) << entry.path() << ": " << config.error().message;
    ++parsed;
  }
  EXPECT_GE(parsed, 8);
}

// Out-of-range topology parameters must be rejected with an error that names
// the key. Unchecked, they abort a generator (std::length_error from a
// negative size) or build what the document did not say: an empty fabric, a
// size or switch id wrapped around by narrowing, a negative host count read
// as none, a zero-speed link.
TEST(ConfigJson, RejectsOutOfRangeTopologyParameters) {
  struct Case {
    const char* topology;
    const char* key;  ///< what the error must name
  };
  const Case cases[] = {
      {R"({"type": "line", "n": -3})", "'n'"},
      {R"({"type": "torus2d", "x": -2})", "'x'"},
      {R"({"type": "hypercube", "dims": 31})", "'dims'"},
      {R"({"type": "line", "n": 0})", "'n'"},
      {R"({"type": "mesh2d", "x": 0})", "'x'"},
      {R"({"type": "ring", "n": 1})", "'n'"},
      {R"({"type": "star", "n": 1})", "'n'"},
      {R"({"type": "fullmesh", "n": 1})", "'n'"},
      {R"({"type": "line", "n": 4294967300})", "'n'"},
      {R"({"type": "custom", "switches": 3, "links": [[0, 4294967297]]})", "link"},
      {R"({"type": "custom", "switches": 3, "links": [[0, 1]], "hosts": [4294967298]})",
       "host"},
      {R"({"type": "line", "n": 4, "hosts_per_switch": -1})", "'hosts_per_switch'"},
      {R"({"type": "line", "n": 4, "link_gbps": 0})", "'link_gbps'"},
      {R"({"type": "line", "n": 4, "link_gbps": -10})", "'link_gbps'"},
  };
  for (const Case& c : cases) {
    auto doc = json::parse(c.topology);
    ASSERT_TRUE(doc.ok()) << c.topology;
    auto topo = topologyFromJson(doc.value());
    ASSERT_FALSE(topo.ok()) << c.topology << " parsed as " << topo.value().name();
    EXPECT_NE(topo.error().message.find(c.key), std::string::npos)
        << c.topology << ": " << topo.error().message;
  }
}

}  // namespace
}  // namespace sdt::controller
