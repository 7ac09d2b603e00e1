// Quickstart: the full SDT workflow in one file.
//
//   topology config (JSON)  ->  check  ->  project (Link Projection)  ->
//   compile flow tables     ->  build the testbed  ->  run a workload.
//
// Usage: quickstart [path/to/config.json]
// With no argument it uses an embedded Fat-Tree k=4 config (the same
// content as examples/configs/fattree_k4.json).
#include <cstdio>

#include "common/strings.hpp"
#include "controller/config.hpp"
#include "controller/controller.hpp"
#include "testbed/evaluator.hpp"
#include "workloads/apps.hpp"

using namespace sdt;

namespace {
constexpr const char* kDefaultConfig = R"({
  "topology": {"type": "fattree", "k": 4, "link_gbps": 10},
  "routing": "fattree-dfs",
  "pfc": true, "dcqcn": true, "cut_through": true
})";
}

int main(int argc, char** argv) {
  // 1. Load the user's topology configuration (paper Fig. 2).
  Result<controller::ExperimentConfig> config =
      argc > 1 ? controller::loadExperimentConfig(argv[1])
               : [] {
                   auto doc = json::parse(kDefaultConfig);
                   return controller::parseExperimentConfig(doc.value());
                 }();
  if (!config) {
    std::fprintf(stderr, "config: %s\n", config.error().message.c_str());
    return 1;
  }
  const topo::Topology& topo = config.value().topology;
  std::printf("topology: %s (%d switches, %d hosts, %d links)\n",
              topo.name().c_str(), topo.numSwitches(), topo.numHosts(),
              topo.numLinks());

  // 2. Pick the routing strategy named in the config.
  auto routing = routing::makeRouting(config.value().routingStrategy, topo);
  if (!routing) {
    std::fprintf(stderr, "routing: %s\n", routing.error().message.c_str());
    return 1;
  }

  // 3. Plan a plant (how many commodity switches do we need, and how are
  //    they cabled once at deployment time?).
  auto plant = projection::planPlant(
      {&topo}, {.numSwitches = 2, .spec = projection::openflow128x100G()});
  if (!plant) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    return 1;
  }
  std::printf("plant: %d x %s, %zu self-links, %zu inter-switch links, "
              "%zu host ports\n",
              plant.value().numSwitches(), plant.value().switches[0].model.c_str(),
              plant.value().selfLinks.size(), plant.value().interLinks.size(),
              plant.value().hostPorts.size());

  // 4. Check + deploy: Link Projection and flow-table compilation.
  controller::SdtController ctl(plant.value());
  const controller::CheckReport report = ctl.check({&topo});
  if (!report.ok) {
    for (const std::string& p : report.problems) std::fprintf(stderr, "check: %s\n", p.c_str());
    return 1;
  }
  auto deployment = ctl.deploy(topo, *routing.value());
  if (!deployment) {
    std::fprintf(stderr, "deploy: %s\n", deployment.error().message.c_str());
    return 1;
  }
  std::printf("deployed: %d flow entries (max %d per switch), reconfig time %s\n",
              deployment.value().totalFlowEntries,
              deployment.value().maxEntriesPerSwitch,
              humanTime(deployment.value().reconfigTime).c_str());
  // A peek at the first few compiled rules.
  const auto& table0 = deployment.value().switches[0]->table();
  for (std::size_t i = 0; i < std::min<std::size_t>(3, table0.size()); ++i) {
    const openflow::FlowEntry& e = table0.entries()[i];
    std::printf("  rule[%zu]: prio=%d match=%s -> port %d\n", i, e.priority,
                e.match.describe().c_str(), e.outPort);
  }

  // 5. Run IMB Pingpong between the first two hosts on the SDT testbed.
  testbed::InstanceOptions opt;
  controller::applyFabricKnobs(config.value(), opt.network);
  auto inst = testbed::makeSdt(topo, *routing.value(), plant.value(), opt);
  if (!inst) {
    std::fprintf(stderr, "testbed: %s\n", inst.error().message.c_str());
    return 1;
  }
  const int iters = 100;
  const testbed::RunResult run = testbed::runWorkload(
      inst.value(), workloads::imbPingpong(topo.numHosts(), 4096, iters));
  std::printf("pingpong host0 <-> host1: RTT %.3f us over %d iterations "
              "(%llu sim events, %llu drops)\n",
              nsToUs(run.act) / iters, iters,
              static_cast<unsigned long long>(run.events),
              static_cast<unsigned long long>(run.drops));
  std::printf("done: the same binary reruns any topology config without rewiring.\n");
  return 0;
}
