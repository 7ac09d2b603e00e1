// Topology reconfiguration without rewiring — the core SDT pitch (Fig. 2).
//
// One plant is planned for a *set* of topologies (§IV-B: reserve the maximum
// inter-switch links over all of them); the controller then deploys each in
// turn, and each switch-over is pure flow-table work with a sub-second
// modeled install time. A pingpong runs after every deployment to show the
// new topology is live. (For a live, consistency-preserving switch-over see
// SdtController::planUpdate and controller/transaction.hpp.)
#include <cstdio>

#include "common/strings.hpp"
#include "controller/controller.hpp"
#include "testbed/evaluator.hpp"
#include "topo/generators.hpp"
#include "workloads/apps.hpp"

using namespace sdt;

int main() {
  // The experiment plan: three different topologies, one plant.
  const std::vector<topo::Topology> topologies = {
      topo::makeFatTree(4),
      topo::makeTorus2D(4, 4),
      topo::makeRing(12),
  };
  std::vector<const topo::Topology*> pointers;
  for (const auto& t : topologies) pointers.push_back(&t);

  auto plant = projection::planPlant(
      pointers, {.numSwitches = 2, .spec = projection::openflow128x100G()});
  if (!plant) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    return 1;
  }
  std::printf("one plant for %zu topologies: 2 x %s, %zu self-links, "
              "%zu inter-switch links, %zu host ports\n\n",
              topologies.size(), plant.value().switches[0].model.c_str(),
              plant.value().selfLinks.size(), plant.value().interLinks.size(),
              plant.value().hostPorts.size());

  controller::SdtController ctl(plant.value());
  const controller::CheckReport report = ctl.check(pointers);
  std::printf("checking function: %s (self<=%d/switch, inter<=%d/pair, "
              "hosts<=%d/switch)\n\n",
              report.ok ? "all topologies deployable" : "NOT deployable",
              report.maxSelfLinksPerSwitch, report.maxInterLinksPerPair,
              report.maxHostPortsPerSwitch);
  if (!report.ok) {
    for (const auto& p : report.problems) std::fprintf(stderr, "  %s\n", p.c_str());
    return 1;
  }

  for (const topo::Topology& t : topologies) {
    auto routing = routing::makeRouting(t.name().rfind("fattree", 0) == 0
                                            ? "fattree-dfs"
                                            : (t.name().rfind("torus", 0) == 0
                                                   ? "torus-clue"
                                                   : "shortest"),
                                        t);
    if (!routing) {
      std::fprintf(stderr, "routing: %s\n", routing.error().message.c_str());
      return 1;
    }
    controller::DeployOptions dopt;
    // The 12-ring's shortest-path CDG has the classic ring cycle; it runs
    // lossy (PFC off), so skip the lossless-fabric gate for it.
    dopt.requireDeadlockFree = t.name().rfind("ring", 0) != 0;
    auto deployment = ctl.deploy(t, *routing.value(), dopt);
    if (!deployment) {
      std::fprintf(stderr, "deploy %s: %s\n", t.name().c_str(),
                   deployment.error().message.c_str());
      return 1;
    }
    std::printf("%-14s -> %4d flow entries, install %-10s (no cables moved)",
                t.name().c_str(), deployment.value().totalFlowEntries,
                humanTime(deployment.value().reconfigTime).c_str());

    // Prove the topology is live: pingpong across it on the projected plant.
    testbed::InstanceOptions opt;
    opt.deploy = dopt;
    opt.network.pfcEnabled = dopt.requireDeadlockFree;
    auto inst = testbed::makeSdt(t, *routing.value(), plant.value(), opt);
    if (!inst) {
      std::fprintf(stderr, "\ninstance: %s\n", inst.error().message.c_str());
      return 1;
    }
    const int iters = 50;
    const testbed::RunResult run = testbed::runWorkload(
        inst.value(), workloads::imbPingpong(t.numHosts(), 1024, iters));
    std::printf(" | pingpong RTT %.2f us\n", nsToUs(run.act) / iters);
  }
  std::printf("\nthree topologies, zero manual rewiring: that is SDT.\n");
  return 0;
}
