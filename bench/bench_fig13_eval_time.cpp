// Fig. 13 reproduction: evaluation times of full testbed, simulator, and SDT
// for IMB Alltoall on Dragonfly(4,9,2) with 1..32 randomly selected nodes.
//
// SDT's time includes the topology deployment time (the paper's point: at
// small node counts deployment dominates SDT's evaluation time, yet SDT
// stays far below the simulator).
//
// The node-count points are independent experiments, so they run through
// testbed::SweepRunner; every point owns its simulators and the comparison
// is computed from simulated quantities only, so the table is bit-identical
// to a serial sweep.
#include <cstdio>
#include <stdexcept>

#include "bench_util.hpp"
#include "testbed/sweep.hpp"
#include "workloads/apps.hpp"

using namespace sdt;

namespace {

struct Point {
  int nodes = 0;
  testbed::Comparison c;
  double deploySec = 0.0;
};

}  // namespace

int main() {
  std::printf("== Fig. 13: evaluation time vs node count (IMB Alltoall, Dragonfly) ==\n\n");
  const topo::Topology topo = topo::makeDragonfly(4, 9, 2);
  auto algo = routing::makeRouting("dragonfly-minimal", topo);
  if (!algo) return 1;
  const projection::Plant plant = bench::autoPlant(topo);

  const std::vector<int> nodeCounts{1, 2, 4, 8, 16, 32};
  const testbed::SweepRunner sweep;
  std::printf("# sweep: %zu points on %d threads\n\n", nodeCounts.size(),
              sweep.threads());
  const std::vector<Point> points =
      sweep.run(nodeCounts.size(), [&](std::size_t i) {
        const int nodes = nodeCounts[i];
        // Alltoall needs >= 2 ranks; a single node runs a trivial local loop.
        const workloads::Workload w =
            nodes >= 2 ? workloads::imbAlltoall(nodes, 32 * 1024, 2)
                       : workloads::Workload{"single-node",
                                             {workloads::Program{workloads::Op::compute(
                                                 usToNs(50.0))}}};
        const std::vector<int> rankMap = bench::selectHosts(topo.numHosts(), nodes);

        const testbed::InstanceOptions opt;
        auto full = testbed::makeFullTestbed(topo, *algo.value(), opt);
        const testbed::RunResult fr = testbed::runWorkload(full, w, rankMap);
        auto sdt = testbed::makeSdt(topo, *algo.value(), plant, opt);
        if (!sdt) throw std::runtime_error(sdt.error().message);
        const testbed::RunResult sr = testbed::runWorkload(sdt.value(), w, rankMap);

        Point p;
        p.nodes = nodes;
        p.c = testbed::compare(sr, sdt.value().deployTime, fr, topo.numSwitches(), 1.0);
        p.deploySec = nsToSec(sdt.value().deployTime);
        return p;
      });

  bench::JsonReport report("fig13_eval_time");
  std::printf("%6s %16s %16s %16s %12s\n", "nodes", "full testbed (s)",
              "simulator (s)", "SDT (s)", "SDT deploy");
  bench::printRule(72);
  double lastSim = 0.0;
  bool simGrows = true;
  bool ordering = true;
  for (const Point& p : points) {
    std::printf("%6d %16.6f %16.4f %16.4f %11.3fs\n", p.nodes,
                p.c.fullTestbedEvalSeconds, p.c.simulatorEvalSeconds, p.c.sdtEvalSeconds,
                p.deploySec);
    report.row("points", {{"nodes", p.nodes},
                          {"full_testbed_s", p.c.fullTestbedEvalSeconds},
                          {"simulator_s", p.c.simulatorEvalSeconds},
                          {"sdt_s", p.c.sdtEvalSeconds},
                          {"sdt_deploy_s", p.deploySec}});
    if (p.nodes >= 2) {
      simGrows = simGrows && p.c.simulatorEvalSeconds > lastSim;
      lastSim = p.c.simulatorEvalSeconds;
      ordering = ordering && p.c.fullTestbedEvalSeconds < p.c.sdtEvalSeconds;
      // SDT must beat the simulator once the run is non-trivial; at tiny
      // ACTs the one-time deploy dominates (the paper's own caveat).
      if (p.nodes >= 16) ordering = ordering && p.c.sdtEvalSeconds < p.c.simulatorEvalSeconds;
    }
  }
  bench::printRule(72);
  std::printf("shape: simulator time grows with nodes: %s;\n"
              "       full < SDT always, SDT < simulator at scale: %s\n",
              simGrows ? "YES" : "NO", ordering ? "YES" : "NO");
  std::printf("paper: SDT deploy time shows at small ACT but SDT stays far below\n"
              "the simulator; simulator time grows steeply with node count.\n");
  report.set("sim_grows_with_nodes", simGrows);
  report.set("ordering_ok", ordering);
  report.set("sweep_threads", sweep.threads());
  report.write();
  return 0;
}
