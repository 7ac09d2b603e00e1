// Table IV reproduction: real-application ACTs on SDT compared to the
// simulator — speedup "Ax" and ACT deviation "(B%)" per (topology, app).
//
// Both SDT and the full-testbed reference execute on the packet engine; the
// simulator baseline's evaluation time is the BookSim/SST-class cost model
// (testbed::SimulatorCostModel, see DESIGN.md substitution table). The
// paper's runs last seconds to minutes; we run a scaled-down iteration count
// and report the speedup at the paper's scale by replicating iterations
// linearly (scale K multiplies ACT and traffic, not the one-time deploy):
//   speedup(K) = K * simulatorWall / (deploy + K * ACT_sdt).
// Deviation B% = (ACT_sdt - ACT_full)/ACT_full is scale-invariant.
#include <cstdio>

#include "bench_util.hpp"
#include "workloads/apps.hpp"

using namespace sdt;

namespace {

struct AppSpec {
  const char* label;
  workloads::Workload (*make)(int ranks);
};

workloads::Workload mkHpcg(int r) { return workloads::hpcg(r); }
workloads::Workload mkHpl(int r) { return workloads::hpl(r); }
workloads::Workload mkGhost(int r) { return workloads::miniGhost(r); }
workloads::Workload mkFeSmall(int r) {
  return workloads::miniFe(r, {.cgIterations = 20, .haloBytes = 24 * 1024,
                               .computePerIteration = usToNs(40.0)});
}
workloads::Workload mkFeLarge(int r) {
  return workloads::miniFe(r, {.cgIterations = 20, .haloBytes = 96 * 1024,
                               .computePerIteration = usToNs(60.0)});
}
workloads::Workload mkAlltoall(int r) { return workloads::imbAlltoall(r, 32 * 1024, 2); }
workloads::Workload mkPingpong(int r) {
  return workloads::imbPingpong(r, 64 * 1024, 100);
}

}  // namespace

int main() {
  std::printf("== Table IV: ACT on SDT vs simulator (speedup Ax, deviation B%%) ==\n");
  std::printf("scaled to ~16 s application runs as in the paper (see header)\n\n");

  struct TopoSpec {
    const char* label;
    topo::Topology topo;
  };
  std::vector<TopoSpec> topos;
  topos.push_back({"Dragonfly(4,9,2)", topo::makeDragonfly(4, 9, 2)});
  topos.push_back({"Fat-Tree k=4", topo::makeFatTree(4)});
  topos.push_back({"5x5 2D-Torus", topo::makeTorus2D(5, 5)});
  topos.push_back({"4x4x4 3D-Torus", topo::makeTorus3D(4, 4, 4)});

  const AppSpec apps[] = {
      {"HPCG", mkHpcg},          {"HPL", mkHpl},
      {"miniGhost", mkGhost},    {"miniFE-264", mkFeSmall},
      {"miniFE-512", mkFeLarge}, {"IMB-Alltoall", mkAlltoall},
      {"IMB-Pingpong", mkPingpong},
  };

  std::printf("%-17s", "topology");
  for (const AppSpec& a : apps) std::printf("%16s", a.label);
  std::printf("\n");
  bench::printRule(17 + 16 * 7);

  bench::JsonReport report("table4_act");
  for (TopoSpec& ts : topos) {
    const int ranks = std::min(32, ts.topo.numHosts());
    const std::vector<int> rankMap = bench::selectHosts(ts.topo.numHosts(), ranks);
    auto algo = routing::makeRouting(bench::strategyFor(ts.topo), ts.topo);
    if (!algo) {
      std::fprintf(stderr, "%s: %s\n", ts.label, algo.error().message.c_str());
      return 1;
    }
    const projection::Plant plant = bench::autoPlant(ts.topo);

    std::printf("%-17s", ts.label);
    for (const AppSpec& a : apps) {
      const workloads::Workload w = a.make(ranks);
      testbed::InstanceOptions opt;
      auto full = testbed::makeFullTestbed(ts.topo, *algo.value(), opt);
      const testbed::RunResult fr = testbed::runWorkload(full, w, rankMap);
      auto sdt = testbed::makeSdt(ts.topo, *algo.value(), plant, opt);
      if (!sdt) {
        std::fprintf(stderr, "%s/%s: %s\n", ts.label, a.label,
                     sdt.error().message.c_str());
        return 1;
      }
      const testbed::RunResult sr = testbed::runWorkload(sdt.value(), w, rankMap);
      // Scale the run to a paper-sized (~16 s) experiment.
      const double scaleK = 16.0 / std::max(1e-9, nsToSec(fr.act));
      const testbed::Comparison c = testbed::compare(sr, sdt.value().deployTime, fr,
                                                     ts.topo.numSwitches(), scaleK);
      char cell[48];
      std::snprintf(cell, sizeof(cell), "%.0fx (%+.1f%%)", c.speedupVsSimulator,
                    c.actDeviation * 100.0);
      std::printf("%16s", cell);
      std::fflush(stdout);
      report.row("cells", {{"topology", ts.label},
                           {"app", a.label},
                           {"speedup_vs_simulator", c.speedupVsSimulator},
                           {"act_deviation", c.actDeviation}});
    }
    std::printf("\n");
  }
  bench::printRule(17 + 16 * 7);
  std::printf(
      "paper bands: HPL 33-39x, HPCG 40-52x, miniGhost 349-411x, miniFE 651-935x,\n"
      "IMB-Alltoall 2440-2899x, IMB-Pingpong 1921-2162x; deviations within +-3%%.\n"
      "shape to check: HPL < HPCG < miniGhost < miniFE < IMB; |B%%| small.\n");
  report.write();
  return 0;
}
