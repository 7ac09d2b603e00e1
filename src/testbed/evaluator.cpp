#include "testbed/evaluator.hpp"

#include <cassert>
#include <chrono>
#include <numeric>

namespace sdt::testbed {

Instance makeFullTestbed(const topo::Topology& topo,
                         const routing::RoutingAlgorithm& routing,
                         const InstanceOptions& options) {
  Instance inst;
  inst.sim = std::make_unique<sim::Simulator>();
  inst.built = sim::buildLogicalNetwork(*inst.sim, topo, routing, options.network);
  inst.transport =
      std::make_unique<sim::TransportManager>(*inst.sim, *inst.built.net, options.transport);
  return inst;
}

Result<Instance> makeSdt(const topo::Topology& topo,
                         const routing::RoutingAlgorithm& routing,
                         const projection::Plant& plant,
                         const InstanceOptions& options) {
  controller::SdtController ctl(plant);
  auto deployment = ctl.deploy(topo, routing, options.deploy);
  if (!deployment) return deployment.error();

  Instance inst;
  inst.sim = std::make_unique<sim::Simulator>();
  inst.built = sim::buildProjectedNetwork(*inst.sim, topo, deployment.value().projection,
                                          plant, deployment.value().switches,
                                          options.network, options.crossbar);
  inst.transport =
      std::make_unique<sim::TransportManager>(*inst.sim, *inst.built.net, options.transport);
  inst.deployTime = deployment.value().reconfigTime;
  inst.deployment = std::move(deployment).value();
  return inst;
}

RunResult runWorkload(Instance& instance, const workloads::Workload& workload,
                      std::vector<int> rankToHost) {
  if (rankToHost.empty()) {
    rankToHost.resize(static_cast<std::size_t>(workload.numRanks()));
    std::iota(rankToHost.begin(), rankToHost.end(), 0);
  }
  workloads::MpiRuntime runtime(*instance.sim, *instance.transport,
                                std::move(rankToHost));
  const std::uint64_t eventsBefore = instance.sim->eventsProcessed();
  runtime.run(workload);

  const auto wallStart = std::chrono::steady_clock::now();
  instance.sim->run();
  const auto wallEnd = std::chrono::steady_clock::now();
  assert(runtime.finished() && "workload did not complete (network deadlock or bug)");

  RunResult result;
  result.act = runtime.completionTime();
  result.wallSeconds = std::chrono::duration<double>(wallEnd - wallStart).count();
  result.events = instance.sim->eventsProcessed() - eventsBefore;
  result.drops = instance.net().totalDrops();
  result.injectedBytes = workload.totalSendBytes();
  result.avgComputePerRank =
      workload.totalComputeNs() / std::max(1, workload.numRanks());
  for (int sw = 0; sw < instance.net().numSwitches(); ++sw) {
    for (int p = 0; p < instance.net().switchPortCount(sw); ++p) {
      result.fabricTxBytes += static_cast<std::int64_t>(
          instance.net().switchPortCounters(sw, p).txBytes);
    }
  }
  return result;
}

double SimulatorCostModel::wallNs(const RunResult& run, int numLogicalSwitches) {
  const double flits =
      static_cast<double>(run.fabricTxBytes) / static_cast<double>(kFlitBytes);
  const double activeNs = std::max<double>(
      0.0, static_cast<double>(run.act - run.avgComputePerRank));
  return flits * kPipelineStages * kPerFlitHopNs +
         activeNs * kPerSwitchActiveFactor * numLogicalSwitches;
}

Comparison compare(const RunResult& sdtRun, TimeNs sdtDeployTime,
                   const RunResult& fullRun, int numLogicalSwitches, double scaleK) {
  Comparison c;
  c.sdtEvalSeconds = nsToSec(sdtDeployTime) + scaleK * nsToSec(sdtRun.act);
  c.simulatorEvalSeconds =
      scaleK * SimulatorCostModel::wallNs(fullRun, numLogicalSwitches) / 1e9;
  c.fullTestbedEvalSeconds = scaleK * nsToSec(fullRun.act);
  c.speedupVsSimulator =
      c.sdtEvalSeconds > 0 ? c.simulatorEvalSeconds / c.sdtEvalSeconds : 0.0;
  c.actDeviation = fullRun.act > 0
                       ? static_cast<double>(sdtRun.act - fullRun.act) /
                             static_cast<double>(fullRun.act)
                       : 0.0;
  return c;
}

}  // namespace sdt::testbed
