#include "projection/switch_projector.hpp"

#include <algorithm>
#include <set>

#include "common/strings.hpp"
#include "partition/partitioner.hpp"
#include "projection/link_projector.hpp"

namespace sdt::projection {

int CablePlan::movesFrom(const CablePlan& previous) const {
  // Order-insensitive diff on unordered port pairs.
  const auto canon = [](const PhysLink& l) {
    return l.a < l.b ? std::pair{l.a, l.b} : std::pair{l.b, l.a};
  };
  std::set<std::pair<PhysPort, PhysPort>> old;
  for (const PhysLink& l : previous.cables) old.insert(canon(l));
  int moves = 0;
  for (const PhysLink& l : cables) {
    if (old.find(canon(l)) == old.end()) ++moves;
  }
  return moves;
}

Result<SpResult> SwitchProjector::project(const topo::Topology& topo,
                                          const PhysicalSwitchSpec& spec, int numSwitches) {
  if (numSwitches < 1) return makeError("SP needs at least one switch");

  // Choose the sub-switch placement: same partitioning problem as SDT.
  std::vector<int> assignment;
  if (numSwitches == 1 || topo.numSwitches() <= 1) {
    assignment.assign(static_cast<std::size_t>(topo.numSwitches()), 0);
  } else {
    partition::PartitionOptions popt;
    popt.parts = std::min(numSwitches, topo.numSwitches());
    auto part = partition::partitionGraph(topo.switchGraph(), popt);
    if (!part) return part.error();
    assignment = std::move(part.value().assignment);
  }

  // SP places cables freely, so build a plant containing exactly the links
  // the assignment demands, then reuse the shared realization machinery.
  Plant plant;
  plant.switches.assign(static_cast<std::size_t>(numSwitches), spec);
  std::vector<int> nextPort(static_cast<std::size_t>(numSwitches), 0);
  const auto allocPort = [&](int sw) -> Result<PhysPort> {
    if (nextPort[sw] >= spec.numPorts) {
      return makeError(strFormat(
          "SP: physical switch %d exhausted its %d ports projecting '%s'",
          sw, spec.numPorts, topo.name().c_str()));
    }
    return PhysPort{sw, nextPort[sw]++};
  };

  for (int li = 0; li < topo.numLinks(); ++li) {
    const topo::Link& link = topo.link(li);
    const int pa = assignment[link.a.sw];
    const int pb = assignment[link.b.sw];
    auto ea = allocPort(pa);
    if (!ea) return ea.error();
    auto eb = allocPort(pb);
    if (!eb) return eb.error();
    const PhysLink cable{ea.value(), eb.value()};
    if (pa == pb) {
      plant.selfLinks.push_back(cable);
    } else {
      plant.interLinks.push_back(cable);
    }
  }
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) {
    auto p = allocPort(assignment[topo.hostSwitch(h)]);
    if (!p) return p.error();
    plant.hostPorts.push_back(p.value());
  }
  if (auto s = plant.validate(); !s) return s.error();

  auto proj = LinkProjector::projectWithAssignment(topo, plant, assignment);
  if (!proj) return proj.error();

  SpResult result{std::move(proj).value(), std::move(plant), CablePlan{}};
  result.cables.cables = result.plant.selfLinks;
  result.cables.cables.insert(result.cables.cables.end(), result.plant.interLinks.begin(),
                              result.plant.interLinks.end());
  return result;
}

Status<Error> SwitchProjector::checkOpticalCapacity(const SpResult& result,
                                                    const OpticalSwitchSpec& optical) {
  // Every fabric cable occupies two OCS ports (one per fiber end).
  const int needed = 2 * static_cast<int>(result.cables.cables.size());
  if (needed > optical.numPorts) {
    return makeError(strFormat(
        "SP-OS: topology needs %d optical-switch ports but %s has only %d",
        needed, optical.model.c_str(), optical.numPorts));
  }
  return {};
}

}  // namespace sdt::projection
