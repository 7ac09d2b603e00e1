#include "projection/plant.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.hpp"
#include "partition/partitioner.hpp"
#include "topo/topology.hpp"

namespace sdt::projection {

PhysicalSwitchSpec openflow64x100G() {
  PhysicalSwitchSpec s;
  s.model = "openflow-64x100G";
  s.numPorts = 64;
  s.portSpeed = Gbps{100.0};
  s.flowTableCapacity = 65536;
  s.costUsd = 5'000.0;
  return s;
}

PhysicalSwitchSpec openflow128x100G() {
  PhysicalSwitchSpec s = openflow64x100G();
  s.model = "openflow-128x100G";
  s.numPorts = 128;
  s.costUsd = 10'000.0;
  return s;
}

PhysicalSwitchSpec p4Switch64x100G() {
  PhysicalSwitchSpec s = openflow64x100G();
  s.model = "p4-64x100G";
  s.costUsd = 15'000.0;
  return s;
}

PhysicalSwitchSpec p4Switch128x100G() {
  PhysicalSwitchSpec s = p4Switch64x100G();
  s.model = "p4-128x100G";
  s.numPorts = 128;
  s.costUsd = 30'000.0;
  return s;
}

PhysicalSwitchSpec h3cS6861() {
  PhysicalSwitchSpec s;
  s.model = "h3c-s6861-54qf";
  // 64x10G SFP+ plus 6x40G QSFP+, each splittable into 4x10G: model the
  // whole box as 88 usable 10G ports.
  s.numPorts = 88;
  s.portSpeed = Gbps{10.0};
  s.maxBreakout = 1;  // SFP+ ports do not break out further
  s.flowTableCapacity = 4096;
  s.costUsd = 4'000.0;
  return s;
}

OpticalSwitchSpec mems320() { return OpticalSwitchSpec{}; }

std::vector<int> Plant::selfLinksOf(int sw) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(selfLinks.size()); ++i) {
    if (selfLinks[i].a.sw == sw) out.push_back(i);
  }
  return out;
}

std::vector<int> Plant::interLinksBetween(int a, int b) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(interLinks.size()); ++i) {
    const PhysLink& l = interLinks[i];
    if ((l.a.sw == a && l.b.sw == b) || (l.a.sw == b && l.b.sw == a)) out.push_back(i);
  }
  return out;
}

std::vector<int> Plant::hostPortsOf(int sw) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(hostPorts.size()); ++i) {
    if (hostPorts[i].sw == sw) out.push_back(i);
  }
  return out;
}

std::vector<int> Plant::flexPortsOf(int sw) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(flexPorts.size()); ++i) {
    if (flexPorts[i].sw == sw) out.push_back(i);
  }
  return out;
}

double Plant::totalCostUsd() const {
  double sum = 0.0;
  for (const PhysicalSwitchSpec& s : switches) sum += s.costUsd;
  return sum;
}

Status<Error> Plant::validate() const {
  std::set<PhysPort> used;
  const auto checkPort = [&](PhysPort p) -> Status<Error> {
    if (p.sw < 0 || p.sw >= numSwitches()) {
      return makeError(strFormat("port references unknown switch %d", p.sw));
    }
    if (p.port < 0 || p.port >= switches[p.sw].numPorts) {
      return makeError(strFormat("switch %d port %d out of range", p.sw, p.port));
    }
    if (!used.insert(p).second) {
      return makeError(strFormat("switch %d port %d cabled twice", p.sw, p.port));
    }
    return {};
  };
  for (const PhysLink& l : selfLinks) {
    if (!l.isSelfLink()) return makeError("self-link spans two switches");
    if (auto s = checkPort(l.a); !s) return s;
    if (auto s = checkPort(l.b); !s) return s;
  }
  for (const PhysLink& l : interLinks) {
    if (l.isSelfLink()) return makeError("inter-switch link has both ends on one switch");
    if (auto s = checkPort(l.a); !s) return s;
    if (auto s = checkPort(l.b); !s) return s;
  }
  for (const PhysPort& p : hostPorts) {
    if (auto s = checkPort(p); !s) return s;
  }
  for (const PhysPort& p : flexPorts) {
    if (auto s = checkPort(p); !s) return s;
  }
  if (static_cast<int>(flexPorts.size()) > optical.numPorts) {
    return makeError(strFormat("%zu flex ports exceed the %d-port optical switch",
                               flexPorts.size(), optical.numPorts));
  }
  return {};
}

Result<Plant> buildPlant(const PlantConfig& config) {
  if (config.numSwitches < 1) return makeError("plant needs at least one switch");
  if (config.hostPortsPerSwitch < 0 || config.interLinksPerPair < 0) {
    return makeError("negative port reservation");
  }
  Plant plant;
  plant.switches.assign(static_cast<std::size_t>(config.numSwitches), config.spec);

  std::vector<int> nextPort(static_cast<std::size_t>(config.numSwitches), 0);
  const int perSwitch = config.spec.numPorts;

  // Inter-switch links: `interLinksPerPair` cables between every pair.
  for (int a = 0; a < config.numSwitches; ++a) {
    for (int b = a + 1; b < config.numSwitches; ++b) {
      for (int k = 0; k < config.interLinksPerPair; ++k) {
        if (nextPort[a] >= perSwitch || nextPort[b] >= perSwitch) {
          return makeError(strFormat(
              "switch ports exhausted while reserving inter-switch links "
              "(pair %d-%d, link %d)", a, b, k));
        }
        plant.interLinks.push_back(
            PhysLink{PhysPort{a, nextPort[a]++}, PhysPort{b, nextPort[b]++}});
      }
    }
  }
  // Host ports.
  for (int sw = 0; sw < config.numSwitches; ++sw) {
    for (int h = 0; h < config.hostPortsPerSwitch; ++h) {
      if (nextPort[sw] >= perSwitch) {
        return makeError(strFormat("switch %d ports exhausted while reserving host ports", sw));
      }
      plant.hostPorts.push_back(PhysPort{sw, nextPort[sw]++});
    }
  }
  // Remaining ports: adjacent pairs become self-links (paper footnote 2).
  for (int sw = 0; sw < config.numSwitches; ++sw) {
    while (nextPort[sw] + 1 < perSwitch) {
      const int p0 = nextPort[sw]++;
      const int p1 = nextPort[sw]++;
      plant.selfLinks.push_back(PhysLink{PhysPort{sw, p0}, PhysPort{sw, p1}});
    }
  }
  if (auto s = plant.validate(); !s) return s.error();
  return plant;
}

Status<Error> addOpticalFlex(Plant& plant, int pairsPerSwitch, OpticalSwitchSpec optical) {
  if (pairsPerSwitch < 0) return makeError("negative flex reservation");
  // 64-bit: two ports per pair on every switch overflows int long before
  // any optical switch could hold the pairs.
  const std::int64_t portsNeeded =
      2 * static_cast<std::int64_t>(pairsPerSwitch) * plant.numSwitches() +
      static_cast<std::int64_t>(plant.flexPorts.size());
  if (portsNeeded > optical.numPorts) {
    return makeError(strFormat("optical switch '%s' has %d ports; %lld needed",
                               optical.model.c_str(), optical.numPorts,
                               static_cast<long long>(portsNeeded)));
  }
  plant.optical = optical;
  for (int sw = 0; sw < plant.numSwitches(); ++sw) {
    for (int k = 0; k < pairsPerSwitch; ++k) {
      // Convert the switch's last self-link into two OCS-attached ports.
      const auto pool = plant.selfLinksOf(sw);
      if (pool.empty()) {
        return makeError(strFormat("switch %d has no self-link left to convert", sw));
      }
      const PhysLink link = plant.selfLinks[pool.back()];
      plant.selfLinks.erase(plant.selfLinks.begin() + pool.back());
      plant.flexPorts.push_back(link.a);
      plant.flexPorts.push_back(link.b);
    }
  }
  return plant.validate();
}

Result<PlantDemand> plantDemand(const topo::Topology& topo, int numSwitches) {
  if (numSwitches < 1) return makeError("plant needs at least one switch");
  const int parts = std::min(numSwitches, std::max(1, topo.numSwitches()));
  std::vector<int> assignment(static_cast<std::size_t>(topo.numSwitches()), 0);
  if (parts > 1) {
    partition::PartitionOptions popt;
    popt.parts = parts;
    auto part = partition::partitionGraph(topo.switchGraph(), popt);
    if (!part) return part.error();
    assignment = std::move(part.value().assignment);
  }
  PlantDemand demand;
  demand.selfLinksPerPart.assign(static_cast<std::size_t>(parts), 0);
  demand.hostsPerPart.assign(static_cast<std::size_t>(parts), 0);
  for (const topo::Link& link : topo.links()) {
    const int pa = assignment[link.a.sw];
    const int pb = assignment[link.b.sw];
    if (pa == pb) {
      ++demand.selfLinksPerPart[pa];
    } else {
      ++demand.interLinksPerPair[std::minmax(pa, pb)];
    }
  }
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) {
    ++demand.hostsPerPart[assignment[topo.hostSwitch(h)]];
  }
  return demand;
}

namespace {

constexpr int kSlackSelfLinks = 2;   ///< spare self-links per switch
constexpr int kSlackInterLinks = 2;  ///< spare inter-switch links per pair
constexpr int kSlackHostPorts = 1;   ///< spare host ports per switch

}  // namespace

Result<Plant> planPlant(const std::vector<const topo::Topology*>& topologies,
                        const PlanOptions& options) {
  if (topologies.empty()) return makeError("planPlant needs at least one topology");
  if (options.numSwitches < 1) return makeError("plant needs at least one switch");

  int maxSelf = 0;
  int maxHosts = 0;
  std::map<std::pair<int, int>, int> interNeeded;  // per concrete switch pair
  for (const topo::Topology* t : topologies) {
    auto demand = plantDemand(*t, options.numSwitches);
    if (!demand) {
      return makeError(strFormat("planPlant: cannot partition '%s': %s",
                                 t->name().c_str(), demand.error().message.c_str()));
    }
    for (const int s : demand.value().selfLinksPerPart) maxSelf = std::max(maxSelf, s);
    for (const auto& [pair, count] : demand.value().interLinksPerPair) {
      int& need = interNeeded[pair];
      need = std::max(need, count);
    }
    for (const int h : demand.value().hostsPerPart) maxHosts = std::max(maxHosts, h);
  }

  // Wire the plant with *exactly* the per-pair inter-switch reservations the
  // topology set demands (uniform all-pairs reservation would waste ports on
  // pairs no partition ever cuts).
  Plant plant;
  plant.switches.assign(static_cast<std::size_t>(options.numSwitches), options.spec);
  std::vector<int> nextPort(static_cast<std::size_t>(options.numSwitches), 0);
  const int perSwitch = options.spec.numPorts;
  const auto allocPort = [&](int sw) -> std::optional<PhysPort> {
    if (nextPort[sw] >= perSwitch) return std::nullopt;
    return PhysPort{sw, nextPort[sw]++};
  };
  for (auto& [pair, need] : interNeeded) {
    if (options.numSwitches > 1) need += kSlackInterLinks;
    for (int k = 0; k < need; ++k) {
      const auto a = allocPort(pair.first);
      const auto b = allocPort(pair.second);
      if (!a || !b) {
        return makeError(strFormat(
            "planPlant: ports exhausted reserving inter-switch links %d-%d on '%s'",
            pair.first, pair.second, options.spec.model.c_str()));
      }
      plant.interLinks.push_back(PhysLink{*a, *b});
    }
  }
  const int hostPorts = maxHosts + kSlackHostPorts;
  for (int sw = 0; sw < options.numSwitches; ++sw) {
    for (int h = 0; h < hostPorts; ++h) {
      const auto p = allocPort(sw);
      if (!p) {
        return makeError(strFormat("planPlant: switch %d out of ports for hosts", sw));
      }
      plant.hostPorts.push_back(*p);
    }
  }
  int minSelf = perSwitch;  // self-links available on the tightest switch
  for (int sw = 0; sw < options.numSwitches; ++sw) {
    int count = 0;
    while (nextPort[sw] + 1 < perSwitch) {
      const auto a = allocPort(sw);
      const auto b = allocPort(sw);
      plant.selfLinks.push_back(PhysLink{*a, *b});
      ++count;
    }
    minSelf = std::min(minSelf, count);
  }
  if (minSelf < maxSelf + kSlackSelfLinks) {
    return makeError(strFormat(
        "planPlant: '%s' x%d leaves only %d self-links per switch but the "
        "topology set needs %d (+%d slack); use bigger or more switches",
        options.spec.model.c_str(), options.numSwitches, minSelf, maxSelf,
        kSlackSelfLinks));
  }
  if (auto s = plant.validate(); !s) return s.error();
  return plant;
}

}  // namespace sdt::projection
