#include "projection/link_projector.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "partition/partitioner.hpp"

namespace sdt::projection {

namespace {

/// Partition seeds tried per switch count before growing to the next one.
constexpr int kPartitionAttempts = 4;

/// Per-switch pools of still-unused plant resources during assignment.
struct ResourcePools {
  std::vector<std::vector<int>> selfLinks;   // per switch: plant self-link indices
  std::vector<std::vector<std::vector<int>>> interLinks;  // [a][b]: indices
  std::vector<std::vector<int>> hostPorts;   // per switch: plant host-port indices
  std::vector<std::vector<int>> flexPorts;   // per switch: OCS-attached ports (§VII-A)

  explicit ResourcePools(const Plant& plant) {
    const int n = plant.numSwitches();
    selfLinks.resize(static_cast<std::size_t>(n));
    hostPorts.resize(static_cast<std::size_t>(n));
    flexPorts.resize(static_cast<std::size_t>(n));
    interLinks.assign(static_cast<std::size_t>(n),
                      std::vector<std::vector<int>>(static_cast<std::size_t>(n)));
    for (int i = 0; i < static_cast<int>(plant.selfLinks.size()); ++i) {
      selfLinks[plant.selfLinks[i].a.sw].push_back(i);
    }
    for (int i = 0; i < static_cast<int>(plant.interLinks.size()); ++i) {
      const PhysLink& l = plant.interLinks[i];
      interLinks[l.a.sw][l.b.sw].push_back(i);
      interLinks[l.b.sw][l.a.sw].push_back(i);
    }
    for (int i = 0; i < static_cast<int>(plant.hostPorts.size()); ++i) {
      hostPorts[plant.hostPorts[i].sw].push_back(i);
    }
    for (int i = 0; i < static_cast<int>(plant.flexPorts.size()); ++i) {
      flexPorts[plant.flexPorts[i].sw].push_back(i);
    }
  }

  /// Dial an optical circuit between two flex ports (same switch -> an
  /// on-demand self-link; different switches -> an inter-switch link).
  std::optional<PhysLink> takeCircuit(const Plant& plant, int swA, int swB) {
    if (flexPorts[swA].empty()) return std::nullopt;
    if (swA == swB && flexPorts[swA].size() < 2) return std::nullopt;
    if (swA != swB && flexPorts[swB].empty()) return std::nullopt;
    const int ia = flexPorts[swA].back();
    flexPorts[swA].pop_back();
    const int ib = flexPorts[swB].back();
    flexPorts[swB].pop_back();
    return PhysLink{plant.flexPorts[ia], plant.flexPorts[ib]};
  }

  std::optional<int> takeSelfLink(int sw) {
    if (selfLinks[sw].empty()) return std::nullopt;
    const int idx = selfLinks[sw].back();
    selfLinks[sw].pop_back();
    return idx;
  }

  std::optional<int> takeInterLink(int a, int b) {
    auto& pool = interLinks[a][b];
    if (pool.empty()) return std::nullopt;
    const int idx = pool.back();
    pool.pop_back();
    // Remove from the mirrored pool too.
    auto& mirror = interLinks[b][a];
    mirror.erase(std::find(mirror.begin(), mirror.end(), idx));
    return idx;
  }

  std::optional<int> takeHostPort(int sw) {
    if (hostPorts[sw].empty()) return std::nullopt;
    const int idx = hostPorts[sw].back();
    hostPorts[sw].pop_back();
    return idx;
  }
};

}  // namespace

Result<Projection> LinkProjector::projectWithAssignment(const topo::Topology& topo,
                                                        const Plant& plant,
                                                        const std::vector<int>& assignment) {
  if (static_cast<int>(assignment.size()) != topo.numSwitches()) {
    return makeError("assignment size does not match topology");
  }
  for (const int part : assignment) {
    if (part < 0 || part >= plant.numSwitches()) {
      return makeError(strFormat("assignment references physical switch %d", part));
    }
  }

  ResourcePools pools(plant);
  Projection proj(topo.numSwitches(), topo.numHosts());
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    proj.setPhysSwitchOf(sw, assignment[sw]);
  }

  // Realize every logical fabric link (paper: self-links first is not
  // required — pools are disjoint — so we go in link order for determinism).
  for (int li = 0; li < topo.numLinks(); ++li) {
    const topo::Link& link = topo.link(li);
    const int pa = assignment[link.a.sw];
    const int pb = assignment[link.b.sw];
    // On-demand optical fallback (§VII-A) when the fixed pool runs dry.
    const auto realizeOptical = [&]() -> Status<Error> {
      const auto circuit = pools.takeCircuit(plant, pa, pb);
      if (!circuit) {
        return makeError(strFormat(
            pa == pb ? "physical switch %d is out of self-links (logical link %d needs "
                       "one more; add self-link cables, flex ports, or repartition)"
                     : "no link budget left between physical switches %d and %d "
                       "(logical link %d; reserve more inter-switch cables or flex "
                       "ports, Eq. 2)",
            pa, pa == pb ? li : pb, li));
      }
      const PhysPort& endA = circuit->a.sw == pa ? circuit->a : circuit->b;
      const PhysPort& endB = circuit->a.sw == pa ? circuit->b : circuit->a;
      proj.mapPort(link.a, endA);
      proj.mapPort(link.b, endB);
      const int idx = proj.addOpticalCircuit(PhysLink{endA, endB});
      proj.addRealizedLink(RealizedLink{li, /*interSwitch=*/pa != pb,
                                        /*optical=*/true, idx});
      return {};
    };

    if (pa == pb) {
      const auto idx = pools.takeSelfLink(pa);
      if (!idx) {
        if (auto s = realizeOptical(); !s) return s.error();
        continue;
      }
      const PhysLink& phys = plant.selfLinks[*idx];
      proj.mapPort(link.a, phys.a);
      proj.mapPort(link.b, phys.b);
      proj.addRealizedLink(RealizedLink{li, /*interSwitch=*/false, /*optical=*/false,
                                        *idx});
    } else {
      const auto idx = pools.takeInterLink(pa, pb);
      if (!idx) {
        if (auto s = realizeOptical(); !s) return s.error();
        continue;
      }
      const PhysLink& phys = plant.interLinks[*idx];
      // Orient so each logical endpoint lands on its part's switch.
      const PhysPort& endA = phys.a.sw == pa ? phys.a : phys.b;
      const PhysPort& endB = phys.a.sw == pa ? phys.b : phys.a;
      proj.mapPort(link.a, endA);
      proj.mapPort(link.b, endB);
      proj.addRealizedLink(RealizedLink{li, /*interSwitch=*/true, /*optical=*/false,
                                        *idx});
    }
  }

  // Pin hosts.
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) {
    const int physSw = assignment[topo.hostSwitch(h)];
    const auto idx = pools.takeHostPort(physSw);
    if (!idx) {
      return makeError(strFormat(
          "physical switch %d has no free host port for host %d "
          "(move hosts or rebalance the partition)", physSw, h));
    }
    proj.mapHost(h, plant.hostPorts[*idx]);
  }

  if (auto s = proj.validate(topo, plant); !s) return s.error();
  return proj;
}

Result<Projection> LinkProjector::project(const topo::Topology& topo, const Plant& plant) {
  if (auto s = topo.validate(/*requireConnected=*/false); !s) return s.error();
  if (plant.numSwitches() == 0) return makeError("plant has no switches");

  // An assignment onto parts [0, k) realizes each logical link on one
  // self-link, inter-switch cable or two-flex-port circuit among physical
  // switches [0, k), and each host on one host port there. A part count
  // whose switches hold too few of them fails for every seed, so it is
  // skipped before partitioning; the first fit found is unchanged.
  const auto n = static_cast<std::size_t>(plant.numSwitches());
  std::vector<int> selfOn(n, 0), interWithin(n, 0), flexOn(n, 0), hostsOn(n, 0);
  for (const PhysLink& l : plant.selfLinks) ++selfOn[l.a.sw];
  for (const PhysLink& l : plant.interLinks) ++interWithin[std::max(l.a.sw, l.b.sw)];
  for (const PhysPort& p : plant.flexPorts) ++flexOn[p.sw];
  for (const PhysPort& p : plant.hostPorts) ++hostsOn[p.sw];
  int selfLinks = 0, interLinks = 0, flexPorts = 0, hostPorts = 0;

  std::string lastError = "projection failed";
  const int maxParts = std::min(plant.numSwitches(), std::max(1, topo.numSwitches()));
  for (int parts = 1; parts <= maxParts; ++parts) {
    selfLinks += selfOn[parts - 1];
    interLinks += interWithin[parts - 1];
    flexPorts += flexOn[parts - 1];
    hostPorts += hostsOn[parts - 1];
    if (selfLinks + interLinks + flexPorts / 2 < topo.numLinks()) {
      lastError = strFormat(
          "physical switches [0, %d) hold %d self-links, %d inter-switch links and %d "
          "flex ports, too few for %d logical links",
          parts, selfLinks, interLinks, flexPorts, topo.numLinks());
      continue;
    }
    if (hostPorts < topo.numHosts()) {
      lastError = strFormat("physical switches [0, %d) have %d host ports, too few for %d hosts",
                            parts, hostPorts, topo.numHosts());
      continue;
    }
    if (parts == 1) {
      std::vector<int> assignment(static_cast<std::size_t>(topo.numSwitches()), 0);
      auto r = projectWithAssignment(topo, plant, assignment);
      if (r) return r;
      lastError = r.error().message;
      continue;
    }
    for (int attempt = 0; attempt < kPartitionAttempts; ++attempt) {
      partition::PartitionOptions popt;
      popt.parts = parts;
      popt.seed += static_cast<std::uint64_t>(attempt) * 7919;
      auto part = partition::partitionGraph(topo.switchGraph(), popt);
      if (!part) {
        lastError = part.error().message;
        continue;
      }
      auto r = projectWithAssignment(topo, plant, part.value().assignment);
      if (r) {
        SDT_DEBUG << "projected " << topo.name() << " on " << parts
                  << " switches (cut=" << part.value().cutWeight << ")";
        return r;
      }
      lastError = r.error().message;
    }
  }
  return makeError("cannot project '" + topo.name() + "' onto this plant: " + lastError);
}

}  // namespace sdt::projection
