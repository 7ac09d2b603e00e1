#include "projection/projection.hpp"

#include <algorithm>
#include <set>

#include "common/strings.hpp"

namespace sdt::projection {

void Projection::mapPort(topo::SwitchPort logical, PhysPort phys) {
  auto& ports = portMap_[logical.sw];
  if (static_cast<int>(ports.size()) <= logical.port) {
    ports.resize(static_cast<std::size_t>(logical.port) + 1);
  }
  // Remapping (repair moving a link to a spare port): drop the stale reverse
  // entry or logicalAt() would keep answering for the abandoned port.
  if (ports[logical.port].valid()) reverse_.erase(ports[logical.port]);
  ports[logical.port] = phys;
  reverse_[phys] = logical;
}

void Projection::rerealizeLink(int realizedIdx, int newPhysLink) {
  realized_[realizedIdx].physLink = newPhysLink;
}

PhysPort Projection::physOf(topo::SwitchPort logical) const {
  const auto& ports = portMap_[logical.sw];
  if (logical.port < 0 || logical.port >= static_cast<int>(ports.size())) return {};
  return ports[logical.port];
}

std::optional<topo::SwitchPort> Projection::logicalAt(PhysPort phys) const {
  const auto it = reverse_.find(phys);
  if (it == reverse_.end()) return std::nullopt;
  return it->second;
}

int Projection::subSwitchCountOn(int physSw) const {
  return static_cast<int>(
      std::count(physSwitchOf_.begin(), physSwitchOf_.end(), physSw));
}

int Projection::interSwitchLinkCount() const {
  return static_cast<int>(std::count_if(realized_.begin(), realized_.end(),
                                        [](const RealizedLink& rl) { return rl.interSwitch; }));
}

Status<Error> Projection::validate(const topo::Topology& topo, const Plant& plant) const {
  if (topo.numSwitches() != numLogicalSwitches() || topo.numHosts() != numHosts()) {
    return makeError("projection size does not match topology");
  }
  // Every realized link joins the correct physical endpoints.
  std::set<int> usedSelf;
  std::set<int> usedInter;
  std::set<int> usedCircuit;
  if (static_cast<int>(realized_.size()) != topo.numLinks()) {
    return makeError(strFormat("%zu links realized, topology has %d", realized_.size(),
                               topo.numLinks()));
  }
  for (const RealizedLink& rl : realized_) {
    const topo::Link& logical = topo.link(rl.logicalLink);
    const PhysLink& phys =
        rl.optical ? circuits_[rl.physLink]
                   : (rl.interSwitch ? plant.interLinks[rl.physLink]
                                     : plant.selfLinks[rl.physLink]);
    auto& pool = rl.optical ? usedCircuit : (rl.interSwitch ? usedInter : usedSelf);
    if (!pool.insert(rl.physLink).second) {
      return makeError(strFormat("physical link %d used by two logical links", rl.physLink));
    }
    const PhysPort pa = physOf(logical.a);
    const PhysPort pb = physOf(logical.b);
    const bool straight = pa == phys.a && pb == phys.b;
    const bool flipped = pa == phys.b && pb == phys.a;
    if (!straight && !flipped) {
      return makeError(strFormat("logical link %d not realized by its physical link",
                                 rl.logicalLink));
    }
    if (rl.optical) {
      // Circuit endpoints must be plant flex ports (cabled into the OCS).
      for (const PhysPort end : {phys.a, phys.b}) {
        const bool isFlex =
            std::find(plant.flexPorts.begin(), plant.flexPorts.end(), end) !=
            plant.flexPorts.end();
        if (!isFlex) {
          return makeError(strFormat("optical circuit for link %d uses a non-flex port",
                                     rl.logicalLink));
        }
      }
    }
  }
  // No physical port double-booked between fabric map and host map.
  std::set<PhysPort> used;
  for (const auto& [phys, logical] : reverse_) {
    (void)logical;
    if (!used.insert(phys).second) {
      return makeError("physical port mapped twice");
    }
  }
  for (int h = 0; h < numHosts(); ++h) {
    if (!hostPort_[h].valid()) return makeError(strFormat("host %d unmapped", h));
    if (!used.insert(hostPort_[h]).second) {
      return makeError(strFormat("host %d shares a physical port", h));
    }
  }
  // Hosts sit on the same physical switch as their logical switch.
  for (int h = 0; h < numHosts(); ++h) {
    const topo::SwitchId lsw = topo.hostSwitch(h);
    if (hostPort_[h].sw != physSwitchOf_[lsw]) {
      return makeError(strFormat("host %d mapped to switch %d but its logical switch "
                                 "lives on %d", h, hostPort_[h].sw, physSwitchOf_[lsw]));
    }
  }
  return {};
}

}  // namespace sdt::projection
