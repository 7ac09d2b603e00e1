#include "topo/topology.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/strings.hpp"

namespace sdt::topo {

SwitchId Topology::addSwitches(int count) {
  assert(count >= 0);
  const SwitchId first = numSwitches();
  portsUsed_.resize(portsUsed_.size() + static_cast<std::size_t>(count), 0);
  return first;
}

int Topology::connect(SwitchId a, SwitchId b, Gbps speed) {
  assert(a >= 0 && a < numSwitches());
  assert(b >= 0 && b < numSwitches());
  Link link;
  link.a = SwitchPort{a, allocPort(a)};
  link.b = SwitchPort{b, allocPort(b)};
  link.speed = speed;
  links_.push_back(link);
  return static_cast<int>(links_.size()) - 1;
}

HostId Topology::attachHost(SwitchId sw, Gbps speed) {
  assert(sw >= 0 && sw < numSwitches());
  HostLink hl;
  hl.host = numHosts();
  hl.attach = SwitchPort{sw, allocPort(sw)};
  hl.speed = speed;
  hostLinks_.push_back(hl);
  return hl.host;
}

int Topology::fabricRadix(SwitchId sw) const {
  int count = 0;
  for (const Link& l : links_) {
    if (l.a.sw == sw) ++count;
    if (l.b.sw == sw) ++count;
  }
  return count;
}

std::optional<int> Topology::linkAt(SwitchPort sp) const {
  for (int i = 0; i < numLinks(); ++i) {
    if (links_[i].a == sp || links_[i].b == sp) return i;
  }
  return std::nullopt;
}

Graph Topology::switchGraph() const {
  Graph g(numSwitches());
  for (const Link& l : links_) g.addEdge(l.a.sw, l.b.sw);
  return g;
}

std::optional<SwitchPort> Topology::neighborOf(SwitchPort sp) const {
  const auto li = linkAt(sp);
  if (!li) return std::nullopt;
  const Link& l = links_[*li];
  return l.a == sp ? l.b : l.a;
}

std::vector<int> Topology::linksOf(SwitchId sw) const {
  std::vector<int> out;
  for (int i = 0; i < numLinks(); ++i) {
    if (links_[i].a.sw == sw || links_[i].b.sw == sw) out.push_back(i);
  }
  return out;
}

std::vector<HostId> Topology::hostsOf(SwitchId sw) const {
  std::vector<HostId> out;
  for (const HostLink& hl : hostLinks_) {
    if (hl.attach.sw == sw) out.push_back(hl.host);
  }
  return out;
}

Status<Error> Topology::validate(bool requireConnected) const {
  std::set<SwitchPort> seen;
  const auto checkPort = [&](SwitchPort sp) -> Status<Error> {
    if (sp.sw < 0 || sp.sw >= numSwitches()) {
      return makeError(strFormat("link references unknown switch %d", sp.sw));
    }
    if (sp.port < 0 || sp.port >= portsUsed_[sp.sw]) {
      return makeError(strFormat("switch %d port %d out of range", sp.sw, sp.port));
    }
    if (!seen.insert(sp).second) {
      return makeError(strFormat("switch %d port %d used by two links", sp.sw, sp.port));
    }
    return {};
  };
  for (const Link& l : links_) {
    if (auto s = checkPort(l.a); !s) return s;
    if (auto s = checkPort(l.b); !s) return s;
    if (l.a.sw == l.b.sw && l.a.port == l.b.port) {
      return makeError("degenerate link: both endpoints identical");
    }
    if (l.speed.value <= 0) return makeError("link speed must be positive");
  }
  for (const HostLink& hl : hostLinks_) {
    if (auto s = checkPort(hl.attach); !s) return s;
  }
  if (requireConnected && numSwitches() > 0 && !switchGraph().isConnected()) {
    return makeError("switch graph is not connected");
  }
  return {};
}

}  // namespace sdt::topo
