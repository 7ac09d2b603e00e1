#include <algorithm>
#include <iterator>
#include <numeric>

#include "controller/controller.hpp"

namespace sdt::controller {

Scope Scope::of(std::uint32_t epoch, const projection::Projection& projection,
                int numSwitches,
                const std::vector<std::vector<openflow::FlowEntry>>* desired,
                const std::vector<std::shared_ptr<openflow::Switch>>* live) {
  Scope scope;
  scope.tenant_ = openflow::epochTenant(epoch);
  const auto n = static_cast<std::size_t>(numSwitches);
  scope.ports_.resize(n);
  if (scope.tenant_ == 0) {
    scope.switches_.resize(n);
    std::iota(scope.switches_.begin(), scope.switches_.end(), 0);
    return scope;
  }
  for (topo::HostId h = 0; h < projection.numHosts(); ++h) {
    const projection::PhysPort pp = projection.hostPortOf(h);
    scope.ports_[static_cast<std::size_t>(pp.sw)].push_back(pp.port);
  }
  for (std::size_t sw = 0; sw < n; ++sw) {
    std::sort(scope.ports_[sw].begin(), scope.ports_[sw].end());
    if (!scope.ports_[sw].empty() || (desired != nullptr && !(*desired)[sw].empty()) ||
        (live != nullptr && scope.ownedCount((*live)[sw]->table()) > 0)) {
      scope.switches_.push_back(static_cast<int>(sw));
    }
  }
  return scope;
}

const std::vector<openflow::FlowEntry>& Scope::owned(
    const std::vector<openflow::FlowEntry>& all,
    std::vector<openflow::FlowEntry>& buffer) const {
  if (tenant_ == 0) return all;
  std::copy_if(all.begin(), all.end(), std::back_inserter(buffer),
               [this](const openflow::FlowEntry& e) { return owns(e); });
  return buffer;
}

void Scope::stamp(openflow::Switch& ofs, int sw, std::uint32_t epoch) const {
  if (tenant_ == 0) return ofs.setIngressEpoch(epoch);
  for (const int p : ports(sw)) ofs.setPortIngressEpoch(p, epoch);
}

bool Scope::stamped(const openflow::Switch& ofs, int sw, std::uint32_t epoch) const {
  if (tenant_ == 0) return ofs.ingressEpoch() == epoch;
  return std::all_of(ports(sw).begin(), ports(sw).end(),
                     [&](int p) { return ofs.portIngressEpoch(p) == epoch; });
}

bool Scope::stamped(const openflow::TableSnapshot& snap, int sw,
                    std::uint32_t epoch) const {
  if (tenant_ == 0) return snap.ingressEpoch == epoch;
  return std::all_of(ports(sw).begin(), ports(sw).end(), [&](int p) {
    const auto it = std::find_if(snap.portEpochs.begin(), snap.portEpochs.end(),
                                 [p](const auto& pe) { return pe.first == p; });
    return (it != snap.portEpochs.end() ? it->second : snap.ingressEpoch) == epoch;
  });
}

}  // namespace sdt::controller
