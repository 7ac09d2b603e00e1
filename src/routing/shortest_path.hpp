// BFS shortest-path routing with deterministic per-flow ECMP.
//
// The general-purpose strategy for WAN topologies (Table II's 261 Internet
// graphs) and any topology without a dedicated algorithm. Deadlock freedom
// is not guaranteed in general (WANs run lossy ethernet, where it is moot).
//
// Also the repair-path router: SdtController::repair() routes a *degraded*
// topology — the logical graph minus the links it could not re-project onto
// a spare port — by passing those links as severed and keeping the VC count
// of the routing it replaces, so the recompiled tables keep their per-VC
// shape. Pairs the damage disconnects have no candidates (nextHop errors),
// and repair() reports them as unreachable instead of installing black-hole
// entries.
#pragma once

#include <vector>

#include "routing/routing.hpp"

namespace sdt::routing {

class ShortestPathRouting : public RoutingAlgorithm {
 public:
  /// `severedLinks` are indices into Topology::links() to route around
  /// (duplicates collapse); `numVcs` is the VC count reported to the
  /// controller, and nextHop() passes the packet's VC through unchanged.
  explicit ShortestPathRouting(const topo::Topology& topo,
                               const std::vector<int>& severedLinks = {}, int numVcs = 1);

  [[nodiscard]] std::string name() const override { return "shortest"; }
  [[nodiscard]] int numVcs() const override { return vcs_; }
  [[nodiscard]] Result<Hop> nextHop(topo::SwitchId sw, topo::HostId dst, int vc,
                                    std::uint64_t flowHash) const override;

  /// All equal-cost out-ports at `sw` toward `dst` (ECMP set), severed links
  /// excluded.
  [[nodiscard]] std::vector<topo::PortId> candidates(topo::SwitchId sw,
                                                     topo::HostId dst) const;

  [[nodiscard]] bool isSevered(int linkIndex) const {
    return linkIndex >= 0 && linkIndex < static_cast<int>(severedMask_.size()) &&
           severedMask_[linkIndex] != 0;
  }
  /// Whether `sw` can still reach `dst`'s switch over surviving links.
  [[nodiscard]] bool reachable(topo::SwitchId sw, topo::HostId dst) const;

 private:
  /// One surviving link as seen from a switch: its local port and far end.
  struct Adjacent {
    topo::PortId port;
    topo::SwitchId peer;
  };

  /// Whether `adj`, a link of `sw`, is one hop closer to `dst`'s switch.
  [[nodiscard]] bool closer(topo::SwitchId sw, topo::HostId dst, const Adjacent& adj) const {
    const std::vector<int>& dist = dist_[topo_->hostSwitch(dst)];
    return dist[adj.peer] >= 0 && dist[adj.peer] == dist[sw] - 1;
  }

  std::vector<char> severedMask_;  ///< [link index] -> severed?
  int severedCount_ = 0;           ///< severed indices as given (for errors)
  /// adjacent_[sw] = surviving links incident to `sw`, in linksOf() order.
  std::vector<std::vector<Adjacent>> adjacent_;
  /// dist_[dstSwitch][sw] = hop distance over surviving links (-1 unreachable).
  std::vector<std::vector<int>> dist_;
  int vcs_;
};

}  // namespace sdt::routing
