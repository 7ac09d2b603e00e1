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
//
// Optionally congestion-aware: with a CongestionOracle installed the
// per-flow hash picks among the *least-loaded* equal-cost candidates
// instead of all of them, spreading elephant collisions under overload
// (same oracle contract as AdaptiveDragonflyRouting).
#pragma once

#include <functional>
#include <vector>

#include "routing/routing.hpp"

namespace sdt::routing {

class ShortestPathRouting : public RoutingAlgorithm {
 public:
  /// Load estimate for (switch, out port) — typically queued bytes.
  /// Shard-safety contract: the oracle runs inside a data-plane forwarding
  /// decision on the switch's owning shard, so it must read only state owned
  /// by that switch (its own egress queues), never another shard's.
  using CongestionOracle = std::function<double(topo::SwitchId, topo::PortId)>;

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

  /// Weight ECMP choices by load: nextHop() restricts the hash pick to the
  /// candidates whose oracle load ties for minimum (deterministic at equal
  /// loads — the tie set is ordered by port id).
  void setCongestionOracle(CongestionOracle oracle) { oracle_ = std::move(oracle); }

 private:
  /// One surviving link as seen from a switch: its local port and far end.
  struct Adjacent {
    topo::PortId port;
    topo::SwitchId peer;
  };

  std::vector<char> severedMask_;  ///< [link index] -> severed?
  int severedCount_ = 0;           ///< severed indices as given (for errors)
  /// adjacent_[sw] = surviving links incident to `sw`, in linksOf() order.
  std::vector<std::vector<Adjacent>> adjacent_;
  /// dist_[dstSwitch][sw] = hop distance over surviving links (-1 unreachable).
  std::vector<std::vector<int>> dist_;
  int vcs_;
  CongestionOracle oracle_;
};

}  // namespace sdt::routing
