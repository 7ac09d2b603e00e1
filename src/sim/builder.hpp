// Network builders: assemble a sim::Network either from a logical topology
// (the "full testbed" baseline) or from SDT projections (the physical
// plant executing controller-generated flow tables; one topology, or every
// tenant slice of a shared plant).
//
// Invariant shared by both: sim host ids equal topo::HostId (offset by the
// slice's host base on a shared plant), so workloads and transports are
// oblivious to which plane they run on — exactly the transparency property
// the paper claims for SDT (§VIII).
#pragma once

#include <memory>
#include <vector>

#include "openflow/of_switch.hpp"
#include "projection/projection.hpp"
#include "routing/routing.hpp"
#include "sim/network.hpp"

namespace sdt::sim {

struct BuiltNetwork {
  std::unique_ptr<Network> net;
  /// SDT mode only: the programmed switch models (shared with forwarders);
  /// the Network Monitor polls their port/flow counters.
  std::vector<std::shared_ptr<openflow::Switch>> ofSwitches;
};

/// One sim switch per logical switch; forwarding via `routing`. The routing
/// object must outlive the network.
BuiltNetwork buildLogicalNetwork(Simulator& sim, const topo::Topology& topo,
                                 const routing::RoutingAlgorithm& routing,
                                 const NetworkConfig& config);

class EpochConsistencyChecker;

/// One topology's share of a projected plant: its projection, the plant its
/// link indices name (the shared plant itself, or a tenant slice's carved
/// plant, whose cables are a subset of the shared plant's) and the sim host
/// id of its logical host 0.
struct PlacedTopology {
  const topo::Topology* topology = nullptr;
  const projection::Projection* projection = nullptr;
  const projection::Plant* plant = nullptr;
  topo::HostId hostBase = 0;
};

/// One sim switch per *physical* switch, executing `programmedSwitches`
/// (index-aligned with plant.switches; tables already installed by the
/// controller), with `numHosts` sim hosts. Every fixed cable of `plant` is
/// wired, each realized link at its topology's logical speed; optical
/// circuits exist only while realized; each topology's hosts attach at
/// hostBase + h. `crossbar` adds the sharing overhead per traversal based on
/// how many sub-switches, summed over `placed`, each crossbar hosts.
/// `checker`, when given, observes every flow-table lookup and must outlive
/// the network (per-packet consistency audits during live reconfiguration).
BuiltNetwork buildProjectedNetwork(Simulator& sim, const projection::Plant& plant,
                                   const std::vector<PlacedTopology>& placed, int numHosts,
                                   std::vector<std::shared_ptr<openflow::Switch>>
                                       programmedSwitches,
                                   const NetworkConfig& config,
                                   const CrossbarModel& crossbar,
                                   EpochConsistencyChecker* checker = nullptr);

/// The single-topology plane: `topo` alone on `plant`, hosts at their
/// logical ids.
BuiltNetwork buildProjectedNetwork(Simulator& sim, const topo::Topology& topo,
                                   const projection::Projection& projection,
                                   const projection::Plant& plant,
                                   std::vector<std::shared_ptr<openflow::Switch>>
                                       programmedSwitches,
                                   const NetworkConfig& config,
                                   const CrossbarModel& crossbar,
                                   EpochConsistencyChecker* checker = nullptr);

}  // namespace sdt::sim
