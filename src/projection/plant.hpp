// Physical plant model: the switches a lab actually buys and the fixed
// cabling installed once at deployment time (paper §IV).
//
// SDT's key idea is that the *cabling never changes*: ports are paired into
// self-links (a short fiber between two adjacent ports of the same switch,
// footnote 2), a reserved set of inter-switch links connects switch pairs,
// and some ports are reserved for end hosts. Every topology
// (re)configuration afterwards is pure flow-table work.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "topo/topology.hpp"

namespace sdt::projection {

/// One purchasable switch model. Costs follow the paper's Table II
/// extrapolations ("current market price").
struct PhysicalSwitchSpec {
  std::string model = "generic-64x100G";
  int numPorts = 64;
  Gbps portSpeed{100.0};
  /// 100G ports split into 2x50G or 4x25G (QSFP28 breakout).
  int maxBreakout = 4;
  std::size_t flowTableCapacity = 8192;
  double costUsd = 5'000.0;
};

/// Catalog entries used by the Table II comparison.
PhysicalSwitchSpec openflow64x100G();
PhysicalSwitchSpec openflow128x100G();
PhysicalSwitchSpec p4Switch64x100G();
PhysicalSwitchSpec p4Switch128x100G();
/// The paper's actual cluster switch: H3C S6861-54QF (64x10G + 6x40G).
PhysicalSwitchSpec h3cS6861();

/// MEMS optical circuit switch used by the SP-OS baseline. Price scales
/// super-linearly with port count (a 320-port unit is >$100k, §III-C).
struct OpticalSwitchSpec {
  std::string model = "mems-320";
  int numPorts = 320;
  double costUsd = 100'000.0;
  /// Mirror-rotation reconfiguration latency (~100 ms, §II-A1).
  TimeNs reconfigLatency = msToNs(100);
};

OpticalSwitchSpec mems320();

/// A physical port reference: (switch index in the plant, port index).
struct PhysPort {
  int sw = -1;
  int port = -1;

  [[nodiscard]] bool valid() const { return sw >= 0 && port >= 0; }
  auto operator<=>(const PhysPort&) const = default;
};

/// A fixed cable: self-link when both ends are on the same switch,
/// inter-switch link otherwise.
struct PhysLink {
  PhysPort a;
  PhysPort b;

  [[nodiscard]] bool isSelfLink() const { return a.sw == b.sw; }
};

/// The deployed hardware: switches plus the one-time cabling.
///
/// `flexPorts` implements the paper's §VII-A flexibility enhancement: ports
/// cabled once into a MEMS optical circuit switch. The projector can pair
/// any two of them through an OCS circuit, turning the pair into *either* a
/// self-link (both ends on one switch) or an inter-switch link on demand —
/// the escape hatch when the fixed self/inter reservation does not fit a
/// new user topology. Circuits cost optical ports and add the OCS
/// reconfiguration latency, so fixed cabling is always preferred.
struct Plant {
  std::vector<PhysicalSwitchSpec> switches;
  std::vector<PhysLink> selfLinks;   ///< both ends on one switch
  std::vector<PhysLink> interLinks;  ///< across two switches
  std::vector<PhysPort> hostPorts;   ///< ports cabled to end hosts
  std::vector<PhysPort> flexPorts;   ///< ports cabled to the optical switch (§VII-A)
  OpticalSwitchSpec optical;         ///< the OCS behind flexPorts (if any)

  [[nodiscard]] int numSwitches() const { return static_cast<int>(switches.size()); }

  /// Self-link indices on physical switch `sw`.
  [[nodiscard]] std::vector<int> selfLinksOf(int sw) const;
  /// Inter-link indices between switches `a` and `b` (a != b).
  [[nodiscard]] std::vector<int> interLinksBetween(int a, int b) const;
  /// Host-port indices on switch `sw`.
  [[nodiscard]] std::vector<int> hostPortsOf(int sw) const;
  /// Flex-port indices on switch `sw`.
  [[nodiscard]] std::vector<int> flexPortsOf(int sw) const;

  /// Total monetary cost of the plant's switches.
  [[nodiscard]] double totalCostUsd() const;

  /// Structural checks: port ranges, no double-use of a port.
  [[nodiscard]] Status<Error> validate() const;
};

/// Configuration for the canonical plant builder.
struct PlantConfig {
  int numSwitches = 3;
  PhysicalSwitchSpec spec = openflow64x100G();
  /// Ports per switch cabled to hosts (the paper reserves 32/3 ≈ 11).
  int hostPortsPerSwitch = 11;
  /// Reserved inter-switch links between every switch pair (§IV-B: chosen
  /// as the max over all topologies to be evaluated).
  int interLinksPerPair = 8;
};

/// Build a plant with the paper's canonical wiring: on each switch, the
/// first ports host the inter-switch cables (round-robin over pairs), the
/// next `hostPortsPerSwitch` go to hosts, and every remaining adjacent
/// port pair (2k, 2k+1) becomes a self-link.
Result<Plant> buildPlant(const PlantConfig& config);

/// Plan a plant for a *set* of topologies (paper §IV-B: "we generally divide
/// the topologies in advance ... the reserved inter-switch links usually
/// come from the maximum inter-switch links among all topologies").
/// Partitions every topology over `numSwitches`, takes the per-switch
/// self-link / host-port and per-pair inter-link maxima plus a little slack,
/// and builds the corresponding plant. Fails when the switch model simply
/// has too few ports.
struct PlanOptions {
  int numSwitches = 3;
  PhysicalSwitchSpec spec = openflow64x100G();
};

Result<Plant> planPlant(const std::vector<const topo::Topology*>& topologies,
                        const PlanOptions& options);

/// What one topology demands of a plant of `numSwitches` switches, counted
/// on the multilevel partition of its switch graph into min(numSwitches,
/// logical switches) parts — the split planPlant sizes a plant for and
/// SdtController::check() quantifies a shortfall against.
struct PlantDemand {
  std::vector<int> selfLinksPerPart;
  std::vector<int> hostsPerPart;
  std::map<std::pair<int, int>, int> interLinksPerPair;  ///< keyed (lower, higher) part
};

/// Fails when `numSwitches` < 1 or the partitioner does (its error, as is).
Result<PlantDemand> plantDemand(const topo::Topology& topo, int numSwitches);

/// §VII-A flexibility enhancement: re-cable `pairsPerSwitch` of each
/// switch's self-links into the optical circuit switch, making their ports
/// available as on-demand self-links *or* inter-switch links. Fails when a
/// switch has too few self-links left or the OCS runs out of ports.
Status<Error> addOpticalFlex(Plant& plant, int pairsPerSwitch,
                             OpticalSwitchSpec optical = mems320());

}  // namespace sdt::projection
