// Projection result: the concrete assignment of a logical topology onto a
// physical plant, as LinkProjector computes it for SDT. (The SP, SP-OS and
// TurboNet baselines of Table II are capacity, cost and reconfiguration-time
// models in feasibility.hpp; they place no projection.)
//
// A Projection answers three questions:
//   1. which physical port realizes each logical (switch, port)?      (map)
//   2. which physical switch hosts each logical switch's sub-switch?  (placement)
//   3. which physical port does each logical host plug into?          (hosts)
// plus bookkeeping for how each logical link was realized (self-link vs
// inter-switch link), which the flow-table generator and the evaluation
// harness (crossbar-load model) consume. A sub-switch's ports are the
// physical ports its logical ports map to; the flow tables confine it to
// them by matching every rule on its ingress port (§VI-B).
#pragma once

#include <map>
#include <vector>

#include "common/result.hpp"
#include "projection/plant.hpp"
#include "topo/topology.hpp"

namespace sdt::projection {

/// How one logical link was realized on the plant.
struct RealizedLink {
  int logicalLink = -1;  ///< index into Topology::links()
  bool interSwitch = false;
  /// §VII-A: realized through an on-demand optical circuit instead of fixed
  /// cabling; `physLink` then indexes Projection::opticalCircuits().
  bool optical = false;
  int physLink = -1;  ///< index into Plant::selfLinks / interLinks / circuits
};

class Projection {
 public:
  Projection() = default;
  Projection(int numLogicalSwitches, int numHosts)
      : portMap_(static_cast<std::size_t>(numLogicalSwitches)),
        physSwitchOf_(static_cast<std::size_t>(numLogicalSwitches), -1),
        hostPort_(static_cast<std::size_t>(numHosts)) {}

  /// Record that logical (sw, port) lives on physical `phys`.
  void mapPort(topo::SwitchPort logical, PhysPort phys);
  void setPhysSwitchOf(topo::SwitchId sw, int physSwitch) { physSwitchOf_[sw] = physSwitch; }
  void mapHost(topo::HostId host, PhysPort phys) { hostPort_[host] = phys; }
  void addRealizedLink(RealizedLink rl) { realized_.push_back(rl); }
  /// Repair: move realized link `realizedIdx` onto a different physical link
  /// of the same kind (remap the endpoint ports via mapPort separately).
  void rerealizeLink(int realizedIdx, int newPhysLink);
  /// Register an optical circuit (pair of flex ports); returns its index.
  int addOpticalCircuit(PhysLink circuit) {
    circuits_.push_back(circuit);
    return static_cast<int>(circuits_.size()) - 1;
  }

  /// Physical port realizing logical (sw, port); invalid PhysPort if unmapped.
  [[nodiscard]] PhysPort physOf(topo::SwitchPort logical) const;
  /// Logical (sw, port) at a physical port, if any.
  [[nodiscard]] std::optional<topo::SwitchPort> logicalAt(PhysPort phys) const;
  /// Physical switch hosting logical switch `sw`.
  [[nodiscard]] int physSwitchOf(topo::SwitchId sw) const { return physSwitchOf_[sw]; }
  /// Physical port cabled to logical host `h`.
  [[nodiscard]] PhysPort hostPortOf(topo::HostId h) const { return hostPort_[h]; }

  [[nodiscard]] int numLogicalSwitches() const { return static_cast<int>(portMap_.size()); }
  [[nodiscard]] int numHosts() const { return static_cast<int>(hostPort_.size()); }
  [[nodiscard]] const std::vector<RealizedLink>& realizedLinks() const { return realized_; }
  /// On-demand optical circuits this projection established (§VII-A).
  [[nodiscard]] const std::vector<PhysLink>& opticalCircuits() const { return circuits_; }

  /// Number of logical switches mapped onto physical switch `physSw`
  /// (the crossbar-sharing degree; drives the sim's overhead model).
  [[nodiscard]] int subSwitchCountOn(int physSw) const;

  /// Count of inter-switch realized links (the paper's E_a).
  [[nodiscard]] int interSwitchLinkCount() const;

  /// Consistency check against the topology and plant this projection was
  /// built from: every logical fabric port and host mapped, no physical
  /// port claimed twice, realized links join the right endpoints.
  [[nodiscard]] Status<Error> validate(const topo::Topology& topo, const Plant& plant) const;

 private:
  /// portMap_[sw][port] -> PhysPort (resized on demand).
  std::vector<std::vector<PhysPort>> portMap_;
  std::vector<int> physSwitchOf_;
  std::vector<PhysPort> hostPort_;
  std::vector<RealizedLink> realized_;
  std::vector<PhysLink> circuits_;
  std::map<PhysPort, topo::SwitchPort> reverse_;
};

}  // namespace sdt::projection
