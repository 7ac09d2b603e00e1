// Switch Projection (SP) and SP-OS baselines (paper §III-B, §III-C).
//
// SP divides each physical switch into sub-switches first (blocks of ports
// matching each logical switch's radix) and then *cables* the corresponding
// ports by hand. Reconfiguring means re-plugging every fabric cable, which
// is what SDT eliminates. SP-OS routes every fabric port through a MEMS
// optical circuit switch so the re-plugging becomes a circuit update.
//
// Both produce the same Projection object as SDT; the difference is the
// deliverable next to it: a CablePlan (SP: for human hands; SP-OS: for the
// optical switch) and very different cost/reconfiguration models.
#pragma once

#include "common/result.hpp"
#include "projection/projection.hpp"

namespace sdt::projection {

/// The cables a technician (SP) or the optical switch (SP-OS) must realize.
struct CablePlan {
  std::vector<PhysLink> cables;

  /// How many cables differ from `previous` (moves needed on reconfig).
  [[nodiscard]] int movesFrom(const CablePlan& previous) const;
};

struct SpResult {
  Projection projection;
  Plant plant;      ///< plant with exactly the cables this topology needs
  CablePlan cables; ///< fabric cables (self + inter), the manual work
};

class SwitchProjector {
 public:
  /// Project `topo` onto `numSwitches` switches of `spec`, generating the
  /// cable plan. Fails when port counts cannot fit the topology.
  static Result<SpResult> project(const topo::Topology& topo,
                                  const PhysicalSwitchSpec& spec, int numSwitches);

  /// SP-OS capacity check: every fabric port must reach the optical switch,
  /// so the OCS needs one port per projected fabric port.
  static Status<Error> checkOpticalCapacity(const SpResult& result,
                                            const OpticalSwitchSpec& optical);
};

}  // namespace sdt::projection
