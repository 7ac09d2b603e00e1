// Link Projection (LP) — the SDT algorithm (paper §IV).
//
// Given a logical topology and a plant whose cabling is fixed, LP:
//  1. partitions the logical switch graph into one sub-topology per physical
//     switch (§IV-C, METIS-style objective: small cut, balanced port load),
//  2. realizes every intra-part logical link on a physical *self-link* of
//     that switch and every cross-part link on a reserved *inter-switch
//     link* of the right switch pair (§IV-B, Eq. 1-2),
//  3. pins every logical host to a host-cabled port of the physical switch
//     carrying its logical switch, and
//  4. derives the sub-switch port groups that the flow tables will isolate.
//
// Nothing here moves a cable: a failed projection returns an error telling
// the user which link class is short and by how much (the controller's
// "checking function", §V-1).
#pragma once

#include "common/result.hpp"
#include "projection/projection.hpp"

namespace sdt::projection {

class LinkProjector {
 public:
  /// Project `topo` onto `plant`. Tries the smallest number of physical
  /// switches first (fewer inter-switch links), growing until it fits.
  static Result<Projection> project(const topo::Topology& topo, const Plant& plant);

  /// Project with a caller-chosen part assignment (logical switch -> plant
  /// switch). Exposed for tests and for the SP family, which shares the
  /// link-realization machinery.
  static Result<Projection> projectWithAssignment(const topo::Topology& topo,
                                                  const Plant& plant,
                                                  const std::vector<int>& assignment);
};

}  // namespace sdt::projection
