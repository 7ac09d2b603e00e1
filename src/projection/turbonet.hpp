// TurboNet baseline (Cao et al., ToN 2022; paper §III-C, §VI-C).
//
// TurboNet emulates topologies on P4 (Tofino) switches by looping packets
// through dedicated *loopback ports*: each emulated internal link consumes a
// physical port pair, and traffic that traverses it crosses the port twice
// (once out, once back in), halving the usable bandwidth. Reconfiguration
// requires recompiling and reloading the P4 program (tens of seconds+).
//
// We model a TurboNet deployment as an SDT-style plant in which half of each
// switch's ports are reserved as loopback pairs (the self-link pool) at half
// the nominal bandwidth; external connectivity (hosts, inter-switch cables)
// uses the other half. Paper §VI-A compares only against TurboNet's Port
// Mapper (PM); the Queue Mapper (QM) variant lacks queues for DC use and is
// exposed here only in the cost model.
#pragma once

#include "common/result.hpp"
#include "projection/projection.hpp"

namespace sdt::projection {

struct TurboNetOptions {
  int hostPortsPerSwitch = 11;
  int interLinksPerPair = 8;
};

struct TurboNetResult {
  Projection projection;
  Plant plant;
  /// Usable bandwidth per emulated link after loopback halving.
  Gbps effectiveLinkSpeed{0.0};
};

class TurboNetProjector {
 public:
  static Result<TurboNetResult> project(const topo::Topology& topo,
                                        const PhysicalSwitchSpec& spec, int numSwitches,
                                        const TurboNetOptions& options = {});
};

}  // namespace sdt::projection
