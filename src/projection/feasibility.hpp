// Scalability / cost / reconfiguration-time models for the four TP methods
// (paper Table II).
//
// For the DC-topology rows, Table II reports the highest link speed at which
// a topology can be projected on a given hardware budget, exploiting QSFP28
// breakout (100G -> 2x50G -> 4x25G). The capacity arithmetic per method:
//   SP / SP-OS / SDT : logical ports per switch = ports * breakout
//   TurboNet         : half the ports are loopback pairs  -> ports/2 * breakout
//                      and recirculation halves bandwidth -> speed/2
// A topology fits when its total fabric port demand fits the budget (and a
// multi-switch budget has more than one logical switch to split). This is
// aggregate arithmetic: per-switch balance and inter-link reservations bind
// at deployment time, in LinkProjector and planPlant.
//
// The paper's own Table II cannot be reproduced cell-for-cell from its stated
// port counts (see EXPERIMENTS.md); these models keep every *ordering* the
// paper reports: SDT >= SP = SP-OS >> TurboNet in scalability, SDT cheapest,
// SP slowest to reconfigure.
#pragma once

#include <optional>
#include <string>

#include "common/result.hpp"
#include "projection/plant.hpp"
#include "topo/topology.hpp"

namespace sdt::projection {

enum class TpMethod { kSP, kSPOS, kTurboNet, kSDT };

const char* methodName(TpMethod method);

/// Hardware available to one Table II column.
struct HardwareBudget {
  PhysicalSwitchSpec spec;
  int numSwitches = 3;  ///< the paper's cluster uses 3 switches
};

struct SpeedClass {
  bool feasible = false;
  Gbps linkSpeed{0.0};
  int breakout = 1;
  std::string reason;  ///< why infeasible, when !feasible
};

/// Highest projectable link speed for `topo` under `budget`, or infeasible.
/// Speeds below `speedFloor` count as infeasible (Table II's "x" cells stop
/// at 25G; pass Gbps{0} to disable the floor, e.g. for WAN counting).
SpeedClass maxProjectableSpeed(TpMethod method, const topo::Topology& topo,
                               const HardwareBudget& budget,
                               Gbps speedFloor = Gbps{25.0});

/// How many of the 261 synthetic Topology Zoo WANs the method can project
/// (any link speed). Reproduces Table II's bottom row.
int countProjectableWans(TpMethod method, const HardwareBudget& budget);

struct CostEstimate {
  double hardwareUsd = 0.0;
  std::string requirement;  ///< Table II "hardware requirement" row
};

/// Hardware cost of the budget under the method (SP-OS adds a right-sized
/// MEMS optical switch at ~$312/port, from the >$100k 320-port price point).
CostEstimate hardwareCost(TpMethod method, const HardwareBudget& budget);

/// Reconfiguration time. `workItems` is cable moves for SP/SP-OS and flow
/// entries for SDT (TurboNet's recompile dominates and ignores it).
TimeNs reconfigTime(TpMethod method, int workItems);

/// Human-readable typical range for the Table II row.
std::string reconfigRangeLabel(TpMethod method);

}  // namespace sdt::projection
