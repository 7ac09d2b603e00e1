#include "projection/feasibility.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "topo/zoo.hpp"

namespace sdt::projection {

const char* methodName(TpMethod method) {
  switch (method) {
    case TpMethod::kSP: return "SP";
    case TpMethod::kSPOS: return "SP-OS";
    case TpMethod::kTurboNet: return "TurboNet";
    case TpMethod::kSDT: return "SDT";
  }
  return "?";
}

namespace {

/// Logical fabric ports available per physical switch at a given breakout.
int portsPerSwitch(TpMethod method, const PhysicalSwitchSpec& spec, int breakout) {
  const int base = spec.numPorts * breakout;
  return method == TpMethod::kTurboNet ? base / 2 : base;
}

Gbps speedAt(TpMethod method, const PhysicalSwitchSpec& spec, int breakout) {
  Gbps speed = spec.portSpeed / static_cast<double>(breakout);
  if (method == TpMethod::kTurboNet) speed = speed / 2.0;
  return speed;
}

/// Does the topology fit `numSwitches` switches of `perSwitch` logical ports?
///
/// Aggregate arithmetic, matching the paper's Table II accounting: every
/// logical link consumes exactly two fabric ports (a self-link uses two on
/// one switch, an inter-switch link one on each of two switches), so the
/// budget check is 2*links <= switches*ports. Per-switch balance and
/// inter-link reservations are enforced where they physically bind — in
/// LinkProjector/planPlant at deployment time.
bool fits(const topo::Topology& topo, int numSwitches, int perSwitch) {
  if (numSwitches > 1 && topo.numSwitches() == 1) return false;  // cannot split one switch
  return topo.totalFabricPorts() <= numSwitches * perSwitch;
}

}  // namespace

SpeedClass maxProjectableSpeed(TpMethod method, const topo::Topology& topo,
                               const HardwareBudget& budget, Gbps speedFloor) {
  SpeedClass best;
  best.reason = strFormat("needs %d fabric ports; budget exhausted at every breakout",
                          topo.totalFabricPorts());
  for (int breakout = 1; breakout <= budget.spec.maxBreakout; breakout *= 2) {
    const Gbps speed = speedAt(method, budget.spec, breakout);
    if (speedFloor.value > 0 && speed.value < speedFloor.value) break;  // deeper = slower
    if (fits(topo, budget.numSwitches, portsPerSwitch(method, budget.spec, breakout))) {
      best.feasible = true;
      best.linkSpeed = speed;
      best.breakout = breakout;
      best.reason.clear();
      return best;  // shallowest breakout = fastest links
    }
  }
  return best;
}

int countProjectableWans(TpMethod method, const HardwareBudget& budget) {
  int count = 0;
  for (int i = 0; i < topo::zooSize(); ++i) {
    const topo::Topology wan = topo::makeZooTopology(i);
    if (maxProjectableSpeed(method, wan, budget, Gbps{0.0}).feasible) ++count;
  }
  return count;
}

CostEstimate hardwareCost(TpMethod method, const HardwareBudget& budget) {
  CostEstimate est;
  est.hardwareUsd = budget.spec.costUsd * budget.numSwitches;
  switch (method) {
    case TpMethod::kSP:
      est.requirement = "OpenFlow switch";
      break;
    case TpMethod::kSPOS: {
      est.requirement = "OpenFlow switch + optical switch";
      // One OCS port per fabric switch port, at the MEMS $/port rate
      // (a 320-port unit is >$100k, §III-C).
      const OpticalSwitchSpec reference = mems320();
      const double perPort = reference.costUsd / reference.numPorts;
      est.hardwareUsd += perPort * budget.spec.numPorts * budget.numSwitches;
      break;
    }
    case TpMethod::kTurboNet:
      est.requirement = "P4 switch";
      break;
    case TpMethod::kSDT:
      est.requirement = "OpenFlow/P4 switch";
      break;
  }
  return est;
}

TimeNs reconfigTime(TpMethod method, int workItems) {
  switch (method) {
    case TpMethod::kSP:
      // Manual re-cabling: ~45 s per cable move including verification.
      return secToNs(45.0) * std::max(1, workItems);
    case TpMethod::kSPOS:
      // One batched MEMS circuit update regardless of cable count, plus a
      // small per-circuit programming cost.
      return mems320().reconfigLatency + usToNs(200.0) * std::max(0, workItems);
    case TpMethod::kTurboNet:
      // P4 recompile + binary reload dominates.
      return secToNs(30.0);
    case TpMethod::kSDT:
      // Barrier + batched flow-mod installation (~20 us/entry over the
      // control channel keeps the 100 ms - 1 s envelope of Table II for
      // table sizes up to tens of thousands of entries).
      return msToNs(80.0) + usToNs(20.0) * std::max(0, workItems);
  }
  return 0;
}

std::string reconfigRangeLabel(TpMethod method) {
  switch (method) {
    case TpMethod::kSP: return "more than 1 hour";
    case TpMethod::kSPOS: return "100ms~1s";
    case TpMethod::kTurboNet: return "10s~";
    case TpMethod::kSDT: return "100ms~1s";
  }
  return "?";
}

}  // namespace sdt::projection
