// Deterministic fault injection (the "chaos" half of the self-healing loop).
//
// SDT's claim is that a topology *change* is only a flow-table rewrite; this
// module injects the failures that force such rewrites: loopback-cable cuts
// (both peer ports die, paper footnote 2 — the §IV self-link fibers are the
// most numerous and therefore most failure-prone cables in the plant),
// physical-port failures, whole-switch reboots (a power cycle of a commodity
// OpenFlow switch wipes its flow table), silently wedged transceivers
// (tx counters freeze while backlog builds), and probabilistic frame
// drop/corruption on a port.
//
// Every fault is a typed event scheduled through the slot-arena engine, so a
// run with a fault schedule stays bit-identical across repeats and across
// serial vs. SweepRunner-parallel sweeps (tests/test_faults.cpp holds us to
// that). Probabilistic impairment draws come from the Network's dedicated
// fault RNG, seeded here, consumed in event order. Impairments of the
// controller<->switch management network are sim::ControlChannel's job.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "openflow/of_switch.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace sdt::sim {

enum class FaultKind : std::uint8_t {
  kPortDown,     ///< one physical port dies (frames black-hole)
  kPortUp,       ///< the port comes back
  kCableCut,     ///< cut the cable at (sw, port): both peer ports go down
  kCableRestore, ///< re-seat the cable: both peer ports come back
  kSwitchReboot, ///< full power cycle: table, ingress epoch, xid cache, stats
  kPortStall,    ///< transceiver wedges: tx freezes, backlog builds
  kPortUnstall,  ///< the wedge clears
  kImpair,       ///< probabilistic frame drop/corruption at the port
};

/// One scheduled fault. `sw`/`port` address the *physical* (sim) switch.
struct FaultSpec {
  TimeNs at = 0;
  FaultKind kind = FaultKind::kPortDown;
  int sw = -1;
  int port = -1;           ///< unused for kSwitchReboot
  double dropProb = 0.0;   ///< kImpair only
  double corruptProb = 0.0;///< kImpair only
};

/// Trace record of one fault as it was applied (peer resolved, time stamped).
struct AppliedFault {
  TimeNs at = 0;
  FaultKind kind = FaultKind::kPortDown;
  int sw = -1;
  int port = -1;
  int peerSw = -1;    ///< cable faults: the far end that was also taken down
  int peerPort = -1;

  bool operator==(const AppliedFault&) const = default;
};

class FaultInjector {
 public:
  /// `seed` drives the network's impairment draws. The injector must outlive
  /// arm()'d schedules' execution.
  FaultInjector(Simulator& sim, Network& net, std::uint64_t seed = 0x5D7C0FFEEULL);

  /// Give the injector the controller-programmed switch models so
  /// kSwitchReboot can power-cycle the right one (index == sim switch id).
  void attachSwitches(std::vector<std::shared_ptr<openflow::Switch>> switches) {
    ofSwitches_ = std::move(switches);
  }

  // -- Schedule builders ----------------------------------------------------
  void schedule(FaultSpec spec) { schedule_.push_back(spec); }
  void cutCable(TimeNs at, int sw, int port) {
    schedule({at, FaultKind::kCableCut, sw, port});
  }
  void restoreCable(TimeNs at, int sw, int port) {
    schedule({at, FaultKind::kCableRestore, sw, port});
  }
  void downPort(TimeNs at, int sw, int port) {
    schedule({at, FaultKind::kPortDown, sw, port});
  }
  /// A reboot wipes the flow table and also clears the ingress-epoch config
  /// and xid cache — the state crash recovery must read back and repopulate.
  void rebootSwitch(TimeNs at, int sw) {
    schedule({at, FaultKind::kSwitchReboot, sw, -1});
  }
  void stallPort(TimeNs at, int sw, int port) {
    schedule({at, FaultKind::kPortStall, sw, port});
  }
  void unstallPort(TimeNs at, int sw, int port) {
    schedule({at, FaultKind::kPortUnstall, sw, port});
  }
  void impairPort(TimeNs at, int sw, int port, double dropProb, double corruptProb = 0.0) {
    schedule({at, FaultKind::kImpair, sw, port, dropProb, corruptProb});
  }

  /// Install the schedule into the simulator (call before Simulator::run();
  /// faults scheduled in the past of sim.now() are rejected by the engine).
  /// May be called again after adding more faults; each spec arms once.
  void arm();

  /// Apply one fault immediately (records it in the trace at sim.now()).
  void apply(const FaultSpec& spec);

  /// Every fault applied so far, in application order. Two runs with the
  /// same seed and schedule must produce identical traces.
  [[nodiscard]] const std::vector<AppliedFault>& trace() const { return trace_; }

 private:
  Simulator* sim_;
  Network* net_;
  std::vector<std::shared_ptr<openflow::Switch>> ofSwitches_;
  std::vector<FaultSpec> schedule_;
  std::size_t armed_ = 0;  ///< schedule_ prefix already handed to the engine
  std::vector<AppliedFault> trace_;
};

}  // namespace sdt::sim
