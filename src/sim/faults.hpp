// Deterministic fault injection (the "chaos" half of the self-healing loop).
//
// SDT's claim is that a topology *change* is only a flow-table rewrite; this
// module injects the failures that force such rewrites: loopback-cable cuts
// (both peer ports die, paper footnote 2 — the §IV self-link fibers are the
// most numerous and therefore most failure-prone cables in the plant),
// physical-port failures, whole-switch crashes (flow-table wipe, as after a
// power-cycle of a commodity OpenFlow switch), silently wedged transceivers
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
#include <functional>
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
  kSwitchCrash,  ///< physical switch loses its flow table (power cycle)
  kSwitchReboot, ///< full power cycle: table, ingress epoch, xid cache, stats
  kPortStall,    ///< transceiver wedges: tx freezes, backlog builds
  kPortUnstall,  ///< the wedge clears
  kImpair,       ///< probabilistic frame drop/corruption at the port
  // kOverload family: traffic-side chaos. These faults do not touch the
  // plant; they drive the workload layer through the overload sink (see
  // setOverloadSink), multiplying flow arrival rates so the fault-soak
  // machinery can storm the fabric the same way it cuts its cables.
  kOverloadStorm,  ///< offered load multiplies by `intensity` (fabric-wide
                   ///< when srcHost < 0, rogue-tenant when srcHost >= 0)
  kOverloadEnd,    ///< the storm ends: rates return to nominal
};

const char* faultKindName(FaultKind kind);

/// One scheduled fault. `sw`/`port` address the *physical* (sim) switch.
struct FaultSpec {
  TimeNs at = 0;
  FaultKind kind = FaultKind::kPortDown;
  int sw = -1;
  int port = -1;           ///< unused for kSwitchCrash
  double dropProb = 0.0;   ///< kImpair only
  double corruptProb = 0.0;///< kImpair only
  double intensity = 1.0;  ///< kOverloadStorm: offered-load multiplier
  int srcHost = -1;        ///< kOverload*: rogue tenant host (-1 = everyone)
};

/// Trace record of one fault as it was applied (peer resolved, time stamped).
struct AppliedFault {
  TimeNs at = 0;
  FaultKind kind = FaultKind::kPortDown;
  int sw = -1;
  int port = -1;
  int peerSw = -1;    ///< cable faults: the far end that was also taken down
  int peerPort = -1;
  double intensity = 1.0;  ///< kOverloadStorm: applied load multiplier
  int srcHost = -1;        ///< kOverload*: rogue tenant (-1 = fabric-wide)

  bool operator==(const AppliedFault&) const = default;
};

class FaultInjector {
 public:
  /// `seed` drives the network's impairment draws. The injector must outlive
  /// arm()'d schedules' execution.
  FaultInjector(Simulator& sim, Network& net, std::uint64_t seed = 0x5D7C0FFEEULL);

  /// Give the injector the controller-programmed switch models so
  /// kSwitchCrash can wipe the right flow table (index == sim switch id).
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
  void upPort(TimeNs at, int sw, int port) {
    schedule({at, FaultKind::kPortUp, sw, port});
  }
  void crashSwitch(TimeNs at, int sw) { schedule({at, FaultKind::kSwitchCrash, sw, -1}); }
  /// Unlike kSwitchCrash (table wipe only, the PR-2 repair scenario), a
  /// reboot also clears the ingress-epoch config and xid cache — the state
  /// crash recovery must read back and repopulate.
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
  // -- Overload chaos (workload-side; delivered through the overload sink) --
  /// Fabric-wide traffic storm: every source multiplies its arrival rate by
  /// `intensity` until a matching kOverloadEnd fires.
  void trafficStorm(TimeNs at, double intensity) {
    FaultSpec spec{at, FaultKind::kOverloadStorm};
    spec.intensity = intensity;
    schedule(spec);
  }
  /// Flash crowd: a storm that ends by itself after `duration`.
  void flashCrowd(TimeNs at, TimeNs duration, double intensity) {
    trafficStorm(at, intensity);
    schedule({at + duration, FaultKind::kOverloadEnd});
  }
  /// One tenant (host) goes rogue for `duration`, multiplying only its own
  /// injection rate.
  void rogueTenant(TimeNs at, TimeNs duration, int srcHost, double intensity) {
    FaultSpec storm{at, FaultKind::kOverloadStorm};
    storm.intensity = intensity;
    storm.srcHost = srcHost;
    schedule(storm);
    FaultSpec end{at + duration, FaultKind::kOverloadEnd};
    end.srcHost = srcHost;
    schedule(end);
  }

  /// Receiver for kOverload* faults (typically a workload driver's rate
  /// scaler). Overload events fire on shard 0, where the serving-workload
  /// generators live; sinks must only touch shard-0-owned state.
  void setOverloadSink(std::function<void(const FaultSpec&)> sink) {
    overloadSink_ = std::move(sink);
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
  std::function<void(const FaultSpec&)> overloadSink_;
};

/// True for fault kinds that mutate plant state possibly owned by another
/// shard (cable peers, crash tables): arming any of these pins the engine
/// serial. kOverload* events only drive shard-0 workload generators, so an
/// overload-only schedule keeps worker threads alive.
[[nodiscard]] constexpr bool faultKindNeedsSerial(FaultKind kind) {
  return kind != FaultKind::kOverloadStorm && kind != FaultKind::kOverloadEnd;
}

}  // namespace sdt::sim
