// Overload-robust admission control: per-host credits fed by switch queue
// depths, utility-weighted priority classes, and SLO-aware load shedding.
//
// The SDT plant faithfully reproduces a fabric's behavior *below* saturation;
// past it, an open-loop workload (incast, flash crowd) simply piles bytes
// into lossy queues until goodput collapses — DCQCN alone cannot save an
// open-loop source that keeps injecting new flows. This layer is the missing
// edge brake (ROADMAP item 4): a backpressure signal derived from switch
// egress occupancy throttles each host's *injection* of new flows, so that
// offered load beyond capacity is absorbed as deferred/shed flows at the
// edge instead of as queue collapse in the core.
//
// Mechanism, end to end:
//   1. Per-shard samplers read the egress occupancy of the switches their
//      shard owns every kSampleInterval and reduce it to a fill fraction
//      (max queue bytes / kQueueHighWatermarkBytes).
//   2. Samples flow to a broker homed on shard 0, which folds them into one
//      global *pressure* value (max over shards) and broadcasts it back —
//      both legs travel as lookahead-padded events, so the signal path is
//      exactly as deterministic as the data plane.
//   3. Each host owns a credit bucket refilled at
//      lineRate x rateFraction(pressure): full rate while the fabric is
//      calm, throttled linearly toward kCreditRateFractionFloor as
//      pressure approaches 1.0. A flow of B bytes at priority class c
//      charges B / utilityWeight(c) credits — higher-utility classes buy
//      more bytes per credit (utility-based admission, Kreutz et al. §V).
//   4. Above a per-class pressure threshold the class is shed outright
//      (SLO-aware: bronze gives up long before gold), and a flow that
//      cannot afford its charge is deferred for the caller to retry.
//
// Shard-safety/determinism contract: request() must be called from the
// source host's owning shard (workload drivers already run flow starts
// there); every piece of mutable state — buckets, per-shard pressure copy,
// decision counters — is touched only from its owning shard's event
// context, so serial and K-worker parallel runs of the same K are
// bit-identical. Merged statistics are computed at read time.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace sdt::admission {

/// Priority classes, highest utility first. Values index kClasses.
enum class Priority : std::uint8_t { kGold = 0, kSilver = 1, kBronze = 2 };
inline constexpr int kNumPriorities = 3;

const char* priorityName(Priority cls);

[[nodiscard]] constexpr int priorityIndex(Priority cls) {
  return static_cast<int>(cls);
}

/// One priority class's admission parameters.
struct ClassPolicy {
  /// Credits charged for a flow = bytes / utilityWeight: a weight-4 class
  /// buys 4x the bytes per credit of a weight-1 class.
  double utilityWeight;
  /// Completion-latency SLO for the class (workload drivers score against
  /// it; admission sheds to protect it).
  TimeNs sloNs;
  /// Shed (reject outright) flows of this class once global pressure
  /// reaches this level. > 1.0 effectively disables shedding for the class.
  double shedAtPressure;
};

/// The class table, indexed by priorityIndex(): gold = latency-critical RPC
/// (never shed until far past saturation), silver = normal serving traffic,
/// bronze = batch/background (first against the wall).
inline constexpr std::array<ClassPolicy, kNumPriorities> kClasses{{
    {4.0, msToNs(2.0), 1.5},
    {2.0, msToNs(10.0), 0.9},
    {1.0, msToNs(50.0), 0.6},
}};
/// Suggested retry spacing for deferred flows (drivers own the retry loop).
inline constexpr TimeNs kDeferDelay = usToNs(50.0);
/// Defers before a driver should give up and count the flow shed.
inline constexpr int kMaxDefers = 4;

struct Policy {
  /// Master switch: disabled => every request admits (the baseline arm of
  /// bench_overload).
  bool enabled = true;
};

enum class Decision : std::uint8_t { kAdmit = 0, kDefer = 1, kShed = 2 };

class AdmissionController {
 public:
  /// The network must already be wired and partitioned (builder does both).
  AdmissionController(sim::Simulator& sim, sim::Network& net, Policy policy = {});

  /// Restrict the pressure samplers to these (switch, egress port) pairs
  /// (multi-tenant scoping: a per-tenant controller watches only the queues
  /// its slice's traffic can fill, so one tenant's storm cannot throttle a
  /// neighbor's credits). Empty (the default) samples every port of every
  /// switch. Call before start().
  void restrictToPorts(std::vector<std::pair<int, int>> ports) {
    watchPorts_ = std::move(ports);
  }

  /// Arm the per-shard pressure samplers; they self-stop once the next
  /// sample would land past `until`. Call before Simulator::run().
  void start(TimeNs until);

  /// Ask to inject a flow of `bytes` at priority `cls` from `srcHost`.
  /// Must run in the source host's shard context (assert-checked).
  Decision request(int srcHost, Priority cls, std::int64_t bytes);

  /// Pressure as seen by the current shard (workloads/tests introspection).
  [[nodiscard]] double pressure() const;

  // -- Merged statistics (read post-run or from a serial context) -----------
  struct ClassCounters {
    std::uint64_t requested = 0;
    std::uint64_t admitted = 0;
    std::uint64_t deferred = 0;
    std::uint64_t shed = 0;
    std::int64_t admittedBytes = 0;
    std::int64_t shedBytes = 0;
  };
  [[nodiscard]] ClassCounters classCounters(Priority cls) const;
  /// Queue samples taken across all shards.
  [[nodiscard]] std::uint64_t samplesTaken() const;
  /// Highest global pressure the broker ever computed.
  [[nodiscard]] double peakPressure() const { return peakPressure_; }

 private:
  /// Mutable state owned by one shard; alignment keeps parallel shard
  /// threads off each other's cache lines.
  struct alignas(64) ShardLane {
    double pressure = 0.0;  ///< latest broadcast global pressure
    std::array<ClassCounters, kNumPriorities> counters{};
    std::uint64_t samples = 0;
  };

  struct HostBucket {
    double credits = 0.0;
    TimeNs settledAt = 0;
  };

  [[nodiscard]] double rateFraction(double pressure) const;
  void settle(HostBucket& bucket, double pressure, int host);
  void sampleShard(int shard, TimeNs until);
  void brokerUpdate(int shard, double fill);  ///< runs on shard 0

  sim::Simulator* sim_;
  sim::Network* net_;
  bool enabled_;
  /// Non-empty: the only (switch, port) queues the samplers read.
  std::vector<std::pair<int, int>> watchPorts_;
  std::vector<ShardLane> lanes_;          ///< one per shard
  std::vector<HostBucket> buckets_;       ///< one per host (owner-shard access)
  std::vector<double> brokerShardFill_;   ///< broker state: shard 0 only
  double smoothedPressure_ = 0.0;         ///< broker state: shard 0 only
  double peakPressure_ = 0.0;             ///< broker state: shard 0 only
};

}  // namespace sdt::admission
