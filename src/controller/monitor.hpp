// Network Monitor module (paper §V-3): periodic telemetry off the switches.
//
// The controller "periodically collects statistics data in each port of
// OpenFlow switches through provided API"; the collected load feeds adaptive
// routing (§VI-E). Here the monitor samples the simulator's egress queues
// (equivalent to reading port tx counters + queue depth via OpenFlow stats)
// on a fixed period and keeps an EWMA per (logical switch, logical port).
//
// The monitor is projection-aware: in SDT mode it translates logical ports
// to the physical ports it actually polls; in full-testbed mode the mapping
// is the identity.
//
// Failure detection (the second control-plane duty, enableFailureDetection):
// each sample also checks every polled fabric port for two failure
// signatures —
//   1. the port reports down (loss-of-signal after a cable cut), or
//   2. its tx counters froze while backlog sits in the egress queue (a
//      silently wedged transceiver).
// A port showing either signature becomes *suspect*; if the signature
// persists for `detectionTimeout` of simulated time it is *detected* and a
// PortFailure record (with both timestamps) is emitted. The timeout
// debounces transients: a long PFC pause also freezes tx over backlog, so
// detection must outlast the longest legitimate pause. Detected ports feed
// SdtController::repair() via failedPorts().
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "projection/projection.hpp"
#include "routing/adaptive.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace sdt::controller {

/// One detected port failure, in the plane the monitor polls (physical for
/// SDT mode, logical for full-testbed mode).
struct PortFailure {
  int sw = -1;
  int port = -1;
  bool reportedDown = false;  ///< signature 1 (vs. counter stall, signature 2)
  TimeNs suspectedAt = 0;     ///< first sample showing the signature
  TimeNs detectedAt = 0;      ///< sample that outlasted the detection timeout
  /// Deployment epoch in force at *detection* time (0 when no provider is
  /// set). Consumers that react asynchronously — a repair scheduled behind a
  /// reconfiguration — must compare this against the current epoch and drop
  /// stale reports: the failure was diagnosed against a configuration that
  /// no longer exists, and its port may not even carry a link anymore.
  std::uint32_t epoch = 0;
  /// SDT mode: the logical switch port mapped onto the failed physical port.
  std::optional<topo::SwitchPort> logicalPort;
};

class NetworkMonitor {
 public:
  /// Full-testbed mode: logical switch/port == sim switch/port.
  NetworkMonitor(sim::Simulator& sim, sim::Network& net, const topo::Topology& topo);
  /// SDT mode: poll through the projection's port map.
  NetworkMonitor(sim::Simulator& sim, sim::Network& net, const topo::Topology& topo,
                 const projection::Projection& projection);

  /// Start periodic sampling (call before Simulator::run()).
  void start(TimeNs period = usToNs(20.0));

  /// Stop sampling. Already-queued sample events no-op (epoch-guarded), so a
  /// stopped monitor takes zero further samples and a later start() cannot
  /// double-chain.
  void stop() {
    running_ = false;
    ++epoch_;
  }

  /// Arm failure detection (before or after start()). `detectionTimeout` is
  /// how long a failure signature must persist before the port is declared
  /// failed; worst-case detection latency is timeout + 2 sample periods.
  void enableFailureDetection(TimeNs detectionTimeout);

  /// Failures detected so far, in detection order.
  [[nodiscard]] const std::vector<PortFailure>& portFailures() const { return failures_; }
  /// The failed ports as the projection plane's PhysPort set (repair input).
  [[nodiscard]] std::vector<projection::PhysPort> failedPorts() const;
  /// Notification hook, fired once per port at detection time.
  void onPortFailure(std::function<void(const PortFailure&)> callback) {
    failureCallback_ = std::move(callback);
  }
  /// Source of the deployment epoch stamped into each PortFailure. Reading
  /// it at detection time (not at callback-consumption time) closes the
  /// guard-window race: a failure detected under epoch N but acted on after
  /// a flip to N+1 carries N, so the consumer can tell the report is stale.
  void setEpochProvider(std::function<std::uint32_t()> provider) {
    epochProvider_ = std::move(provider);
  }
  /// Suppress failure detection for every watched port of polled-plane
  /// switch `sw` while a reconfiguration transaction is open on it: bulk
  /// flow-mods and ingress-epoch flips make tx counters stall over backlog
  /// in exactly the pattern the wedged-transceiver detector looks for.
  /// Guarded ports are skipped *and* their suspicion state is reset, so a
  /// signature that started before the guard cannot fire right after it
  /// lifts (unguard also reseeds the tx baseline from the live counters).
  /// Guards nest (one per open transaction touching the switch).
  void guardSwitch(int sw);
  void unguardSwitch(int sw);
  [[nodiscard]] bool guarded(int sw) const {
    const auto it = guards_.find(sw);
    return it != guards_.end() && it->second > 0;
  }

  /// EWMA of queued bytes at logical (switch, port). An out-of-range
  /// (sw, port) returns 0.0 — a defensible answer for a congestion oracle —
  /// but is *diagnosed*: counted in oobQueries() (and the attached
  /// registry's sdt_monitor_oob_queries_total) and warned on first
  /// occurrence, instead of being silently indistinguishable from an idle
  /// port.
  [[nodiscard]] double load(topo::SwitchId sw, topo::PortId port) const;

  /// Congestion oracle for routing::AdaptiveDragonflyRouting.
  [[nodiscard]] routing::CongestionOracle oracle() const;

  [[nodiscard]] std::uint64_t samplesTaken() const { return samples_; }

  /// Out-of-range load()/oracle() queries observed (each one is a caller
  /// bug: a stale switch id or a port beyond the radix).
  [[nodiscard]] std::uint64_t oobQueries() const { return oobQueries_; }

  /// Feed an obs registry: per-port queue-depth EWMA ring series
  /// (sdt_monitor_queue_depth_bytes{sw,port}, one sample per poll, the last
  /// 64 kept), plus sdt_monitor_samples_total and
  /// sdt_monitor_oob_queries_total synced at collect() time. The registry
  /// must outlive the monitor's sampling (both normally live in the same
  /// experiment scope).
  void attachMetrics(obs::Registry& registry);

 private:
  /// Per-watched-port failure bookkeeping (keyed by polled-plane (sw,port)).
  struct Watch {
    std::uint64_t lastTxPackets = 0;
    TimeNs suspectedAt = -1;   ///< -1: healthy
    bool suspectedDown = false;
    bool reported = false;
  };

  void sample(std::uint64_t epoch);
  void poll(topo::SwitchId sw, topo::PortId port);
  void checkFailures();

  sim::Simulator* sim_;
  sim::Network* net_;
  const topo::Topology* topo_;
  const projection::Projection* projection_;  ///< nullptr in full-testbed mode
  TimeNs period_ = 0;
  std::vector<std::vector<double>> ewma_;  ///< [sw][port]
  /// Mirrors ewma_ when metrics are attached (nullptr per cell otherwise):
  /// resolved once at attach time so poll() never pays a registry lookup.
  std::vector<std::vector<obs::RingSeries*>> series_;
  std::uint64_t samples_ = 0;
  mutable std::uint64_t oobQueries_ = 0;
  mutable bool oobWarned_ = false;
  bool running_ = false;
  std::uint64_t epoch_ = 0;  ///< bumped by start()/stop(); stale events no-op

  bool detectFailures_ = false;
  TimeNs detectionTimeout_ = 0;
  std::map<int, int> guards_;  ///< polled-plane sw -> open-transaction count
  std::map<std::pair<int, int>, Watch> watches_;  ///< polled-plane (sw, port)
  std::vector<PortFailure> failures_;
  std::function<void(const PortFailure&)> failureCallback_;
  std::function<std::uint32_t()> epochProvider_;
};

}  // namespace sdt::controller
