#include "controller/monitor.hpp"

#include <algorithm>
#include <string>

#include "common/log.hpp"

namespace sdt::controller {

namespace {

/// Weight of each new queue sample in the per-port load EWMA.
constexpr double kEwmaGain = 0.3;
/// Samples each per-port queue-depth series keeps (newest win).
constexpr std::size_t kSeriesCapacity = 64;

}  // namespace

NetworkMonitor::NetworkMonitor(sim::Simulator& sim, sim::Network& net,
                               const topo::Topology& topo)
    : sim_(&sim), net_(&net), topo_(&topo), projection_(nullptr) {
  ewma_.resize(static_cast<std::size_t>(topo.numSwitches()));
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    ewma_[sw].assign(static_cast<std::size_t>(topo.radix(sw)), 0.0);
  }
}

NetworkMonitor::NetworkMonitor(sim::Simulator& sim, sim::Network& net,
                               const topo::Topology& topo,
                               const projection::Projection& projection)
    : NetworkMonitor(sim, net, topo) {
  projection_ = &projection;
}

void NetworkMonitor::start(TimeNs period) {
  period_ = period;
  running_ = true;
  ++epoch_;
  sim_->schedule(period_, [this, e = epoch_]() { sample(e); });
}

void NetworkMonitor::enableFailureDetection(TimeNs detectionTimeout) {
  detectFailures_ = true;
  detectionTimeout_ = detectionTimeout;
  // Build the watch set over the polled plane: the physical fabric ports
  // carrying projected links in SDT mode, every logical fabric port in
  // full-testbed mode. Watch construction seeds lastTxPackets from the live
  // counters so pre-existing traffic is not mistaken for progress.
  for (topo::SwitchId sw = 0; sw < topo_->numSwitches(); ++sw) {
    for (topo::PortId p = 0; p < static_cast<int>(ewma_[sw].size()); ++p) {
      int physSw = sw;
      int physPort = p;
      if (projection_ != nullptr) {
        const projection::PhysPort pp = projection_->physOf(topo::SwitchPort{sw, p});
        if (!pp.valid()) continue;  // host-facing logical port
        physSw = pp.sw;
        physPort = pp.port;
      }
      Watch& w = watches_[{physSw, physPort}];  // dedupe: one watch per phys port
      w.lastTxPackets = net_->switchPortCounters(physSw, physPort).txPackets;
    }
  }
}

void NetworkMonitor::poll(topo::SwitchId sw, topo::PortId port) {
  std::int64_t bytes;
  if (projection_ != nullptr) {
    const projection::PhysPort pp = projection_->physOf(topo::SwitchPort{sw, port});
    if (!pp.valid()) return;  // host-facing logical port: not a fabric queue
    bytes = net_->switchEgressBytes(pp.sw, pp.port);
  } else {
    bytes = net_->switchEgressBytes(sw, port);
  }
  ewma_[sw][port] =
      (1.0 - kEwmaGain) * ewma_[sw][port] + kEwmaGain * static_cast<double>(bytes);
  if (!series_.empty() && series_[sw][port] != nullptr) {
    series_[sw][port]->record(sim_->now(), ewma_[sw][port]);
  }
}

void NetworkMonitor::attachMetrics(obs::Registry& registry) {
  series_.resize(ewma_.size());
  for (std::size_t sw = 0; sw < ewma_.size(); ++sw) {
    series_[sw].assign(ewma_[sw].size(), nullptr);
    for (std::size_t p = 0; p < ewma_[sw].size(); ++p) {
      series_[sw][p] = &registry.series(
          "sdt_monitor_queue_depth_bytes", kSeriesCapacity,
          {{"sw", std::to_string(sw)}, {"port", std::to_string(p)}},
          "Per-port egress queue depth EWMA sampled by the Network Monitor");
    }
  }
  registry.addCollector([this, &registry]() {
    registry
        .counter("sdt_monitor_samples_total", {},
                 "Telemetry sampling rounds completed")
        .syncTo(samples_);
    registry
        .counter("sdt_monitor_oob_queries_total", {},
                 "Out-of-range load()/oracle() queries (caller bugs)")
        .syncTo(oobQueries_);
  });
}

void NetworkMonitor::checkFailures() {
  const TimeNs now = sim_->now();
  for (auto& [key, w] : watches_) {
    if (w.reported) continue;
    const auto [sw, port] = key;
    if (guarded(sw)) {
      // Open reconfiguration transaction: whatever this port looks like
      // right now is the transaction's doing, not a fault. Reset suspicion
      // so the guard window never counts toward the detection timeout.
      w.suspectedAt = -1;
      w.lastTxPackets = net_->switchPortCounters(sw, port).txPackets;
      continue;
    }
    const std::uint64_t tx = net_->switchPortCounters(sw, port).txPackets;
    const bool down = !net_->isPortUp(sw, port);
    // Counter stall: tx frozen across the sample while backlog waits. A PFC
    // pause shows the same signature, which is what the timeout debounces.
    const bool stalled = !down && tx == w.lastTxPackets &&
                         net_->switchEgressBytes(sw, port) > 0;
    w.lastTxPackets = tx;
    if (!down && !stalled) {
      w.suspectedAt = -1;  // signature cleared (pause lifted, port recovered)
      continue;
    }
    if (w.suspectedAt < 0) {
      w.suspectedAt = now;
      w.suspectedDown = down;
      if (detectionTimeout_ > 0) continue;  // zero timeout: detect immediately
    }
    if (now - w.suspectedAt < detectionTimeout_) continue;

    PortFailure failure;
    failure.sw = sw;
    failure.port = port;
    failure.reportedDown = w.suspectedDown || down;
    failure.suspectedAt = w.suspectedAt;
    failure.detectedAt = now;
    if (epochProvider_) failure.epoch = epochProvider_();
    if (projection_ != nullptr) {
      failure.logicalPort = projection_->logicalAt(projection::PhysPort{sw, port});
    }
    w.reported = true;
    failures_.push_back(failure);
    if (failureCallback_) failureCallback_(failures_.back());
  }
}

void NetworkMonitor::sample(std::uint64_t epoch) {
  if (!running_ || epoch != epoch_) return;  // stopped or superseded by restart
  ++samples_;
  for (topo::SwitchId sw = 0; sw < topo_->numSwitches(); ++sw) {
    for (topo::PortId p = 0; p < static_cast<int>(ewma_[sw].size()); ++p) {
      poll(sw, p);
    }
  }
  if (detectFailures_) checkFailures();
  sim_->schedule(period_, [this, e = epoch_]() { sample(e); });
}

std::vector<projection::PhysPort> NetworkMonitor::failedPorts() const {
  std::vector<projection::PhysPort> ports;
  ports.reserve(failures_.size());
  for (const PortFailure& f : failures_) {
    ports.push_back(projection::PhysPort{f.sw, f.port});
  }
  return ports;
}

void NetworkMonitor::guardSwitch(int sw) { ++guards_[sw]; }

void NetworkMonitor::unguardSwitch(int sw) {
  const auto it = guards_.find(sw);
  if (it == guards_.end() || it->second == 0) return;
  if (--it->second > 0) return;
  // Last guard lifted: reseed the tx baseline so counter movement during
  // the transaction is not misread as a fresh stall signature.
  for (auto& [key, w] : watches_) {
    if (key.first != sw) continue;
    w.suspectedAt = -1;
    w.lastTxPackets = net_->switchPortCounters(key.first, key.second).txPackets;
  }
}

double NetworkMonitor::load(topo::SwitchId sw, topo::PortId port) const {
  // Full bounds check: the old port-only check made load(99, 0) on a
  // 6-switch fabric undefined behavior (ewma_[99]), and load(0, 99) an
  // indistinguishable silent 0.0.
  if (sw < 0 || sw >= static_cast<int>(ewma_.size()) || port < 0 ||
      port >= static_cast<int>(ewma_[sw].size())) {
    ++oobQueries_;
    if (!oobWarned_) {
      oobWarned_ = true;
      SDT_WARN << "monitor: out-of-range load query (sw=" << sw << " port="
               << port << "); returning 0 and counting further ones in "
                  "sdt_monitor_oob_queries_total";
    }
    return 0.0;
  }
  return ewma_[sw][port];
}

routing::CongestionOracle NetworkMonitor::oracle() const {
  return [this](topo::SwitchId sw, topo::PortId port) { return load(sw, port); };
}

}  // namespace sdt::controller
