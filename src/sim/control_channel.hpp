// Unreliable controller<->switch control channel (the out-of-band management
// network carrying flow-mods, barriers, and their acks).
//
// Real SDT deployments run the OpenFlow channel over a shared management
// switch that is just as much commodity hardware as the data plane; the
// two-phase reconfiguration protocol must therefore survive dropped,
// duplicated, reordered, and delayed control messages, and switches whose
// management link goes away entirely for a while. This class injects exactly
// those impairments, deterministically:
//
//   - every send() draws a fixed number of values (4) from a dedicated
//     xoshiro stream regardless of configuration, so the same seed yields
//     the same impairment schedule no matter which probabilities are zero;
//   - deliveries are scheduled through the slot-arena Simulator and pinned
//     to shard 0 (the control plane is home-sharded: controller, channel,
//     and switch-agent callbacks all execute there), so runs are
//     bit-identical across repeats and serial-vs-parallel sweeps;
//   - disconnect windows are explicit [from, until) intervals per switch,
//     composable with a FaultInjector schedule (e.g. drop the management
//     link of the switch whose data ports are being reconfigured).
//
// Message semantics: send(sw, fn) runs `fn` "at the switch" after the
// channel delay, zero times (drop / disconnect), once, or twice (duplicate).
// The return path is just another send() — acks are as unreliable as
// requests. Receivers must be idempotent (the transaction layer dedups by
// transfer id, modeling OpenFlow xid matching).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace sdt::sim {

struct ControlChannelConfig {
  double dropProb = 0.0;     ///< message lost in flight
  double dupProb = 0.0;      ///< message delivered twice
  double reorderProb = 0.0;  ///< message held back past later sends
  TimeNs baseDelay = 2'000;  ///< one-way management-network latency
  TimeNs jitter = 1'000;     ///< uniform extra delay in [0, jitter)
  TimeNs reorderDelay = 10'000;  ///< extra hold-back for reordered messages
};

struct ControlChannelStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;       ///< random in-flight losses
  std::uint64_t disconnected = 0;  ///< eaten by a disconnect window
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  /// Delay accounting over every *scheduled* delivery (duplicate copies
  /// included, dropped/disconnected sends excluded): the observable latency
  /// profile of the management network.
  std::uint64_t delayNsTotal = 0;
  TimeNs delayMaxNs = 0;
};

class ControlChannel {
 public:
  ControlChannel(Simulator& sim, std::uint64_t seed,
                 ControlChannelConfig config = {})
      : sim_(&sim), config_(config), rng_(seed ^ 0xC7A22E15C0DE5ULL) {
    // Deliveries run controller handlers that mutate flow tables on
    // arbitrary shards; pin the engine to the serial merge loop.
    sim_->requireSerial();
  }

  [[nodiscard]] const ControlChannelConfig& config() const { return config_; }

  /// Declare the management link of `sw` dead for [from, until) sim-time.
  /// Messages *sent* inside the window (either direction) are silently
  /// eaten, modeling a TCP session that has not yet re-established.
  void disconnect(int sw, TimeNs from, TimeNs until) {
    windows_.push_back({sw, from, until});
  }
  [[nodiscard]] bool isDisconnected(int sw, TimeNs at) const {
    for (const Window& w : windows_) {
      if (w.sw == sw && at >= w.from && at < w.until) return true;
    }
    return false;
  }

  /// Ship `deliver` to/from switch `sw`. The callback runs at simulated
  /// delivery time — zero, one, or two times. Always draws exactly four RNG
  /// values so impairment schedules depend only on the seed and the send
  /// sequence, not on which probabilities happen to be zero.
  void send(int sw, std::function<void()> deliver) {
    ++stats_.sent;
    const double dropDraw = rng_.uniform();
    const double dupDraw = rng_.uniform();
    const double reorderDraw = rng_.uniform();
    const double jitterDraw = rng_.uniform();

    if (isDisconnected(sw, sim_->now())) {
      ++stats_.disconnected;
      return;
    }
    if (dropDraw < config_.dropProb) {
      ++stats_.dropped;
      return;
    }
    TimeNs delay = config_.baseDelay;
    if (config_.jitter > 0) {
      delay += static_cast<TimeNs>(jitterDraw * static_cast<double>(config_.jitter));
    }
    if (reorderDraw < config_.reorderProb) {
      ++stats_.reordered;
      delay += config_.reorderDelay;
    }
    if (dupDraw < config_.dupProb) {
      ++stats_.duplicated;
      recordDelay(delay + kDupSpacing);
      sim_->scheduleOn(0, delay + kDupSpacing, [this, deliver]() {
        ++stats_.delivered;
        deliver();
      });
    }
    recordDelay(delay);
    // Shard 0 is the control plane's home shard. Management traffic is
    // out-of-band (it never races data-plane shards), and reconfig/recovery
    // suites run the engine in serial mode, where the pin costs nothing but
    // keeps delivery order independent of the caller's shard.
    sim_->scheduleOn(0, delay, [this, deliver = std::move(deliver)]() {
      ++stats_.delivered;
      deliver();
    });
  }

  [[nodiscard]] const ControlChannelStats& stats() const { return stats_; }

 private:
  static constexpr TimeNs kDupSpacing = 1'500;  ///< second copy trails the first by this

  void recordDelay(TimeNs delay) {
    stats_.delayNsTotal += static_cast<std::uint64_t>(delay);
    if (delay > stats_.delayMaxNs) stats_.delayMaxNs = delay;
  }

  struct Window {
    int sw = -1;
    TimeNs from = 0;
    TimeNs until = 0;
  };

  Simulator* sim_;
  ControlChannelConfig config_;
  Rng rng_;
  std::vector<Window> windows_;
  ControlChannelStats stats_;
};

}  // namespace sdt::sim
