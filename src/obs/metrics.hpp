// Metrics registry: the measurement substrate of the observability layer.
//
// The paper's Network Monitor (§V-3) is the controller's management-plane
// module; this registry is where everything it (and every other subsystem)
// observes lands: monotonic counters, gauges and bounded time series,
// grouped into labeled families. Design constraints, in order:
//
//   1. Deterministic export. A metrics dump is part of the experiment
//      record (BENCH_*.json), so two runs of the same seed — serial or
//      through a multi-threaded SweepRunner — must export byte-identical
//      text. Families and instruments are therefore kept in sorted maps
//      (export order is (family name, label set), never creation order) and
//      every timestamp is *simulated* time: wall clocks never enter the
//      registry.
//   2. No dependencies. Only the standard library and common/units.hpp, so
//      any layer (openflow, sim, controller, bench) can feed a registry
//      without creating a cycle.
//   3. Thread-safe. SweepRunner points normally own a private registry each
//      (that is what makes exports reproducible), but nothing breaks if two
//      threads share one: instrument values are atomics, structural
//      mutation (family/instrument creation, collector registration) takes
//      a mutex, and returned instrument references stay valid for the
//      registry's lifetime (instruments are never destroyed or moved).
//
// Hot paths stay hot: the intended pattern for per-packet quantities is a
// *collector* — a pull hook registered once that copies existing cheap
// counters (sim::PortCounters, ControlChannelStats, FlowTable totals) into
// the registry only when a snapshot is exported. Push-style inc()/record()
// is for control-plane-rate events (retries, queue-depth samples).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace sdt::obs {

/// Label set of one instrument, e.g. {{"sw", "3"}, {"op", "add"}}. Order of
/// construction does not matter; the registry canonicalizes by key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter (events since the registry was created).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  /// Collector-style sync from an external cumulative total: the counter
  /// adopts `total` if it is larger (keeps the reading monotonic even if the
  /// source resets, e.g. a switch reboot wiping its stats).
  void syncTo(std::uint64_t total) {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (total > cur &&
           !value_.compare_exchange_weak(cur, total, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time measurement (queue depth, table occupancy).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bounded time series: a ring buffer of (simulated time, value) samples.
/// The NetworkMonitor feeds one per watched port with queue-depth samples;
/// when full, the oldest sample is overwritten and `dropped()` counts it,
/// so export size is bounded no matter how long the run.
class RingSeries {
 public:
  explicit RingSeries(std::size_t capacity);

  void record(TimeNs at, double value);
  /// Samples oldest -> newest (at most `capacity` of them).
  [[nodiscard]] std::vector<std::pair<TimeNs, double>> samples() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<std::pair<TimeNs, double>> ring_;
  std::uint64_t recorded_ = 0;
};

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kSeries };

const char* instrumentKindName(InstrumentKind kind);

/// One family of same-named instruments distinguished by labels. Exporters
/// walk families via Registry::visit(); users never construct these.
struct Family {
  InstrumentKind kind = InstrumentKind::kCounter;
  std::string help;
  std::size_t seriesCapacity = 0;  ///< series families only

  struct Cell {
    Labels labels;  ///< canonical (key-sorted)
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<RingSeries> series;
  };
  /// Keyed by the canonical label string ("k1=v1,k2=v2"), so iteration
  /// order is a pure function of the label sets, not of creation order.
  std::map<std::string, Cell> cells;
};

/// Canonical label string used as the intra-family sort key.
std::string labelKey(const Labels& labels);

class Registry {
 public:
  /// Default per-family cell cap (see setCellLimitPerFamily): generous
  /// enough for every shipped collector (ports x counters on the largest
  /// topologies), small enough that a runaway label set cannot OOM a soak.
  static constexpr std::size_t kDefaultCellLimit = 4096;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. The returned reference lives as long as the registry.
  /// Re-requesting an existing (name, labels) pair returns the same
  /// instrument; requesting an existing name with a different kind throws
  /// std::logic_error (families are homogeneous).
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  RingSeries& series(const std::string& name, std::size_t capacity,
                     const Labels& labels = {}, const std::string& help = "");

  /// Register a pull hook that refreshes registry values from an external
  /// stats surface (port counters, channel stats, flow-table totals). All
  /// hooks run, in registration order, at the start of every collect().
  void addCollector(std::function<void()> collector);

  /// Run the collectors. Exporters call this before reading.
  void collect() const;

  /// Visit every family in name order (cells inside are label-key ordered).
  /// Runs under the registry mutex: do not create instruments from `fn`.
  void visit(const std::function<void(const std::string& name, const Family&)>& fn) const;

  // -- Memory bounding (long-soak safety) -----------------------------------
  /// Cap the number of label cells one family may hold. Once a family is
  /// full, get-or-create calls with *new* label sets all resolve to a single
  /// shared overflow cell (labels {{"overflow","true"}}) instead of growing
  /// the map — a million distinct flow ids cannot OOM the registry; existing
  /// cells keep resolving normally. The overflow cell rides on top of the
  /// cap, and overflowCells() counts how many distinct label sets were
  /// folded into it. Applies per family; takes effect for future creations.
  void setCellLimitPerFamily(std::size_t limit);
  [[nodiscard]] std::size_t cellLimitPerFamily() const;
  /// Distinct new label sets that were routed to an overflow cell.
  [[nodiscard]] std::uint64_t overflowCells() const;
  /// Total label cells across all families.
  [[nodiscard]] std::size_t cellCount() const;
  /// Rough resident footprint of the registry's metric storage (names,
  /// labels, ring capacity) — the quantity the soak footprint test
  /// asserts stays bounded. Estimation, not accounting: containers' exact
  /// overheads are implementation-defined.
  [[nodiscard]] std::size_t approxBytes() const;

 private:
  Family::Cell& cell(const std::string& name, InstrumentKind kind,
                     const Labels& labels, const std::string& help,
                     std::size_t seriesCapacity);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::vector<std::function<void()>> collectors_;
  std::size_t cellLimit_ = kDefaultCellLimit;
  std::uint64_t overflowCells_ = 0;
};

}  // namespace sdt::obs
