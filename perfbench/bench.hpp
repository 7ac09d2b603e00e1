// Shared types of the repository benchmark: wall-clock spans and the
// workload interface.
//
// Spans reuse obs::Tracer, fed with steady_clock nanoseconds since process
// start instead of simulated time. They wrap the benchmark's own calls into
// each library layer; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Wall-clock nanoseconds since the first call (process start in practice).
inline std::int64_t wallNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin)
      .count();
}

/// Times one call. With a tracer it also records the call as a span; without
/// one it only measures, which is how the untraced ops take their timings.
class Scope {
 public:
  Scope(sdt::obs::Tracer* tracer, const std::string& name,
        sdt::obs::SpanId parent = sdt::obs::kNoSpan)
      : tracer_(tracer), start_(wallNs()) {
    if (tracer_ != nullptr) id_ = tracer_->begin(name, start_, parent);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { stop(); }

  /// Close the span (idempotent); returns its duration in seconds.
  double stop() {
    if (end_ < 0) {
      end_ = wallNs();
      if (tracer_ != nullptr) tracer_->end(id_, end_);
    }
    return static_cast<double>(end_ - start_) * 1e-9;
  }
  [[nodiscard]] sdt::obs::SpanId id() const { return id_; }

 private:
  sdt::obs::Tracer* tracer_;
  sdt::obs::SpanId id_ = sdt::obs::kNoSpan;
  std::int64_t start_;
  std::int64_t end_ = -1;
};

/// What one op produced. Times are wall-clock seconds; simNs is simulated.
struct OpResult {
  double setupSeconds = -1.0;  ///< < 0: the op set nothing up (reroute)
  double opSeconds = 0.0;      ///< the whole op: set-up + run, or plan + commit
  double engineSeconds = 0.0;  ///< inside Simulator::run
  double simNs = 0.0;          ///< simulated ns that engine run advanced
  bool rolledBack = false;     ///< reroute only: the transaction aborted
  /// Outputs every repeat of this op must reproduce exactly.
  std::vector<std::pair<std::string, std::int64_t>> fingerprint;
  std::string error;  ///< an output check that failed inside the op
  /// Per-layer readings; filled by traced ops only.
  std::map<std::string, double> layers;
};

/// One benchmark workload: a closed loop of ops, each finished before the
/// next starts.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Distinct ops in a round; op `i` must reproduce reference op
  /// `i % roundOps()`.
  [[nodiscard]] virtual int roundOps() const { return 1; }
  /// Untimed, checked ops after the reference round.
  [[nodiscard]] virtual int warmupOps() const { return 1; }
  [[nodiscard]] virtual int shards() const { return 1; }
  [[nodiscard]] virtual int workers() const { return 1; }
  /// Set-up times taken outside the ops (workloads whose ops reuse one
  /// fabric set it up several times at construction).
  [[nodiscard]] virtual std::vector<double> setupSamples() const { return {}; }
  /// Run op `index`. `reference` marks the first round, whose outputs every
  /// later op must reproduce. `tracer` is non-null on traced ops, which also
  /// fill OpResult::layers.
  virtual OpResult op(int index, bool reference, sdt::obs::Tracer* tracer) = 0;
};

/// The workload names, in the order the smoke test runs them.
const std::vector<std::string>& workloadNames();
/// nullptr for an unknown name. `traceRun` selects the engine geometry of a
/// --trace 1 run where it differs (alltoall-df-k2).
std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed,
                                       bool traceRun);

}  // namespace perfbench
