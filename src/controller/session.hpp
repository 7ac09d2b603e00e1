// One protocol run's request/reply rounds with the switches over the lossy
// sim::ControlChannel: the only way the live protocols (ReconfigTransaction,
// RecoveryRun) reach a switch. A round sends one request per switch and is
// done when each switch has answered or given up. The protocol says what a
// request does at the switch and what its reply means; the session owns the
// rest — the attempt timeout, capped exponential backoff on each switch's
// seeded jitter stream, the attempt cap, retry counts (also exported as
// sdt_controller_retry_attempts_total{op, phase}), a generation fence that
// voids the timers of earlier rounds, and the run's "<op>" root span with
// its "<op>.<phase>" children, all in simulated time. xid dedup and leader
// fencing happen at the switch (openflow::Switch::acceptXid / admitTerm),
// inside the protocol's request handlers.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/control_channel.hpp"
#include "sim/simulator.hpp"

namespace sdt::controller {

class SwitchSession {
 public:
  static constexpr TimeNs kAttemptTimeout = usToNs(100.0);  ///< reply wait
  static constexpr TimeNs kBaseBackoff = usToNs(50.0);  ///< before attempt 2
  static constexpr TimeNs kMaxBackoff = msToNs(5.0);    ///< cap on any wait
  static constexpr double kJitter = 0.5;  ///< wait x uniform[1 - kJitter, 1]
  /// Attempt cap of rounds that must not give up early (flip, gc, rollback,
  /// recovery): a backstop for a channel that never delivers.
  static constexpr int kBackstopAttempts = 1000;
  static constexpr std::uint64_t kDefaultSeed = 0xBACC0FFULL;

  /// Runs at the controller when a reply arrives.
  using Reply = std::function<void()>;
  /// Runs at the switch on every delivered copy of a request; returns the
  /// reply to send back, or an empty Reply when the switch refuses it.
  using Request = std::function<Reply()>;

  struct Config {
    const char* op = "";  ///< root span name and metric `op` label
    std::uint64_t seed = kDefaultSeed;
    std::uint64_t salt = 0;  ///< keeps protocols' jitter streams apart
    obs::Tracer* tracer = nullptr;     ///< optional
    obs::Registry* metrics = nullptr;  ///< optional
    std::function<Request(int sw)> request;  ///< current round's, per attempt
    /// `sw` used up the round's `attempts` without completing it.
    std::function<void(int sw, int attempts)> exhausted;
  };
  using Attrs = std::initializer_list<std::pair<const char*, std::string>>;

  /// The simulator and channel must outlive the session, and the session
  /// the simulation it runs in.
  SwitchSession(sim::Simulator& sim, sim::ControlChannel& channel,
                int numSwitches, Config config);
  SwitchSession(const SwitchSession&) = delete;
  SwitchSession& operator=(const SwitchSession&) = delete;

  /// Open the root span now, annotated with `attrs` (no-op without tracer).
  void open(Attrs attrs);
  /// Close the open phase span and open "<op>.<name>".
  void phase(const char* name);
  /// End the run: void every timer, close both spans, annotate the root
  /// with the outcome, `attrs`, the retry total and a non-empty `failure`.
  void close(const char* outcome, Attrs attrs, const std::string& failure);
  [[nodiscard]] bool closed() const { return closed_; }

  /// Void the previous round's timers and mark every switch not done.
  /// `label` is the round's `phase` label in the retry counter.
  void beginRound(const char* label, int maxAttempts = kBackstopAttempts);
  void send(int sw) { attempt(sw, 1); }
  /// Mark `sw` done with the round; returns how many switches are done.
  int complete(int sw);
  [[nodiscard]] bool done(int sw) const { return done_[index(sw)] != 0; }

  /// For reply handlers to tell a stale round's reply from a current one.
  [[nodiscard]] std::uint64_t generation() const { return gen_; }
  [[nodiscard]] bool current(std::uint64_t gen) const { return !closed_ && gen == gen_; }

  [[nodiscard]] int retries() const { return retriesTotal_; }
  [[nodiscard]] int retries(int sw) const { return retries_[index(sw)]; }

  /// Switch `sw`'s jitter stream in a session seeded (seed, salt).
  [[nodiscard]] static Rng jitterStream(std::uint64_t seed, std::uint64_t salt, int sw);
  /// Wait after failed attempt `attempt` (1-based): kBaseBackoff doubled per
  /// earlier attempt, times one jitter draw, capped at kMaxBackoff.
  [[nodiscard]] static TimeNs backoff(int attempt, Rng& jitter);

 private:
  static std::size_t index(int sw) { return static_cast<std::size_t>(sw); }
  void attempt(int sw, int n);
  void onTimeout(int sw, int n, std::uint64_t gen);

  sim::Simulator* sim_;
  sim::ControlChannel* channel_;
  Config config_;
  const char* label_ = "";
  int maxAttempts_ = kBackstopAttempts;
  std::uint64_t gen_ = 0;
  bool closed_ = false;
  std::vector<char> done_;
  int doneCount_ = 0;
  std::vector<Rng> jitter_;
  std::vector<int> retries_;
  int retriesTotal_ = 0;
  obs::SpanId spanRun_ = obs::kNoSpan;
  obs::SpanId spanPhase_ = obs::kNoSpan;
};

}  // namespace sdt::controller
