// Transactional (two-phase, Reitblatt-style) live reconfiguration over an
// unreliable control channel.
//
// This module changes the topology *under live traffic* while preserving
// per-packet consistency: every packet is forwarded end-to-end by exactly
// one configuration epoch's rules. The protocol, driven entirely by
// simulator events so it interleaves with data-plane traffic:
//
//   prepare   SdtController::planUpdate() compiled epoch-N+1 tables and ran
//             every cleanly-abortable check (capacity for both versions,
//             host-port stability, deadlock freedom). Nothing installed yet.
//   install   Each switch receives its epoch-N+1 bundle over the control
//             channel. The new rules sit alongside the live epoch-N set but
//             are unreachable: ingress still stamps N, and the flow-table
//             epoch gate hides N+1 rules from N-stamped packets.
//   barrier   An OpenFlow barrier request/ack round per switch confirms the
//             bundle is processed. Install and barrier rounds retry with
//             bounded backoff; exhausting the budget on any switch aborts
//             the transaction and rolls back (bulk-delete of epoch N+1 on
//             every switch) — safe at any moment before the first flip,
//             because no packet has ever been stamped N+1.
//   flip      The commit point. Each switch atomically starts stamping
//             ingress packets with N+1 — on the ingress the plan's Scope
//             owns: the whole switch for tenant 0, only a slice's host
//             ports for a tenant. Flips retry (effectively) unbounded:
//             past this point rollback would strand in-flight N+1 packets,
//             so the protocol only moves forward. Mixed flip states are
//             safe — both rule sets are installed everywhere.
//   drain     A grace period for in-flight epoch-N packets to leave the
//             fabric (the consistency checker flags a too-short drain as
//             kMidPathMiss).
//   gc        Bulk-delete epoch N on every switch (one flow-mod each).
//             Forward-only like flip: there is no rollback from a committed
//             state, so gc retries to the session's attempt backstop. Only
//             if that backstop trips does the transaction finish committed
//             with gcIncomplete set for the garbage-bearing switch.
//
// Every round runs through a SwitchSession (controller/session.hpp), which
// owns timeouts, backoff, attempt caps, retry counts and spans; this class
// holds only what a round sends, what the switch applies, and what an ack
// means. Requests and acks both traverse the ControlChannel, so either can
// be dropped, duplicated, reordered, or delayed. Table-changing bundles
// carry an OpenFlow xid that the switch applies at most once
// (openflow::Switch::acceptXid), and barriers and flips are idempotent, so
// duplicates and retries of an already-applied request are harmless. Every
// round messages only the plan's scope.switches().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "controller/controller.hpp"
#include "controller/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/control_channel.hpp"
#include "sim/simulator.hpp"

namespace sdt::controller {

class NetworkMonitor;
class Journal;
enum class JournalRecordKind : std::uint8_t;

enum class ReconfigPhase : std::uint8_t {
  kPrepare,
  kInstall,
  kBarrier,
  kFlip,
  kDrain,
  kGc,
  kDone,
};

const char* reconfigPhaseName(ReconfigPhase phase);

/// Controller crash injection (crash recovery tests, controller/recovery.hpp).
/// The transaction dies the instant it reaches the chosen point: no further
/// sends, no acks processed, no monitor unguard, no done callback — exactly
/// what a SIGKILL'd controller process leaves behind. In-flight control
/// messages keep traveling (the switches are alive; only the controller's
/// side of every TCP session is gone) but land on the fence and are ignored.
enum class CrashPoint : std::uint8_t {
  kNone,        ///< never crash
  kPrepare,     ///< after journaling the prepare record, before any install
  kMidInstall,  ///< after the first install ack (some switches have N+1 rules)
  kPreFlip,     ///< barrier done, before the flip marker is journaled or sent
  kPostFlip,    ///< after the first flip ack (commit point crossed, mixed stamps)
  kMidGc,       ///< after the first gc ack (some switches still carry epoch N)
};

const char* crashPointName(CrashPoint point);

struct ReconfigOptions {
  struct Retry {
    /// Per-switch attempt budget of the abortable rounds (install, barrier).
    /// Flip, gc and rollback must not give up, so they run to the session's
    /// backstop (SwitchSession::kBackstopAttempts); reaching it is reported
    /// as unverified state.
    int maxAttempts = 4;
    /// Seed of the per-switch backoff jitter streams.
    std::uint64_t seed = SwitchSession::kDefaultSeed;
  };
  Retry retry;
  /// When set, the monitor suppresses failure detection for every switch
  /// for the duration of the transaction (reconfiguration makes counters
  /// stall and queues wobble in ways that mimic the failure signatures).
  NetworkMonitor* monitor = nullptr;
  /// Write-ahead intent journal. When set, the transaction appends phase
  /// markers (prepare / flip / gc / commit / abort) *before* the action they
  /// announce, so a crashed controller's successor can decide roll-forward
  /// vs. roll-back from durable state alone. Append failures are non-fatal:
  /// a full journal disk must not wedge the live fabric.
  Journal* journal = nullptr;
  /// Replicated-controller HA (controller/ha.hpp): the issuing leader's
  /// term. Every mutating bundle (install/barrier/flip/gc/rollback) is
  /// fenced by openflow::Switch::admitTerm — a switch that has admitted a
  /// newer-term leader drops the bundle without applying or acking, so a
  /// deposed leader's round stalls instead of corrupting state. 0 = legacy
  /// single-controller mode (never fenced, never raises the fence).
  std::uint64_t term = 0;
  /// The issuing replica's id, the fence's tie-breaker: two leaders that
  /// claim the same term (both missed the other's claim heartbeat) resolve
  /// toward the lower id on every switch. -1 = no identity (term-only).
  int leaderId = -1;
  /// Crash injection: die at this point (see CrashPoint). kNone in production.
  CrashPoint crashAt = CrashPoint::kNone;
  /// Called at the instant of an injected crash (after the fence is up),
  /// e.g. for a test to record the crash time or stop traffic.
  std::function<void()> onCrash;
  /// Observability (both optional, both must outlive the transaction): the
  /// tracer gets a "reconfigure" root span with one child span per phase
  /// actually entered (install/barrier/flip/drain/gc — or rollback), all in
  /// simulated time; the registry gets per-phase
  /// sdt_controller_retry_attempts_total counters.
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

/// Per-switch protocol outcome (index == physical switch id).
struct SwitchTxState {
  bool installAcked = false;
  bool barrierAcked = false;
  bool flipAcked = false;
  bool gcAcked = false;        ///< epoch-N delete (commit) acked
  bool rollbackAcked = false;  ///< epoch-N+1 delete (abort) acked
  int retries = 0;             ///< send attempts beyond the first, all phases
};

struct ReconfigReport {
  bool committed = false;
  bool rolledBack = false;
  /// Farthest phase the transaction entered (kDone only when committed and
  /// garbage collection finished everywhere).
  ReconfigPhase phaseReached = ReconfigPhase::kPrepare;
  std::uint32_t fromEpoch = 0;
  std::uint32_t toEpoch = 0;

  // Flow-mod accounting (switch-side effects, deduplicated).
  int flowModsInstalled = 0;         ///< epoch-N+1 adds applied
  int flowModsRolledBack = 0;        ///< entries removed by abort bulk-deletes
  int flowModsGarbageCollected = 0;  ///< epoch-N entries removed after commit
  int barrierRoundTrips = 0;         ///< barrier request->ack rounds completed
  int retriesTotal = 0;              ///< resends beyond first attempts, all rounds

  TimeNs startedAt = 0;
  TimeNs updateWindowEnd = 0;  ///< all flips acked (committed transactions)
  TimeNs finishedAt = 0;
  /// Install start -> last flip ack: how long both rule versions coexisted
  /// before the new configuration owned all ingress stamping.
  [[nodiscard]] TimeNs updateWindow() const { return updateWindowEnd - startedAt; }
  /// Abort decision -> rollback done (aborted transactions only).
  TimeNs rollbackLatency = 0;

  /// Post-transaction audit: every switch holds rules of exactly one epoch
  /// (the new one when committed, the old one when rolled back) and stamps
  /// that epoch at ingress. False means an unreachable switch kept garbage.
  bool pureStateVerified = false;
  bool gcIncomplete = false;  ///< committed, but some epoch-N rules survive

  std::vector<SwitchTxState> switches;
  std::string failure;  ///< abort cause (empty when committed)

  [[nodiscard]] json::Value toJson() const;
};

/// One in-flight transactional reconfiguration. The deployment, channel,
/// and simulator must outlive the transaction; the transaction must outlive
/// the simulation run it is started into (it owns per-switch protocol state
/// that in-flight control messages reference).
class ReconfigTransaction {
 public:
  using DoneFn = std::function<void(const ReconfigReport&)>;

  /// `deployment` is mutated on commit (projection, epoch, entry totals) and
  /// left untouched on rollback. `plan` must come from planUpdate() against
  /// this same deployment.
  ReconfigTransaction(sim::Simulator& sim, sim::ControlChannel& channel,
                      Deployment& deployment, UpdatePlan plan,
                      ReconfigOptions options = {}, DoneFn done = nullptr);

  /// Kick off the install phase (schedules simulator events; the protocol
  /// then runs concurrently with whatever traffic the simulation carries).
  void start();

  [[nodiscard]] bool finished() const { return session_.closed(); }
  /// True when an injected CrashPoint fired: the transaction is dead but
  /// *unresolved* — finished() is also true (nothing will run again), yet
  /// neither committed nor rolledBack is set and done was never called.
  /// The fabric is in whatever mixed state the crash left; recovery's job.
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] const ReconfigReport& report() const { return report_; }

 private:
  enum class Round : std::uint8_t { kInstall, kBarrier, kFlip, kGc, kRollback };

  /// Grace period between the last flip ack and garbage collection, for
  /// in-flight old-epoch packets to drain out of the fabric.
  static constexpr TimeNs kDrainDelay = msToNs(1.0);

  /// How many switches the transaction touches (plan_.scope's). Every phase
  /// barrier counts acks against this set only.
  [[nodiscard]] int scopeSize() const {
    return static_cast<int>(plan_.scope.switches().size());
  }
  /// Start `round` on every scoped switch.
  void beginRound(Round round);
  /// The session's request for `sw` in the current round.
  SwitchSession::Request request(int sw);
  /// Returns false when the switch's term fence rejected the bundle (the
  /// delivered request is dropped on the floor: no apply, no ack).
  bool applyAtSwitch(int sw, Round round);
  void onAck(int sw, Round round);
  void onExhausted(int sw, int attempts);
  void advancePhase();
  void abort(ReconfigPhase at, const std::string& why);
  void beginGc();
  void finish();
  /// Append a phase marker to options_.journal (no-op without one).
  void journalMark(JournalRecordKind kind);
  /// Fire the injected crash if `point` is the configured one. Returns true
  /// when the controller just died (caller must stop immediately).
  bool maybeCrash(CrashPoint point);
  /// Stamp the report (finish time, ack flags, retry counts) and close the
  /// session with `outcome`.
  void closeReport(const char* outcome);
  [[nodiscard]] bool* ackedFlag(int sw, Round round);
  /// The round's name: its retry-counter phase label and abort wording.
  [[nodiscard]] static const char* roundName(Round round) {
    constexpr const char* kNames[] = {"install", "barrier", "flip", "gc", "rollback"};
    return kNames[static_cast<int>(round)];
  }

  sim::Simulator* sim_;
  Deployment* deployment_;
  UpdatePlan plan_;
  ReconfigOptions options_;
  DoneFn done_;
  SwitchSession session_;

  Round currentRound_ = Round::kInstall;
  bool aborting_ = false;
  bool crashed_ = false;  ///< injected crash fence (see crashed())
  bool stuck_ = false;  ///< some forward-only round exhausted its backstop
  TimeNs abortAt_ = 0;
  ReconfigReport report_;
  std::vector<SwitchTxState> acked_;  ///< controller-side ack bookkeeping
  /// Switch-side: the abort's delete already ran here, so a late install
  /// request must not resurrect the new epoch's rules.
  std::vector<char> rolledBack_;
};

}  // namespace sdt::controller
