// Replicated controller HA: one leader, N standbys, fenced failover.
//
// Every robustness layer so far still funnels through one controller
// process; this module removes that single point of failure with three
// mechanisms, all running on *simulated* time over the same lossy
// sim::ControlChannel machinery the data-plane protocols already survive:
//
//   lease + term   The leader holds a sim-time lease renewed by periodic
//                  heartbeats to every standby. When a standby's view of the
//                  lease expires, it becomes a candidate and — after a
//                  priority stagger (rank x kElectionStagger, so the highest-
//                  priority live standby moves first and everyone else hears
//                  its claim heartbeat before their own timer fires) —
//                  claims leadership under term = (highest term seen) + 1.
//                  Terms only grow; they are the fencing tokens. Two
//                  candidates that both miss the other's claim heartbeat can
//                  claim the SAME term — that tie resolves deterministically
//                  toward the lower replica id, on both sides of the fence:
//                  a leader that hears an equal-term heartbeat from a lower
//                  id steps down, and every switch fences an equal-term
//                  bundle from a higher id (admitTerm tracks (term, leader)).
//
//   fencing        Every flow-mod/barrier bundle and every recovery readback
//                  carries the issuing leader's term (ReconfigOptions::term /
//                  RecoveryOptions::term, modeled on the OpenFlow role-request
//                  generation_id). openflow::Switch::admitTerm() tracks the
//                  highest admitted term and refuses anything older — no
//                  apply, no ack — so a deposed leader that has not yet heard
//                  of its successor (split brain: alive but partitioned from
//                  the standbys) sees its rounds stall while its writes are
//                  counted in Switch::fencedWrites(), never installed.
//
//   journal        The PR-4 write-ahead journal is the replication
//   streaming     substrate: the leader's Journal append-observer streams
//                  every durably-written record to each standby over the
//                  replication channel (ack-window flow control, cumulative
//                  acks piggy-backed on heartbeat replies). A standby that
//                  detects a sequence gap — a dropped frame, or a torn tail
//                  it dropped on rescan — requests snapshot catch-up: the
//                  leader ships its whole storage image, the standby swaps
//                  it in via MemoryJournalStorage::replaceAll and resumes
//                  the stream.
//
// Failover is crash recovery with a bigger term: the new leader folds its
// *replica* journal with planRecovery (roll an in-flight transaction forward
// iff its flip marker replicated, roll back otherwise, reinstall when
// quiescent) and drives a RecoveryRun stamped with the new term, which both
// converges the fabric and raises the fence on every switch. Monitor
// callbacks re-arm to the new leader: a PortFailure that fires inside the
// takeover window is buffered and delivered exactly once after convergence,
// with its detection-time epoch intact.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "controller/controller.hpp"
#include "controller/journal.hpp"
#include "controller/recovery.hpp"
#include "sim/control_channel.hpp"
#include "sim/simulator.hpp"

namespace sdt::controller {

class NetworkMonitor;
struct PortFailure;

/// Journal streaming flow control: max frames past the last cumulative ack
/// before the leader queues instead of sending.
inline constexpr int kAckWindow = 16;
/// Leader-side bound on frames queued behind a stalled ack window (a standby
/// that is partitioned but not declared dead). On overflow the whole backlog
/// is dropped and the standby repairs the resulting gap via snapshot
/// catch-up, which tolerates arbitrary loss.
inline constexpr int kSendQueueCap = 1024;
static_assert(kAckWindow >= 1 && kSendQueueCap >= kAckWindow);

struct HaConfig {
  /// Leader lease: a standby whose last heartbeat is older than this starts
  /// an election. Takeover latency is bounded by ~1.5x this (expiry is
  /// noticed by a check running every leaseInterval/2) plus the stagger.
  TimeNs leaseInterval = msToNs(2.0);
  /// Heartbeat cadence; must be well under leaseInterval so a few dropped
  /// heartbeats do not read as a dead leader.
  TimeNs heartbeatPeriod = usToNs(400.0);
  /// Backoff jitter seed of the failover RecoveryRun (RecoveryOptions).
  std::uint64_t retrySeed = SwitchSession::kDefaultSeed;
  /// Recompile knobs handed to planRecovery on takeover.
  DeployOptions deploy;
};

/// Introspection snapshot of one replica (sdtctl serve `status`, tests).
struct ReplicaStatus {
  int id = -1;
  bool alive = false;
  bool isLeader = false;
  std::uint64_t term = 0;            ///< highest term this replica has seen
  std::uint64_t lastAppliedSeq = 0;  ///< replica journal's stream position
  std::uint64_t framesReceived = 0;
  std::uint64_t framesOutOfOrder = 0;
  std::uint64_t gapCatchups = 0;     ///< snapshot catch-ups requested
  std::uint64_t snapshotsInstalled = 0;
  std::size_t sendQueueDepth = 0;    ///< leader-side frames queued toward us
  std::uint64_t queueOverflows = 0;  ///< backlogs dropped at kSendQueueCap
};

/// One completed (or failed) takeover.
struct FailoverReport {
  bool converged = false;
  int newLeader = -1;
  std::uint64_t fromTerm = 0;
  std::uint64_t toTerm = 0;
  TimeNs leaseExpiredAt = 0;     ///< when the old leader's lease ran out
  TimeNs takeoverStartedAt = 0;  ///< when the standby claimed the term
  TimeNs convergedAt = 0;        ///< failover recovery finished
  /// Lease expiry -> fabric converged under the new term.
  [[nodiscard]] TimeNs takeoverWindow() const {
    return convergedAt - leaseExpiredAt;
  }
  int pendingFailuresDelivered = 0;  ///< monitor events buffered in the window
  RecoveryReport recovery;           ///< the folded-replica recovery's report
  std::string failure;               ///< planning error (converged == false)
};

class ReplicatedController {
 public:
  /// `ctl` supplies the plant for recovery recompiles; `fabric` is the
  /// leader<->switch OpenFlow channel; `replication` is the replica<->replica
  /// channel (endpoint id == replica id; disconnect windows model
  /// partitions). Replica 0 starts as leader at term 1; lower id = higher
  /// election priority. All pointees must outlive this object. Destroying
  /// the controller while HA timer/stream events are still queued on the
  /// simulator is safe (each scheduled callback holds a liveness token and
  /// no-ops after destruction) — but a failover RecoveryRun still in flight
  /// follows RecoveryRun's own rule: the controller, which owns it, must
  /// outlive the simulation window that run executes in.
  ReplicatedController(sim::Simulator& sim, SdtController& ctl,
                       sim::ControlChannel& fabric,
                       sim::ControlChannel& replication, int numReplicas,
                       HaConfig config = {});
  ~ReplicatedController();

  ReplicatedController(const ReplicatedController&) = delete;
  ReplicatedController& operator=(const ReplicatedController&) = delete;

  /// Intent-name -> object map for takeover recompiles (same contract as
  /// planRecovery's catalog).
  void setCatalog(IntentCatalog catalog) { catalog_ = std::move(catalog); }

  /// Attach the fabric monitor: the HA layer owns its onPortFailure slot and
  /// epoch provider from here on. Failures route to the handler below;
  /// during a takeover window they are buffered and delivered (exactly once
  /// each) right after the new leader converges.
  void setMonitor(NetworkMonitor* monitor);
  /// Where routed PortFailures land ("the current leader's" handler).
  void onPortFailure(std::function<void(const PortFailure&)> handler) {
    failureHandler_ = std::move(handler);
  }
  /// Adopt `deployment` as the leader's live state: journals the kDeploy
  /// intent on the leader journal (replicated to every standby by the
  /// stream) and pins the switch set used by failover recovery.
  Status<Error> adoptDeployment(Deployment deployment);

  /// Start heartbeat + lease-watch timer chains (idempotent; call before
  /// Simulator::run). stop() quiesces the chains (e.g. before tearing the
  /// simulation down while events are still queued).
  void start();
  void stop();

  /// Kill a replica: its timers, stream handling, and (if leader) heartbeats
  /// all cease, exactly like a SIGKILL'd process — including an in-flight
  /// failover recovery it was driving, which is cancelled (frames already on
  /// the wire still land; nothing new is sent, and its completion is never
  /// delivered). No revival.
  void kill(int replica);

  /// Test/operator hook: make `replica` claim leadership *now* with
  /// term = (its highest seen) + 1, without waiting for lease expiry — the
  /// split-brain scenario when the old leader is alive but partitioned.
  void forceTakeover(int replica);

  // -- Leader-side handles ---------------------------------------------------
  /// The current leader's journal: transactions journal into (and therefore
  /// replicate through) this. Valid while the leader lives.
  [[nodiscard]] Journal& leaderJournal();
  [[nodiscard]] Journal& journalOf(int replica);
  /// Test/fault-injection access to a replica's raw journal bytes (torn
  /// writes are modeled by truncating here, same as MemoryJournalStorage).
  [[nodiscard]] MemoryJournalStorage& storageOf(int replica);
  [[nodiscard]] Deployment& deployment() { return deployment_; }
  [[nodiscard]] const Deployment& deployment() const { return deployment_; }
  /// Highest term any replica has claimed (stamp outgoing ReconfigOptions /
  /// RecoveryOptions with the *leader's* term via termOf(leaderId())).
  [[nodiscard]] std::uint64_t term() const { return term_; }
  [[nodiscard]] std::uint64_t termOf(int replica) const;
  [[nodiscard]] int leaderId() const { return leaderId_; }
  [[nodiscard]] bool isLeader(int replica) const;
  [[nodiscard]] int numReplicas() const { return static_cast<int>(replicas_.size()); }
  [[nodiscard]] bool takeoverInProgress() const { return takeoverInProgress_; }
  [[nodiscard]] ReplicaStatus status(int replica) const;
  [[nodiscard]] const std::vector<FailoverReport>& failovers() const {
    return failovers_;
  }
  /// Sum of Switch::fencedWrites over the adopted deployment's switches.
  [[nodiscard]] std::uint64_t fencedWritesTotal() const;
  /// RecoveryRun completions dropped because their (term, leader) no longer
  /// matched the live takeover — the observable footprint of a cascading
  /// failover or a fenced rival finishing late.
  [[nodiscard]] std::uint64_t staleRecoveryCompletions() const {
    return staleRecoveryCompletions_;
  }

 private:
  struct Replica {
    int id = -1;
    bool alive = true;
    bool leader = false;
    bool candidate = false;
    std::uint64_t term = 0;  ///< highest term seen (== own term when leader)
    /// Which replica this one believes leads at `term` (own id while
    /// leading). Ties at equal term resolve toward the lower id, so
    /// (term, -leaderSeen) is lexicographically monotonic — no oscillation.
    int leaderSeen = 0;
    MemoryJournalStorage storage;
    std::unique_ptr<Journal> journal;

    // Standby-side stream state. The next seq this replica wants is always
    // journal->nextSeq() — derived from durable state, never cached, so a
    // torn-truncate + rescan() automatically re-opens the gap and the next
    // frame (or heartbeat stall) triggers catch-up.
    TimeNs lastHeartbeatAt = -1;
    std::uint64_t prevHbExpected = 0;  ///< stall detector across heartbeats
    std::uint64_t framesReceived = 0;
    std::uint64_t framesOutOfOrder = 0;
    std::uint64_t gapCatchups = 0;
    std::uint64_t snapshotsInstalled = 0;
    bool catchupInFlight = false;
    std::uint64_t catchupGen = 0;

    // Leader-side stream cursor *toward* this replica (owned by whoever is
    // leader; reset on every leadership change).
    std::deque<JournalRecord> sendQueue;
    std::uint64_t streamedSeq = 0;   ///< highest seq shipped
    std::uint64_t lastAckedSeq = 0;  ///< cumulative ack received
    std::uint64_t queueOverflows = 0;  ///< sendQueue backlogs dropped at cap

    std::uint64_t electionGen = 0;  ///< cancels scheduled claim events
    std::uint64_t leaderGen = 0;    ///< cancels stale heartbeat chains
  };

  [[nodiscard]] Replica& rep(int id) { return *replicas_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Replica& rep(int id) const {
    return *replicas_[static_cast<std::size_t>(id)];
  }
  /// Election priority rank of `id` among live non-leader replicas.
  [[nodiscard]] int rankOf(int id) const;

  void scheduleHeartbeat(int id, std::uint64_t gen);
  void heartbeatTick(int id, std::uint64_t gen);
  void onHeartbeat(int to, int from, std::uint64_t term, std::uint64_t lastSeq);
  void scheduleLeaseCheck(int id);
  void leaseCheck(int id);
  void claimLeadership(int id, TimeNs leaseExpiredAt);
  void startFailoverRecovery(int id);
  void onFailoverDone(int id, std::uint64_t term, const RecoveryReport& report);
  /// Finish the current takeover attempt (success, planning failure, or
  /// supersession) and publish its report.
  void finishTakeover(FailoverReport report);

  /// Term/leader admission gate for every replica->replica message landing
  /// at `to`. Rejects stale terms and equal-term messages from a
  /// higher-than-believed leader id; accepts (updating term/leaderSeen,
  /// deposing `to` if it was leading) otherwise. A leader switch at the
  /// SAME term means the streams may have diverged at identical seqs —
  /// count-based gap detection cannot see that, so the replica resyncs via
  /// snapshot catch-up from the winner.
  bool acceptLeader(int to, int from, std::uint64_t term);

  void onLeaderAppend(int owner, const JournalRecord& record);
  void pumpStream(int from, int to);
  void onFrame(int to, int from, std::uint64_t term, const JournalRecord& record);
  void onStreamAck(int to, int from, std::uint64_t applied);
  void requestCatchup(int id, int leaderHint);
  void onCatchupRequest(int to, int from);
  void onSnapshotInstall(int to, int from, std::uint64_t term,
                         const std::string& bytes);
  void sendAck(int from, int to);

  void routePortFailure(const PortFailure& failure);
  /// Deliver every parked PortFailure (exactly once each); returns how many.
  int drainPendingFailures();

  sim::Simulator* sim_;
  SdtController* ctl_;
  sim::ControlChannel* fabric_;
  sim::ControlChannel* repl_;
  HaConfig config_;
  IntentCatalog catalog_;
  NetworkMonitor* monitor_ = nullptr;

  std::vector<std::unique_ptr<Replica>> replicas_;
  std::uint64_t term_ = 1;
  int leaderId_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  bool takeoverInProgress_ = false;

  Deployment deployment_;

  /// Completed runs are kept: late duplicate control messages may still
  /// reference them (same lifetime rule as ReconfigTransaction).
  std::vector<std::unique_ptr<RecoveryRun>> recoveries_;
  /// The in-flight takeover attempt. A RecoveryRun completion counts only
  /// if it matches this takeover's (term, leader) — a cascading failover
  /// (or a deposed leader's fenced run finishing late) must not adopt the
  /// wrong run's deployment or clobber the live attempt's report.
  struct Takeover {
    std::uint64_t term = 0;
    int leader = -1;
    RecoveryRun* run = nullptr;  ///< owned by recoveries_
    FailoverReport report;
  };
  std::unique_ptr<Takeover> takeover_;
  std::vector<FailoverReport> failovers_;
  std::uint64_t staleRecoveryCompletions_ = 0;

  std::function<void(const PortFailure&)> failureHandler_;
  std::vector<PortFailure> pendingFailures_;

  /// Liveness token for callbacks scheduled on the simulator / channels:
  /// every lambda captures a copy and returns early once the destructor
  /// flips it, so events drained after this object dies touch nothing.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sdt::controller
