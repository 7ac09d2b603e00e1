#include "controller/ha.hpp"

#include <algorithm>
#include <utility>

#include "controller/monitor.hpp"

namespace sdt::controller {

ReplicatedController::ReplicatedController(sim::Simulator& sim,
                                           SdtController& ctl,
                                           sim::ControlChannel& fabric,
                                           sim::ControlChannel& replication,
                                           int numReplicas, HaConfig config)
    : sim_(&sim),
      ctl_(&ctl),
      fabric_(&fabric),
      repl_(&replication),
      config_(config) {
  if (numReplicas < 1) numReplicas = 1;
  // A non-positive ack window would make pumpStream's in-flight test always
  // true and silently disable streaming; the queue cap below the window
  // would drop every backlog before it could drain.
  if (config_.ackWindow < 1) config_.ackWindow = 1;
  if (config_.sendQueueCap < config_.ackWindow) {
    config_.sendQueueCap = config_.ackWindow;
  }
  replicas_.reserve(static_cast<std::size_t>(numReplicas));
  for (int id = 0; id < numReplicas; ++id) {
    auto r = std::make_unique<Replica>();
    r->id = id;
    r->journal = std::make_unique<Journal>(r->storage);
    // Every replica's journal streams when (and only when) that replica is
    // the leader: the observer is wired once and gates on the live role, so
    // leadership changes never re-point anything. A deposed-but-alive leader
    // that keeps journaling still streams — standbys drop its stale-term
    // frames, exactly like the switches fence its flow-mods.
    r->journal->setAppendObserver(
        [this, tok = alive_, id](const JournalRecord& rec) {
          if (!*tok) return;
          onLeaderAppend(id, rec);
        });
    replicas_.push_back(std::move(r));
  }
  rep(0).leader = true;
  rep(0).term = 1;
  term_ = 1;
  leaderId_ = 0;
}

ReplicatedController::~ReplicatedController() {
  *alive_ = false;  // scheduled callbacks drained after this point no-op
  stopped_ = true;
}

int ReplicatedController::rankOf(int id) const {
  int rank = 0;
  for (const auto& r : replicas_) {
    if (r->id == id) break;
    if (r->alive && !r->leader) ++rank;
  }
  return rank;
}

Journal& ReplicatedController::leaderJournal() { return *rep(leaderId_).journal; }

Journal& ReplicatedController::journalOf(int replica) {
  return *rep(replica).journal;
}

MemoryJournalStorage& ReplicatedController::storageOf(int replica) {
  return rep(replica).storage;
}

std::uint64_t ReplicatedController::termOf(int replica) const {
  return rep(replica).term;
}

bool ReplicatedController::isLeader(int replica) const {
  return rep(replica).leader && rep(replica).alive;
}

ReplicaStatus ReplicatedController::status(int replica) const {
  const Replica& r = rep(replica);
  ReplicaStatus st;
  st.id = r.id;
  st.alive = r.alive;
  st.isLeader = r.leader;
  st.term = r.term;
  st.lastAppliedSeq = r.journal->nextSeq() - 1;
  st.framesReceived = r.framesReceived;
  st.framesOutOfOrder = r.framesOutOfOrder;
  st.gapCatchups = r.gapCatchups;
  st.snapshotsInstalled = r.snapshotsInstalled;
  st.sendQueueDepth = r.sendQueue.size();
  st.queueOverflows = r.queueOverflows;
  return st;
}

std::uint64_t ReplicatedController::fencedWritesTotal() const {
  std::uint64_t total = 0;
  for (const auto& sw : switches_) total += sw->fencedWrites();
  return total;
}

void ReplicatedController::setMonitor(NetworkMonitor* monitor) {
  monitor_ = monitor;
  if (monitor_ == nullptr) return;
  monitor_->onPortFailure(
      [this](const PortFailure& f) { routePortFailure(f); });
  monitor_->setEpochProvider([this]() { return deployment_.epoch; });
}

void ReplicatedController::routePortFailure(const PortFailure& failure) {
  // Exactly-once routing: the monitor fires once per port; the HA layer
  // either forwards immediately (steady state) or parks the event until the
  // new leader owns a converged fabric. The takeover window runs from the
  // moment the leader dies (nobody owns the event yet) until the successor's
  // recovery converges. Failures surfacing inside it are real — detection
  // ran against the old configuration — so they are never dropped, only
  // deferred, detection-time epoch intact.
  if (takeoverInProgress_ || !rep(leaderId_).alive) {
    pendingFailures_.push_back(failure);
    return;
  }
  if (failureHandler_) failureHandler_(failure);
}

int ReplicatedController::drainPendingFailures() {
  std::vector<PortFailure> parked;
  parked.swap(pendingFailures_);
  if (failureHandler_) {
    for (const PortFailure& f : parked) failureHandler_(f);
  }
  return static_cast<int>(parked.size());
}

void ReplicatedController::attachMetrics(obs::Registry& registry) {
  registry.addCollector([this, tok = alive_, &registry]() {
    if (!*tok) return;
    registry.gauge("sdt_ha_term", {}, "Highest controller term claimed")
        .set(static_cast<double>(term_));
    registry.gauge("sdt_ha_leader", {}, "Current leader replica id")
        .set(static_cast<double>(leaderId_));
    registry
        .counter("sdt_ha_failovers_total", {}, "Completed takeover attempts")
        .syncTo(failovers_.size());
    registry
        .counter("sdt_ha_fenced_writes_total", {},
                 "Stale-term bundles rejected by switch fences")
        .syncTo(fencedWritesTotal());
    registry
        .counter("sdt_ha_journal_frames_streamed_total", {},
                 "Journal records shipped leader -> standbys")
        .syncTo(framesStreamed_);
    registry
        .counter("sdt_ha_heartbeats_total", {}, "Lease heartbeats sent")
        .syncTo(heartbeatsSent_);
    registry
        .counter("sdt_ha_stale_recovery_completions_total", {},
                 "Recovery completions dropped for a mismatched (term, leader)")
        .syncTo(staleRecoveryCompletions_);
    std::uint64_t catchups = 0;
    std::uint64_t overflows = 0;
    for (const auto& r : replicas_) {
      catchups += r->gapCatchups;
      overflows += r->queueOverflows;
    }
    registry
        .counter("sdt_ha_gap_catchups_total", {},
                 "Standby snapshot catch-ups after stream gaps")
        .syncTo(catchups);
    registry
        .counter("sdt_ha_stream_queue_overflows_total", {},
                 "Per-standby stream backlogs dropped at sendQueueCap")
        .syncTo(overflows);
    if (!failovers_.empty()) {
      registry
          .gauge("sdt_ha_takeover_window_ns", {},
                 "Last failover: lease expiry -> converged fabric")
          .set(static_cast<double>(failovers_.back().takeoverWindow()));
    }
  });
}

Status<Error> ReplicatedController::adoptDeployment(Deployment deployment) {
  deployment_ = std::move(deployment);
  switches_ = deployment_.switches;
  return journalDeploy(leaderJournal(), deployment_, sim_->now());
}

void ReplicatedController::start() {
  if (started_) return;
  started_ = true;
  stopped_ = false;
  const TimeNs now = sim_->now();
  for (const auto& r : replicas_) {
    r->lastHeartbeatAt = now;  // grace: the lease starts full everywhere
    scheduleLeaseCheck(r->id);
  }
  Replica& leader = rep(leaderId_);
  heartbeatTick(leader.id, leader.leaderGen);
}

void ReplicatedController::stop() { stopped_ = true; }

void ReplicatedController::kill(int replica) {
  Replica& r = rep(replica);
  r.alive = false;
  r.candidate = false;
  ++r.electionGen;  // a dead candidate never claims
  ++r.leaderGen;    // a dead leader never heartbeats again
  if (takeover_ && takeover_->leader == replica) {
    // The dying process takes its in-flight recovery with it: stop the run
    // (frames already on the wire still land — they left the process) and
    // drop the attempt, so its completion can never adopt a deployment on
    // behalf of a corpse or clobber a successor's report.
    if (takeover_->run != nullptr) takeover_->run->cancel();
    takeover_.reset();
    // Port failures keep parking: routePortFailure checks leader liveness.
    takeoverInProgress_ = false;
  }
}

// -- Term / leader admission -------------------------------------------------

bool ReplicatedController::acceptLeader(int to, int from, std::uint64_t term) {
  Replica& s = rep(to);
  if (term < s.term) return false;
  if (term == s.term) {
    if (from > s.leaderSeen) return false;  // tie: the lower id already won
    if (from == s.leaderSeen) return true;  // the leader we already follow
  }
  // Either a strictly newer term, or a higher-priority (lower-id) rival
  // claiming the term we are on: adopt it. If this replica was leading, it
  // is deposed here — the fence already protects the switches; stepping
  // down stops the wasted heartbeats.
  const bool sameTermSwitch = term == s.term;
  if (s.leader) {
    s.leader = false;
    ++s.leaderGen;
  }
  s.term = term;
  s.leaderSeen = from;
  if (sameTermSwitch) {
    // Two leaders streamed concurrently at this term, so the journals may
    // have diverged at IDENTICAL sequence numbers — the count-based gap
    // check cannot see that. Resync from the winner via snapshot.
    requestCatchup(to, from);
  }
  return true;
}

// -- Heartbeats / lease ------------------------------------------------------

void ReplicatedController::scheduleHeartbeat(int id, std::uint64_t gen) {
  sim_->scheduleOn(0, config_.heartbeatPeriod, [this, tok = alive_, id, gen]() {
    if (!*tok) return;
    heartbeatTick(id, gen);
  });
}

void ReplicatedController::heartbeatTick(int id, std::uint64_t gen) {
  Replica& r = rep(id);
  if (stopped_ || !r.alive || !r.leader || gen != r.leaderGen) return;
  const std::uint64_t lastSeq = r.journal->nextSeq() - 1;
  for (const auto& target : replicas_) {
    if (target->id == id) continue;
    ++heartbeatsSent_;
    repl_->send(target->id,
                [this, tok = alive_, to = target->id, id, term = r.term,
                 lastSeq]() {
                  if (!*tok) return;
                  onHeartbeat(to, id, term, lastSeq);
                });
  }
  scheduleHeartbeat(id, gen);
}

void ReplicatedController::onHeartbeat(int to, int from, std::uint64_t term,
                                       std::uint64_t lastSeq) {
  Replica& s = rep(to);
  if (stopped_ || !s.alive) return;
  // Stale or tie-losing leader's heartbeat: ignore. (It will hear the
  // winner's heartbeat and step down; our silence just starves its acks.)
  if (!acceptLeader(to, from, term)) return;
  s.lastHeartbeatAt = sim_->now();
  if (s.candidate) {
    s.candidate = false;
    ++s.electionGen;  // cancel the staggered claim
  }
  // Stream-stall detection: the leader is ahead of us and no frame has
  // landed since the previous heartbeat — dropped frames (or a compaction
  // seq jump with no follow-up append) leave exactly this signature.
  const std::uint64_t expected = s.journal->nextSeq();
  if (lastSeq >= expected && expected == s.prevHbExpected &&
      !s.catchupInFlight) {
    requestCatchup(to, from);
  }
  s.prevHbExpected = expected;
  sendAck(from, to);
}

void ReplicatedController::sendAck(int leader, int standby) {
  Replica& s = rep(standby);
  repl_->send(leader, [this, tok = alive_, leader, standby,
                       applied = s.journal->nextSeq() - 1]() {
    if (!*tok) return;
    onStreamAck(leader, standby, applied);
  });
}

void ReplicatedController::scheduleLeaseCheck(int id) {
  sim_->scheduleOn(0, config_.leaseInterval / 2, [this, tok = alive_, id]() {
    if (!*tok) return;
    leaseCheck(id);
  });
}

void ReplicatedController::leaseCheck(int id) {
  Replica& s = rep(id);
  if (stopped_ || !s.alive) return;  // a dead replica's chain ends here
  scheduleLeaseCheck(id);
  if (s.leader || s.candidate) return;
  if (sim_->now() - s.lastHeartbeatAt <= config_.leaseInterval) return;
  // Lease expired: candidate. The stagger orders claims by priority rank so
  // the fastest-ranked live standby moves first and its claim heartbeat
  // (delivered well inside one stagger on a healthy channel) stands every
  // slower candidate down before their timers fire.
  s.candidate = true;
  const std::uint64_t gen = ++s.electionGen;
  const TimeNs expiredAt = s.lastHeartbeatAt + config_.leaseInterval;
  const TimeNs stagger =
      static_cast<TimeNs>(rankOf(id)) * config_.electionStagger;
  sim_->scheduleOn(0, stagger, [this, tok = alive_, id, gen, expiredAt]() {
    if (!*tok) return;
    Replica& c = rep(id);
    if (stopped_ || !c.alive || gen != c.electionGen || c.leader) return;
    if (sim_->now() - c.lastHeartbeatAt <= config_.leaseInterval) {
      c.candidate = false;
      return;
    }
    claimLeadership(id, expiredAt);
  });
}

void ReplicatedController::forceTakeover(int replica) {
  Replica& r = rep(replica);
  if (!r.alive) return;
  claimLeadership(replica, sim_->now());
}

void ReplicatedController::claimLeadership(int id, TimeNs leaseExpiredAt) {
  Replica& s = rep(id);
  s.candidate = false;
  ++s.electionGen;
  s.leader = true;
  ++s.leaderGen;
  s.term += 1;  // monotonically increasing: the new fencing token
  s.leaderSeen = id;
  term_ = std::max(term_, s.term);
  leaderId_ = id;
  takeoverInProgress_ = true;

  if (takeover_) {
    // A takeover was still in flight. If it was OURS (a forceTakeover
    // re-claim), one process never drives two recoveries: cancel the old
    // run. A rival's run keeps going — the switch fence and the
    // (term, leader) completion binding make it harmless — but either way
    // the old attempt is recorded as superseded so failovers() tells the
    // whole story and nothing silently vanishes.
    if (takeover_->leader == id && takeover_->run != nullptr) {
      takeover_->run->cancel();
    }
    FailoverReport superseded = std::move(takeover_->report);
    takeover_.reset();
    superseded.converged = false;
    superseded.failure = "superseded by term " + std::to_string(s.term);
    superseded.convergedAt = sim_->now();
    failovers_.push_back(std::move(superseded));
    if (failoverCallback_) failoverCallback_(failovers_.back());
  }

  takeover_ = std::make_unique<Takeover>();
  takeover_->term = s.term;
  takeover_->leader = id;
  FailoverReport& report = takeover_->report;
  report.newLeader = id;
  report.fromTerm = s.term - 1;
  report.toTerm = s.term;
  report.leaseExpiredAt = leaseExpiredAt;
  report.takeoverStartedAt = sim_->now();

  // Reset the leader-side stream cursors: assume everyone is current and let
  // cumulative acks / gap detection correct the picture. The window opens
  // immediately (flow control, not reliability — catch-up covers losses).
  const std::uint64_t last = s.journal->nextSeq() - 1;
  for (const auto& r : replicas_) {
    r->sendQueue.clear();
    r->streamedSeq = last;
    r->lastAckedSeq = last;
  }

  // The claim heartbeat: deposes the old leader (if it can hear us), stands
  // other candidates down, and starts the renewal chain.
  heartbeatTick(id, s.leaderGen);
  startFailoverRecovery(id);
}

void ReplicatedController::startFailoverRecovery(int id) {
  Replica& s = rep(id);
  Result<RecoveryPlan> plan =
      planner_ ? planner_(*s.journal)
               : planRecovery(*ctl_, *s.journal, catalog_, config_.deploy);
  if (!plan) {
    FailoverReport report = std::move(takeover_->report);
    takeover_.reset();
    report.converged = false;
    report.failure = plan.error().message;
    finishTakeover(std::move(report));
    return;
  }
  RecoveryOptions options;
  options.retrySeed = config_.retrySeed;
  options.term = s.term;
  options.leaderId = id;
  options.monitor = monitor_;
  options.journal = s.journal.get();
  // The completion is bound to the claiming (term, leader): onFailoverDone
  // drops it unless this exact takeover is still the live one.
  auto run = std::make_unique<RecoveryRun>(
      *sim_, *fabric_, switches_, std::move(plan).value(), options,
      [this, tok = alive_, id, term = s.term](const RecoveryReport& report) {
        if (!*tok) return;
        onFailoverDone(id, term, report);
      });
  takeover_->run = run.get();
  recoveries_.push_back(std::move(run));
  recoveries_.back()->start();
}

void ReplicatedController::onFailoverDone(int id, std::uint64_t term,
                                          const RecoveryReport& report) {
  if (!takeover_ || takeover_->term != term || takeover_->leader != id) {
    // A completion this takeover did not start: a cascading failover already
    // superseded the run, or a fenced rival limped to its round cap. Its
    // deployment does not describe the fabric; drop it, visibly.
    ++staleRecoveryCompletions_;
    return;
  }
  RecoveryRun* run = takeover_->run;
  FailoverReport out = std::move(takeover_->report);
  takeover_.reset();
  out.recovery = report;
  out.converged = report.converged;
  if (report.converged) {
    deployment_ = run->takeDeployment();
    // adoptDeployment pinned the switch set; recovery returns the same
    // objects, but a caller may start HA pre-adoption in tests.
    switches_ = deployment_.switches;
  } else {
    out.failure = report.failure;
  }
  finishTakeover(std::move(out));
}

void ReplicatedController::finishTakeover(FailoverReport report) {
  report.convergedAt = sim_->now();
  takeoverInProgress_ = false;
  // Deliver the failures that surfaced inside the takeover window — each
  // exactly once, detection-time epoch intact.
  report.pendingFailuresDelivered = drainPendingFailures();
  failovers_.push_back(std::move(report));
  if (failoverCallback_) failoverCallback_(failovers_.back());
}

// -- Journal streaming -------------------------------------------------------

void ReplicatedController::onLeaderAppend(int owner, const JournalRecord& record) {
  Replica& l = rep(owner);
  if (stopped_ || !l.alive || !l.leader) return;
  for (const auto& target : replicas_) {
    if (target->id == owner || !target->alive) continue;
    if (target->sendQueue.size() >=
        static_cast<std::size_t>(config_.sendQueueCap)) {
      // The ack window has been stalled long enough to fill the backlog (a
      // partitioned standby not yet declared dead): drop the whole queue —
      // the standby's gap detection snapshot-catches-up when it reappears,
      // which tolerates arbitrary loss — and keep the leader's memory flat.
      target->sendQueue.clear();
      ++target->queueOverflows;
      continue;
    }
    target->sendQueue.push_back(record);
    pumpStream(owner, target->id);
  }
}

void ReplicatedController::pumpStream(int from, int to) {
  Replica& l = rep(from);
  Replica& s = rep(to);
  while (!s.sendQueue.empty()) {
    const std::uint64_t inFlight =
        s.streamedSeq > s.lastAckedSeq ? s.streamedSeq - s.lastAckedSeq : 0;
    if (inFlight >= static_cast<std::uint64_t>(config_.ackWindow)) break;
    JournalRecord rec = std::move(s.sendQueue.front());
    s.sendQueue.pop_front();
    s.streamedSeq = std::max(s.streamedSeq, rec.seq);
    ++framesStreamed_;
    repl_->send(to, [this, tok = alive_, to, from, term = l.term,
                     rec = std::move(rec)]() {
      if (!*tok) return;
      onFrame(to, from, term, rec);
    });
  }
}

void ReplicatedController::onFrame(int to, int from, std::uint64_t term,
                                   const JournalRecord& record) {
  Replica& s = rep(to);
  if (stopped_ || !s.alive) return;
  // Stale or tie-losing leader still streaming: fenced.
  if (!acceptLeader(to, from, term)) return;
  ++s.framesReceived;
  const std::uint64_t expected = s.journal->nextSeq();
  if (record.seq < expected) {
    // Duplicate (channel dup, or a retransmit raced the catch-up): the
    // record is already durable here; just refresh the cumulative ack.
    sendAck(from, to);
    return;
  }
  if (record.seq > expected) {
    // Gap: a dropped frame, the seq jump Journal::compact() leaves when its
    // checkpoint records take fresh numbers, or a torn tail this replica
    // dropped on rescan. Either way the suffix alone is not a journal —
    // fetch the full image.
    ++s.framesOutOfOrder;
    requestCatchup(to, from);
    return;
  }
  if (auto st = s.journal->appendReplica(record); !st) return;
  sendAck(from, to);
}

void ReplicatedController::onStreamAck(int to, int from, std::uint64_t applied) {
  Replica& l = rep(to);
  if (stopped_ || !l.alive || !l.leader) return;
  Replica& s = rep(from);
  s.lastAckedSeq = std::max(s.lastAckedSeq, applied);
  pumpStream(to, from);
}

void ReplicatedController::requestCatchup(int id, int leaderHint) {
  Replica& s = rep(id);
  if (s.catchupInFlight) return;
  s.catchupInFlight = true;
  ++s.gapCatchups;
  const std::uint64_t gen = ++s.catchupGen;
  repl_->send(leaderHint, [this, tok = alive_, leaderHint, id]() {
    if (!*tok) return;
    onCatchupRequest(leaderHint, id);
  });
  // Backstop: a lost request or reply must not wedge the flag forever; the
  // next gap signal (frame or heartbeat) re-requests.
  sim_->scheduleOn(0, config_.leaseInterval, [this, tok = alive_, id, gen]() {
    if (!*tok) return;
    Replica& r = rep(id);
    if (stopped_ || !r.alive || gen != r.catchupGen) return;
    r.catchupInFlight = false;
  });
}

void ReplicatedController::onCatchupRequest(int to, int from) {
  Replica& l = rep(to);
  if (stopped_ || !l.alive || !l.leader) return;
  auto bytes = l.storage.read();
  if (!bytes) return;
  repl_->send(from, [this, tok = alive_, from, leader = l.id, term = l.term,
                     image = std::move(bytes).value()]() {
    if (!*tok) return;
    onSnapshotInstall(from, leader, term, image);
  });
}

void ReplicatedController::onSnapshotInstall(int to, int from,
                                             std::uint64_t term,
                                             const std::string& bytes) {
  Replica& s = rep(to);
  if (stopped_ || !s.alive) return;
  // Snapshot from a deposed or tie-losing leader: refuse the image.
  if (!acceptLeader(to, from, term)) return;
  if (auto st = s.storage.replaceAll(bytes); !st) return;
  s.journal->rescan();
  s.prevHbExpected = 0;  // fresh image: restart the stall detector
  s.catchupInFlight = false;
  ++s.catchupGen;  // cancel the backstop
  ++s.snapshotsInstalled;
}

}  // namespace sdt::controller
