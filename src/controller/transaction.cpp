#include "controller/transaction.hpp"

#include "common/strings.hpp"
#include "controller/journal.hpp"
#include "controller/monitor.hpp"
#include "controller/table_diff.hpp"

namespace sdt::controller {

namespace {

/// OpenFlow transfer id for one transaction flow-mod bundle. The high tag
/// separates the transaction's xid space from recovery's (0x4ECOV…); epoch,
/// round, and switch make every distinct bundle distinct, while a *retry* of
/// the same bundle reuses the same xid — which is the whole point: the
/// switch applies the first delivered copy and only re-acks the rest.
std::uint64_t txXid(std::uint32_t toEpoch, int round, int sw) {
  return (0xF10DULL << 48) | (static_cast<std::uint64_t>(toEpoch) << 16) |
         (static_cast<std::uint64_t>(round) << 8) | static_cast<std::uint64_t>(sw);
}

}  // namespace

const char* reconfigPhaseName(ReconfigPhase phase) {
  switch (phase) {
    case ReconfigPhase::kPrepare: return "prepare";
    case ReconfigPhase::kInstall: return "install";
    case ReconfigPhase::kBarrier: return "barrier";
    case ReconfigPhase::kFlip: return "flip";
    case ReconfigPhase::kDrain: return "drain";
    case ReconfigPhase::kGc: return "gc";
    case ReconfigPhase::kDone: return "done";
  }
  return "?";
}

const char* crashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone: return "none";
    case CrashPoint::kPrepare: return "prepare";
    case CrashPoint::kMidInstall: return "mid-install";
    case CrashPoint::kPreFlip: return "pre-flip";
    case CrashPoint::kPostFlip: return "post-flip";
    case CrashPoint::kMidGc: return "mid-gc";
  }
  return "?";
}

json::Value ReconfigReport::toJson() const {
  json::Object obj;
  obj["committed"] = committed;
  obj["rolledBack"] = rolledBack;
  obj["phaseReached"] = reconfigPhaseName(phaseReached);
  obj["fromEpoch"] = static_cast<std::int64_t>(fromEpoch);
  obj["toEpoch"] = static_cast<std::int64_t>(toEpoch);
  obj["flowModsInstalled"] = flowModsInstalled;
  obj["flowModsRolledBack"] = flowModsRolledBack;
  obj["flowModsGarbageCollected"] = flowModsGarbageCollected;
  obj["barrierRoundTrips"] = barrierRoundTrips;
  obj["retriesTotal"] = retriesTotal;
  obj["startedAtNs"] = static_cast<std::int64_t>(startedAt);
  obj["updateWindowNs"] = static_cast<std::int64_t>(updateWindow());
  obj["finishedAtNs"] = static_cast<std::int64_t>(finishedAt);
  obj["rollbackLatencyNs"] = static_cast<std::int64_t>(rollbackLatency);
  obj["pureStateVerified"] = pureStateVerified;
  obj["gcIncomplete"] = gcIncomplete;
  if (!failure.empty()) obj["failure"] = failure;
  json::Array sws;
  for (const SwitchTxState& s : switches) {
    json::Object sw;
    sw["installAcked"] = s.installAcked;
    sw["barrierAcked"] = s.barrierAcked;
    sw["flipAcked"] = s.flipAcked;
    sw["gcAcked"] = s.gcAcked;
    sw["rollbackAcked"] = s.rollbackAcked;
    sw["retries"] = s.retries;
    sws.push_back(std::move(sw));
  }
  obj["switches"] = std::move(sws);
  return obj;
}

ReconfigTransaction::ReconfigTransaction(sim::Simulator& sim,
                                         sim::ControlChannel& channel,
                                         Deployment& deployment, UpdatePlan plan,
                                         ReconfigOptions options, DoneFn done)
    : sim_(&sim),
      deployment_(&deployment),
      plan_(std::move(plan)),
      options_(std::move(options)),
      done_(std::move(done)),
      session_(sim, channel, static_cast<int>(deployment.switches.size()),
               {.op = "reconfigure",
                .seed = options_.retry.seed,
                .salt = 0x7C0FF1E5ULL,
                .tracer = options_.tracer,
                .metrics = options_.metrics,
                .request = [this](int sw) { return request(sw); },
                .exhausted = [this](int sw, int n) { onExhausted(sw, n); }}) {
  const std::size_t n = deployment.switches.size();
  acked_.resize(n);
  rolledBack_.assign(n, 0);
  report_.fromEpoch = plan_.fromEpoch;
  report_.toEpoch = plan_.toEpoch;
}

bool* ReconfigTransaction::ackedFlag(int sw, Round round) {
  SwitchTxState& s = acked_[static_cast<std::size_t>(sw)];
  switch (round) {
    case Round::kInstall: return &s.installAcked;
    case Round::kBarrier: return &s.barrierAcked;
    case Round::kFlip: return &s.flipAcked;
    case Round::kGc: return &s.gcAcked;
    case Round::kRollback: return &s.rollbackAcked;
  }
  return nullptr;
}

void ReconfigTransaction::start() {
  report_.startedAt = sim_->now();
  session_.open({{"topology", plan_.topology},
                 {"from_epoch", std::to_string(plan_.fromEpoch)},
                 {"to_epoch", std::to_string(plan_.toEpoch)},
                 {"rules", std::to_string(plan_.totalEntries)}});
  session_.phase("prepare");
  // WAL discipline: the prepare record hits the journal before the first
  // install leaves the controller, so any later crash finds an open
  // transaction with its full target intent.
  journalMark(JournalRecordKind::kTxPrepare);
  if (maybeCrash(CrashPoint::kPrepare)) return;
  report_.phaseReached = ReconfigPhase::kInstall;
  session_.phase("install");
  if (options_.monitor != nullptr) {
    for (const int sw : plan_.scope.switches()) options_.monitor->guardSwitch(sw);
  }
  beginRound(Round::kInstall);
}

void ReconfigTransaction::beginRound(Round round) {
  currentRound_ = round;
  // Only install and barrier may give up: before the first flip, rollback
  // is always safe. Past it the protocol only moves forward.
  const bool abortable = round == Round::kInstall || round == Round::kBarrier;
  session_.beginRound(roundName(round), abortable ? options_.retry.maxAttempts
                                                  : SwitchSession::kBackstopAttempts);
  for (const int sw : plan_.scope.switches()) session_.send(sw);
}

SwitchSession::Request ReconfigTransaction::request(int sw) {
  const Round round = currentRound_;
  return [this, sw, round]() -> SwitchSession::Reply {
    // A fenced bundle (stale leader term) is dropped without an ack — the
    // real agent would answer with an error the dead session never reads.
    if (!applyAtSwitch(sw, round)) return nullptr;
    return [this, sw, round]() { onAck(sw, round); };
  };
}

void ReconfigTransaction::onExhausted(int sw, int attempts) {
  // Bounded rounds before the commit point abort the whole transaction; the
  // forward-only rounds give up on this switch and let finish() report the
  // unverified state.
  if (currentRound_ == Round::kInstall || currentRound_ == Round::kBarrier) {
    abort(currentRound_ == Round::kInstall ? ReconfigPhase::kInstall
                                           : ReconfigPhase::kBarrier,
          strFormat("switch %d unreachable in %s phase after %d attempts", sw,
                    roundName(currentRound_), attempts));
    return;
  }
  stuck_ = true;
  if (currentRound_ == Round::kGc) report_.gcIncomplete = true;
  if (session_.complete(sw) == scopeSize()) advancePhase();
}

bool ReconfigTransaction::applyAtSwitch(int sw, Round round) {
  if (finished()) return true;
  openflow::Switch& ofs = *deployment_->switches[static_cast<std::size_t>(sw)];
  // Term fence first: a bundle from a deposed leader must not touch the
  // table, consume an xid, or even bump the barrier counter.
  if (!ofs.admitTerm(options_.term, options_.leaderId)) return false;
  // Mutating bundles carry an OpenFlow xid; the switch itself refuses
  // re-application (openflow::Switch::acceptXid), which is what makes the
  // at-least-once channel safe — see the dedup note on acceptXid().
  const std::uint64_t xid = txXid(plan_.toEpoch, static_cast<int>(round), sw);
  switch (round) {
    case Round::kInstall: {
      // A request that limps in after this switch already processed the
      // abort must not resurrect the new epoch's rules.
      if (rolledBack_[static_cast<std::size_t>(sw)] != 0) break;
      if (!ofs.acceptXid(xid)) break;
      for (const openflow::FlowEntry& e : plan_.tables[static_cast<std::size_t>(sw)]) {
        if (auto s = ofs.table().add(e); !s) {
          abort(ReconfigPhase::kInstall,
                strFormat("switch %d rejected a flow-mod: %s", sw,
                          s.error().message.c_str()));
          return true;
        }
        ++report_.flowModsInstalled;
      }
      break;
    }
    case Round::kBarrier:
      // Barriers are naturally idempotent; every delivered request is
      // processed (and separately acked), like a real OpenFlow agent.
      ofs.barrier();
      break;
    case Round::kFlip:
      // Also idempotent (a pure config write), so no xid is consumed: even
      // a flip retransmitted after a switch reboot must re-apply. A tenant
      // scope flips only the slice's own ingress ports — a switch where it
      // has none (a mid-path hop; packets arrive already stamped) gets NO
      // flip, because a whole-switch flip on shared hardware would move
      // every co-tenant's unstamped traffic onto this tenant's epoch.
      plan_.scope.stamp(ofs, sw, plan_.toEpoch);
      break;
    case Round::kGc:
      if (!ofs.acceptXid(xid)) break;
      report_.flowModsGarbageCollected +=
          static_cast<int>(ofs.table().removeByEpoch(plan_.fromEpoch));
      break;
    case Round::kRollback:
      if (!ofs.acceptXid(xid)) break;
      report_.flowModsRolledBack +=
          static_cast<int>(ofs.table().removeByEpoch(plan_.toEpoch));
      rolledBack_[static_cast<std::size_t>(sw)] = 1;
      break;
  }
  return true;
}

void ReconfigTransaction::onAck(int sw, Round round) {
  if (finished()) return;
  bool* flag = ackedFlag(sw, round);
  if (*flag) return;  // duplicate or retransmitted ack
  *flag = true;
  if (round == Round::kBarrier) ++report_.barrierRoundTrips;
  // Only acks for the round in progress advance the protocol; a stale ack
  // from an earlier phase (or one arriving after this switch's give-up was
  // recorded) just updates the bookkeeping above.
  if (round != currentRound_ || session_.done(sw)) return;
  const int acks = session_.complete(sw);
  // Mid-phase crash points fire on the *first* ack of their round: the
  // moment the fabric is most asymmetric (one switch has acted, the rest
  // have not), which is the hardest state recovery must untangle.
  if (acks == 1) {
    if (round == Round::kInstall && maybeCrash(CrashPoint::kMidInstall)) return;
    if (round == Round::kFlip && maybeCrash(CrashPoint::kPostFlip)) return;
    if (round == Round::kGc && maybeCrash(CrashPoint::kMidGc)) return;
  }
  if (acks == scopeSize()) advancePhase();
}

void ReconfigTransaction::advancePhase() {
  switch (currentRound_) {
    case Round::kInstall:
      report_.phaseReached = ReconfigPhase::kBarrier;
      session_.phase("barrier");
      beginRound(Round::kBarrier);
      break;
    case Round::kBarrier:
      // Commit point: the first flip message may stamp a packet with the new
      // epoch the moment it lands, after which rollback is off the table.
      // The crash point sits *before* the flip marker is journaled: a
      // controller that dies here provably sent no flip, so its successor
      // may (must) roll back.
      if (maybeCrash(CrashPoint::kPreFlip)) return;
      journalMark(JournalRecordKind::kTxFlip);
      report_.phaseReached = ReconfigPhase::kFlip;
      session_.phase("flip");
      beginRound(Round::kFlip);
      break;
    case Round::kFlip: {
      report_.updateWindowEnd = sim_->now();
      report_.phaseReached = ReconfigPhase::kDrain;
      session_.phase("drain");
      // An abort or crash during the drain starts a new session generation,
      // which cancels the gc.
      const std::uint64_t gen = session_.generation();
      sim_->schedule(kDrainDelay, [this, gen]() {
        if (session_.current(gen)) beginGc();
      });
      break;
    }
    case Round::kGc:
      report_.committed = true;
      report_.phaseReached = ReconfigPhase::kDone;
      finish();
      break;
    case Round::kRollback:
      report_.rolledBack = true;
      report_.rollbackLatency = sim_->now() - abortAt_;
      finish();
      break;
  }
}

void ReconfigTransaction::beginGc() {
  journalMark(JournalRecordKind::kTxGc);
  report_.phaseReached = ReconfigPhase::kGc;
  session_.phase("gc");
  beginRound(Round::kGc);
}

void ReconfigTransaction::abort(ReconfigPhase at, const std::string& why) {
  if (aborting_ || finished()) return;
  aborting_ = true;
  if (static_cast<int>(at) > static_cast<int>(report_.phaseReached)) {
    report_.phaseReached = at;
  }
  report_.failure = why;
  abortAt_ = sim_->now();
  session_.phase("rollback");
  // The new round cancels every outstanding install/barrier retry.
  beginRound(Round::kRollback);
}

void ReconfigTransaction::journalMark(JournalRecordKind kind) {
  if (options_.journal == nullptr) return;
  JournalRecord rec;
  rec.kind = kind;
  rec.at = sim_->now();
  rec.epoch = kind == JournalRecordKind::kTxCommit ? plan_.toEpoch : plan_.fromEpoch;
  rec.fromEpoch = plan_.fromEpoch;
  rec.toEpoch = plan_.toEpoch;
  rec.topology = plan_.topology;
  rec.routing = plan_.routing;
  rec.ecmpSalt = plan_.ecmpSalt;
  // Deliberately non-fatal: a journal that stops accepting writes must not
  // take the live fabric down with it. Recovery treats the journal as a
  // prefix of the truth anyway.
  (void)options_.journal->append(std::move(rec));
}

bool ReconfigTransaction::maybeCrash(CrashPoint point) {
  if (options_.crashAt != point || crashed_ || finished()) return false;
  crashed_ = true;
  report_.failure = strFormat("controller crashed at %s", crashPointName(point));
  // No journal record, no monitor unguard, no done callback: a killed
  // process runs no cleanup. The guards the transaction took stay in place
  // until recovery re-takes and releases them. The trace, though, is the
  // *observer's* record, not the dead controller's — it closes out. Closing
  // the session is the fence: every callback checks finished() first.
  closeReport("crashed");
  if (options_.onCrash) options_.onCrash();
  return true;
}

void ReconfigTransaction::closeReport(const char* outcome) {
  report_.finishedAt = sim_->now();
  report_.switches = acked_;
  report_.retriesTotal = session_.retries();
  for (std::size_t sw = 0; sw < report_.switches.size(); ++sw) {
    report_.switches[sw].retries = session_.retries(static_cast<int>(sw));
  }
  session_.close(outcome, {}, report_.failure);
}

void ReconfigTransaction::finish() {
  closeReport(report_.committed ? "committed" : "rolled_back");
  journalMark(report_.committed ? JournalRecordKind::kTxCommit
                                : JournalRecordKind::kTxAbort);

  // Purity audit: after a committed transaction every switch must hold only
  // epoch-N+1 rules and stamp N+1; after a rollback, only epoch-N and stamp
  // N. (Epoch-0 wildcard rules — none in SDT-compiled tables — would pass
  // either way by construction.)
  const std::uint32_t keep = report_.committed ? plan_.toEpoch : plan_.fromEpoch;
  const std::uint32_t gone = report_.committed ? plan_.fromEpoch : plan_.toEpoch;
  bool pure = true;
  for (const int sw : plan_.scope.switches()) {
    const openflow::Switch& ofs = *deployment_->switches[static_cast<std::size_t>(sw)];
    // A tenant audits only the ports it stamps: the switch-wide epoch (and
    // other tenants' port stamps) are not its own.
    if (ofs.table().countEpoch(gone) != 0 || !plan_.scope.stamped(ofs, sw, keep)) {
      pure = false;
      if (report_.committed) report_.gcIncomplete = true;
    }
  }
  report_.pureStateVerified = pure && !stuck_;

  if (report_.committed) {
    deployment_->projection = plan_.projection;
    deployment_->epoch = plan_.toEpoch;
    deployment_->topology = plan_.topology;
    deployment_->routing = plan_.routing;
    deployment_->ecmpSalt = plan_.ecmpSalt;
    // Co-tenant rules on shared switches never inflate these totals.
    detail::recount(*deployment_, plan_.scope);
  }
  if (options_.monitor != nullptr) {
    for (const int sw : plan_.scope.switches()) options_.monitor->unguardSwitch(sw);
  }
  if (done_) done_(report_);
}

}  // namespace sdt::controller
