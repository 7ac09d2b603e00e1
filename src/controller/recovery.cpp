#include "controller/recovery.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "controller/monitor.hpp"

namespace sdt::controller {
namespace {

/// Transfer id for one converge bundle. High tag 0x4EC0 ("reco") keeps
/// recovery's xid space disjoint from the transaction layer's 0xF10D, so a
/// late duplicate from the crashed transaction can never mask a recovery
/// bundle (or vice versa). The anti-entropy round index makes each
/// iteration's bundle a fresh xid — only *retries within* a round dedup —
/// and the tenant salt keeps two tenants' concurrent recoveries over the
/// same shared switch from colliding in its xid cache.
std::uint64_t recoveryXid(std::uint16_t tenant, int round, int sw) {
  return (0x4EC0ULL << 48) | (static_cast<std::uint64_t>(tenant) << 32) |
         (static_cast<std::uint64_t>(round) << 16) |
         static_cast<std::uint64_t>(sw);
}

}  // namespace

const char* recoveryDecisionName(RecoveryDecision decision) {
  switch (decision) {
    case RecoveryDecision::kNone: return "none";
    case RecoveryDecision::kRollForward: return "roll-forward";
    case RecoveryDecision::kRollBack: return "roll-back";
    case RecoveryDecision::kReinstall: return "reinstall";
  }
  return "?";
}

json::Value RecoveryReport::toJson() const {
  json::Object obj;
  obj["converged"] = converged;
  obj["decision"] = recoveryDecisionName(decision);
  obj["topology"] = topology;
  obj["routing"] = routing;
  obj["targetEpoch"] = static_cast<std::int64_t>(targetEpoch);
  obj["txWasOpen"] = txWasOpen;
  obj["txFlipped"] = txFlipped;
  obj["fromEpoch"] = static_cast<std::int64_t>(fromEpoch);
  obj["toEpoch"] = static_cast<std::int64_t>(toEpoch);
  obj["switchesDrifted"] = switchesDrifted;
  obj["switchesRebooted"] = switchesRebooted;
  obj["rulesMissing"] = rulesMissing;
  obj["rulesExtra"] = rulesExtra;
  obj["rulesRestamped"] = rulesRestamped;
  obj["flowMods"] = flowMods;
  obj["fullRedeployFlowMods"] = fullRedeployFlowMods;
  obj["statsRounds"] = statsRounds;
  obj["retriesTotal"] = retriesTotal;
  obj["startedAtNs"] = static_cast<std::int64_t>(startedAt);
  obj["finishedAtNs"] = static_cast<std::int64_t>(finishedAt);
  obj["convergenceTimeNs"] = static_cast<std::int64_t>(convergenceTime());
  obj["pureStateVerified"] = pureStateVerified;
  if (!failure.empty()) obj["failure"] = failure;
  json::Array sws;
  for (const SwitchRecoveryState& s : switches) {
    json::Object sw;
    sw["snapshotAcked"] = s.snapshotAcked;
    sw["convergeAcked"] = s.convergeAcked;
    sw["rebooted"] = s.rebooted;
    sw["drifted"] = s.drifted;
    sw["rulesMissing"] = s.rulesMissing;
    sw["rulesExtra"] = s.rulesExtra;
    sw["rulesRestamped"] = s.rulesRestamped;
    sw["convergeRounds"] = s.convergeRounds;
    sw["retries"] = s.retries;
    sws.push_back(std::move(sw));
  }
  obj["switches"] = std::move(sws);
  return obj;
}

Result<RecoveryPlan> planRecovery(const SdtController& controller,
                                  const Journal& journal,
                                  const IntentCatalog& catalog,
                                  const DeployOptions& options) {
  auto replayed = journal.replay();
  if (!replayed) return replayed.error();
  const JournalState& st = replayed.value().state;

  RecoveryPlan plan;
  plan.txWasOpen = st.txOpen;
  plan.txFlipped = st.txFlipped;
  plan.fromEpoch = st.txFromEpoch;
  plan.toEpoch = st.txToEpoch;
  if (st.txOpen && st.txFlipped) {
    // The flip marker proves the dead controller may have sent flips: some
    // ingress could already stamp the new epoch. Forward is the only safe
    // direction (Reitblatt: past the commit point, complete the update).
    plan.decision = RecoveryDecision::kRollForward;
    plan.topology = st.txTopology;
    plan.routing = st.txRouting;
    plan.ecmpSalt = st.txEcmpSalt;
    plan.targetEpoch = st.txToEpoch;
  } else if (st.txOpen) {
    // No flip marker: the marker is journaled before the first flip send,
    // so no packet was ever stamped with the new epoch. Rolling back to the
    // (still fully installed) old intent is safe and cheapest.
    if (!st.valid) {
      return makeError(
          "journal has an open un-flipped transaction but no prior deployed "
          "intent to roll back to");
    }
    plan.decision = RecoveryDecision::kRollBack;
    plan.topology = st.topology;
    plan.routing = st.routing;
    plan.ecmpSalt = st.ecmpSalt;
    plan.targetEpoch = st.epoch;
  } else {
    if (!st.valid) return makeError("journal holds no deployable intent");
    plan.decision = RecoveryDecision::kReinstall;
    plan.topology = st.topology;
    plan.routing = st.routing;
    plan.ecmpSalt = st.ecmpSalt;
    plan.targetEpoch = st.epoch;
  }

  const auto entry = catalog.find(plan.topology);
  if (entry == catalog.end() || entry->second.topology == nullptr ||
      entry->second.routing == nullptr) {
    return makeError(strFormat(
        "journaled intent '%s' is not in the recovery catalog", plan.topology.c_str()));
  }
  if (entry->second.routing->name() != plan.routing) {
    return makeError(strFormat(
        "catalog routing '%s' does not match journaled routing '%s' for '%s'",
        entry->second.routing->name().c_str(), plan.routing.c_str(),
        plan.topology.c_str()));
  }

  auto proj = projection::LinkProjector::project(*entry->second.topology, controller.plant());
  if (!proj) return proj.error();
  // Recompile with the *journaled* salt: the tables must be byte-identical
  // to what the dead controller installed, or the diff would churn every
  // ECMP choice. No deadlock re-check — the intent passed it at deploy time,
  // and refusing here would leave the fabric in its crashed mixed state.
  DeployOptions compileOptions = options;
  compileOptions.ecmpSalt = plan.ecmpSalt;
  auto tables = detail::compileFlowTables(*entry->second.topology, proj.value(),
                                          controller.plant(), *entry->second.routing,
                                          compileOptions, plan.targetEpoch);
  if (!tables) return tables.error();
  for (const auto& t : tables.value()) plan.totalEntries += static_cast<int>(t.size());
  plan.projection = std::move(proj).value();
  plan.tables = std::move(tables).value();
  plan.scope = Scope::of(plan.targetEpoch, plan.projection, controller.plant().numSwitches(),
                         &plan.tables);
  return plan;
}

RecoveryRun::RecoveryRun(sim::Simulator& sim, sim::ControlChannel& channel,
                         std::vector<std::shared_ptr<openflow::Switch>> switches,
                         RecoveryPlan plan, RecoveryOptions options, DoneFn done)
    : sim_(&sim),
      switches_(std::move(switches)),
      plan_(std::move(plan)),
      options_(std::move(options)),
      done_(std::move(done)),
      session_(sim, channel, static_cast<int>(switches_.size()),
               {.op = "recover",
                .seed = options_.retrySeed,
                .salt = 0x4EC0BEA7ULL,
                .tracer = options_.tracer,
                .request = [this](int sw) { return request(sw); },
                .exhausted = [this](int sw, int n) {
                  const bool readback = currentRound_ == Round::kReadback;
                  finishFailure(strFormat(
                      "switch %d unreachable during recovery %s round after %d attempts",
                      sw, readback ? "readback" : "converge", n));
                }}) {
  const auto n = static_cast<std::size_t>(numSwitches());
  pending_.resize(n);
  report_.decision = plan_.decision;
  report_.topology = plan_.topology;
  report_.routing = plan_.routing;
  report_.targetEpoch = plan_.targetEpoch;
  report_.txWasOpen = plan_.txWasOpen;
  report_.txFlipped = plan_.txFlipped;
  report_.fromEpoch = plan_.fromEpoch;
  report_.toEpoch = plan_.toEpoch;
  report_.switches.resize(n);
}

void RecoveryRun::start() {
  report_.startedAt = sim_->now();
  session_.open({{"decision", recoveryDecisionName(plan_.decision)},
                 {"topology", plan_.topology},
                 {"target_epoch", std::to_string(plan_.targetEpoch)},
                 {"rules", std::to_string(plan_.totalEntries)}});
  if (options_.monitor != nullptr) {
    for (int sw = 0; sw < numSwitches(); ++sw) options_.monitor->guardSwitch(sw);
  }
  currentRound_ = Round::kReadback;
  session_.phase("readback");
  session_.beginRound("readback");
  for (int sw = 0; sw < numSwitches(); ++sw) session_.send(sw);
}

SwitchSession::Request RecoveryRun::request(int sw) {
  const std::uint64_t gen = session_.generation();
  openflow::Switch* ofs = switches_[static_cast<std::size_t>(sw)].get();
  if (currentRound_ == Round::kReadback) {
    // Flow-stats request: the switch snapshots its table at *delivery* time
    // (not send time) and ships the copy back; both legs are lossy. The
    // request carries the leader's generation (term) like an OpenFlow
    // role-request: delivery raises the fence, and a request from an
    // already-deposed leader gets no reply at all.
    return [this, sw, gen, ofs]() -> SwitchSession::Reply {
      if (!ofs->admitTerm(options_.term, options_.leaderId)) return nullptr;
      return [this, sw, gen, snap = ofs->snapshot()]() {
        if (session_.current(gen)) onSnapshot(sw, snap);
      };
    };
  }
  // Converge bundle: captured by value so a duplicate delivered after the
  // round advanced still re-acks the *same* bundle it acked before. The xid
  // (bound to this anti-entropy round) makes re-application a no-op.
  const std::uint64_t xid = recoveryXid(plan_.scope.tenant(), roundIndex_, sw);
  return [this, sw, gen, ofs, xid,
          ops = pending_[static_cast<std::size_t>(sw)]]() -> SwitchSession::Reply {
    // Fenced: no apply, no ack.
    if (!ofs->admitTerm(options_.term, options_.leaderId)) return nullptr;
    if (ofs->acceptXid(xid)) {
      // Applied atomically (one OpenFlow bundle-commit). A full table means
      // the fabric still carries two epochs' rules beyond what the removes
      // cover; the verify round sees the shortfall and the next iteration
      // finishes the job.
      (void)detail::apply(*ofs, sw, ops, plan_.scope, plan_.targetEpoch);
      report_.flowMods += ops.mods();
    }
    return [this, sw, gen]() {
      if (!session_.current(gen) || session_.done(sw)) return;
      report_.switches[static_cast<std::size_t>(sw)].convergeAcked = true;
      completeSwitch(sw);
    };
  };
}

void RecoveryRun::onSnapshot(int sw, const openflow::TableSnapshot& snap) {
  if (session_.done(sw)) return;
  report_.switches[static_cast<std::size_t>(sw)].snapshotAcked = true;
  // The journaled intent is the truth, the snapshot is the fabric, the
  // reconcile is the repair.
  ConvergeOps& ops = pending_[static_cast<std::size_t>(sw)];
  ops = detail::reconcile(snap, plan_.tables[static_cast<std::size_t>(sw)], plan_.scope, sw,
                          plan_.targetEpoch);
  if (firstReadback_) {
    // Drift is accounted once, against what the crash left behind.
    SwitchRecoveryState& st = report_.switches[static_cast<std::size_t>(sw)];
    st.rulesMissing = static_cast<int>(ops.adds.size());
    st.rulesExtra = static_cast<int>(ops.removes.size());
    st.rulesRestamped = ops.restampCount;
    st.rebooted = snap.entries.empty() && snap.ingressEpoch == 0;
    st.drifted = !ops.empty();
    report_.rulesMissing += st.rulesMissing;
    report_.rulesExtra += st.rulesExtra;
    report_.rulesRestamped += st.rulesRestamped;
    if (st.rebooted) ++report_.switchesRebooted;
    if (st.drifted) ++report_.switchesDrifted;
    // The trust-nothing alternative: wipe what the snapshot shows, reinstall
    // the whole target. Recovery's flowMods is the incremental counterpoint.
    report_.fullRedeployFlowMods +=
        static_cast<int>(snap.entries.size()) +
        static_cast<int>(plan_.tables[static_cast<std::size_t>(sw)].size());
  }
  completeSwitch(sw);
}

void RecoveryRun::completeSwitch(int sw) {
  if (session_.complete(sw) < numSwitches()) return;

  if (currentRound_ == Round::kReadback) {
    ++report_.statsRounds;
    firstReadback_ = false;
    if (std::all_of(pending_.begin(), pending_.end(),
                    [](const ConvergeOps& ops) { return ops.empty(); })) {
      finishSuccess();
      return;
    }
    if (report_.statsRounds >= kMaxRounds) {
      finishFailure(strFormat(
          "anti-entropy failed to converge after %d readback rounds",
          report_.statsRounds));
      return;
    }
    beginConverge();
  } else {
    beginVerify();
  }
}

void RecoveryRun::beginConverge() {
  ++roundIndex_;
  currentRound_ = Round::kConverge;
  session_.phase("converge");
  session_.beginRound("converge");
  // Clean switches sit the round out (no message at all). beginConverge only
  // runs when some switch drifted, so marking them done cannot fill the
  // round; the acks arrive as simulator events.
  for (int sw = 0; sw < numSwitches(); ++sw) {
    if (pending_[static_cast<std::size_t>(sw)].empty()) {
      session_.complete(sw);
      continue;
    }
    ++report_.switches[static_cast<std::size_t>(sw)].convergeRounds;
    session_.send(sw);
  }
}

void RecoveryRun::beginVerify() {
  ++roundIndex_;
  currentRound_ = Round::kReadback;
  session_.phase("verify");
  session_.beginRound("readback");
  for (int sw = 0; sw < numSwitches(); ++sw) session_.send(sw);
}

void RecoveryRun::finishSuccess() {
  // Direct audit, bypassing the channel: the verify round already proved
  // convergence through lossy snapshots, this re-proves it on the objects.
  bool pure = true;
  for (int sw = 0; sw < numSwitches(); ++sw) {
    const openflow::Switch& ofs = *switches_[static_cast<std::size_t>(sw)];
    // Every owned rule carries the target epoch (which names the owner).
    if (!plan_.scope.stamped(ofs, sw, plan_.targetEpoch) ||
        plan_.scope.ownedCount(ofs.table()) != ofs.table().countEpoch(plan_.targetEpoch)) {
      pure = false;
    }
  }
  if (!pure) {
    finishFailure("post-convergence purity audit failed");
    return;
  }
  report_.pureStateVerified = true;
  report_.converged = true;

  deployment_.projection = plan_.projection;
  deployment_.switches = switches_;
  deployment_.epoch = plan_.targetEpoch;
  deployment_.topology = plan_.topology;
  deployment_.routing = plan_.routing;
  deployment_.ecmpSalt = plan_.ecmpSalt;
  detail::recount(deployment_, plan_.scope);
  deployment_.reconfigTime =
      projection::reconfigTime(projection::TpMethod::kSDT, report_.flowMods);

  if (options_.journal != nullptr) {
    JournalRecord rec;
    rec.kind = JournalRecordKind::kRecovery;
    rec.at = sim_->now();
    rec.epoch = plan_.targetEpoch;
    rec.topology = plan_.topology;
    rec.routing = plan_.routing;
    rec.ecmpSalt = plan_.ecmpSalt;
    (void)options_.journal->append(std::move(rec));
  }
  finish();
}

void RecoveryRun::finishFailure(const std::string& why) {
  report_.converged = false;
  report_.failure = why;
  finish();
}

void RecoveryRun::cancel() {
  if (finished()) return;
  report_.failure = "cancelled";
  // done_ deliberately NOT invoked: the process that would have received the
  // completion is dead.
  end("cancelled");
}

void RecoveryRun::finish() {
  end(report_.converged ? "converged" : "failed");
  if (done_) done_(report_);
}

void RecoveryRun::end(const char* outcome) {
  report_.finishedAt = sim_->now();
  report_.retriesTotal = session_.retries();
  for (int sw = 0; sw < numSwitches(); ++sw) {
    report_.switches[static_cast<std::size_t>(sw)].retries = session_.retries(sw);
  }
  // Closing the session cancels every outstanding timer and reply handler.
  session_.close(outcome,
                 {{"stats_rounds", std::to_string(report_.statsRounds)},
                  {"flow_mods", std::to_string(report_.flowMods)}},
                 report_.failure);
  if (options_.monitor != nullptr) {
    // Unguard reseeds the tx-counter baselines, so the converge burst's
    // stalled counters cannot read as a wedged transceiver afterwards.
    for (int sw = 0; sw < numSwitches(); ++sw) options_.monitor->unguardSwitch(sw);
  }
}

Status<Error> journalDeploy(Journal& journal, const Deployment& deployment,
                            TimeNs at) {
  JournalRecord rec;
  rec.kind = JournalRecordKind::kDeploy;
  rec.at = at;
  rec.epoch = deployment.epoch;
  rec.topology = deployment.topology;
  rec.routing = deployment.routing;
  rec.ecmpSalt = deployment.ecmpSalt;
  return journal.append(std::move(rec));
}

}  // namespace sdt::controller
