// Controller crash recovery: journal replay, switch table readback, and
// anti-entropy reconciliation.
//
// A restarted controller owns nothing but the write-ahead journal
// (controller/journal.hpp): no Deployment, no transaction object, no idea
// whether the fabric matches any intent. Recovery rebuilds trust in three
// steps:
//
//   plan     planRecovery() replays the journal, decides the *target* intent
//            — an open transaction that journaled its flip marker rolls
//            FORWARD (some ingress may already stamp the new epoch; rolling
//            back would strand those packets' rules), an un-flipped one
//            rolls BACK (provably no packet ever carried the new epoch),
//            and a quiescent journal just re-asserts the live intent — and
//            recompiles that intent's flow tables from the journaled
//            topology/routing names and ECMP salt (recovery::IntentCatalog).
//   readback The controller trusts switches, not memory: a flow-stats
//            request per switch over the lossy ControlChannel (a
//            SwitchSession round, controller/session.hpp, with its
//            retry/backoff) returns each table + ingress epoch verbatim.
//            A rebooted switch shows up as an empty table stamping epoch 0.
//   converge Per switch, the scoped reconcile repair() also uses
//            (detail::reconcile, controller/table_diff.hpp) of the snapshot
//            against the target yields a minimal flow-mod bundle:
//            strict-deletes, adds, one cookie-restamp sweep for rules that
//            only changed epoch, and the flip of the ingress stamps the
//            plan's scope owns. Bundles are xid-stamped and applied
//            atomically at the switch. Because the channel can drop or
//            duplicate anything, recovery is ANTI-ENTROPY: after converging
//            it reads back again and re-diffs, iterating until a verify
//            round shows zero drift everywhere (or the round cap trips).
//
// The run ends with a direct purity audit (every rule and every ingress
// stamp carries exactly the target epoch), a kRecovery journal record so the
// *next* crash sees a clean slate, and a Deployment the caller adopts as the
// new live state.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "controller/controller.hpp"
#include "controller/journal.hpp"
#include "controller/session.hpp"
#include "controller/table_diff.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/control_channel.hpp"
#include "sim/simulator.hpp"

namespace sdt::controller {

class NetworkMonitor;

enum class RecoveryDecision : std::uint8_t {
  kNone,         ///< planning failed; nothing decided
  kRollForward,  ///< open transaction past its flip marker: finish it
  kRollBack,     ///< open transaction, flip never journaled: undo it
  kReinstall,    ///< no open transaction: re-assert the live intent as-is
};

const char* recoveryDecisionName(RecoveryDecision decision);

/// How a restarted controller turns journaled intent *names* back into
/// objects: the journal stores "fat-tree-k4"/"ecmp", the catalog maps those
/// names to the topology and routing instances the new process constructed.
struct IntentCatalogEntry {
  const topo::Topology* topology = nullptr;
  const routing::RoutingAlgorithm* routing = nullptr;
};
using IntentCatalog = std::map<std::string, IntentCatalogEntry>;

/// Everything decided before any switch is contacted: the chosen direction,
/// the recompiled target tables, and the journal facts that led there.
struct RecoveryPlan {
  RecoveryDecision decision = RecoveryDecision::kNone;
  std::string topology;          ///< target intent identity
  std::string routing;
  std::uint64_t ecmpSalt = 0;
  std::uint32_t targetEpoch = 0;
  bool txWasOpen = false;
  bool txFlipped = false;
  std::uint32_t fromEpoch = 0;   ///< open transaction's epochs (0 = none)
  std::uint32_t toEpoch = 0;
  projection::Projection projection;
  /// Per-physical-switch target entries, cookies stamped targetEpoch.
  std::vector<std::vector<openflow::FlowEntry>> tables;
  int totalEntries = 0;
  /// What the recovery owns, derived from targetEpoch and `projection`: a
  /// tenant slice's recovery diffs, restamps, and audits only its own
  /// namespace and stamps only its host ports, so converging one tenant can
  /// never touch a co-tenant. Readback still covers every switch.
  Scope scope;
};

/// Replay the journal and compile the recovery target. Pure planning: no
/// switch is contacted, no state mutated. `options` supplies the projector
/// knobs; the deadlock check is intentionally skipped (the intent passed it
/// when first deployed, and a recovering controller must not refuse to
/// restore the only consistent state it can prove).
Result<RecoveryPlan> planRecovery(const SdtController& controller,
                                  const Journal& journal,
                                  const IntentCatalog& catalog,
                                  const DeployOptions& options = {});

struct RecoveryOptions {
  /// Seed of the per-switch backoff jitter streams. Recovery never gives up
  /// early: every round runs to the session's attempt backstop
  /// (SwitchSession::kBackstopAttempts), so a channel that never delivers
  /// fails the run instead of hanging the simulation.
  std::uint64_t retrySeed = SwitchSession::kDefaultSeed;
  /// Replicated-controller HA: the recovering leader's term. Modeled on the
  /// OpenFlow role-request generation_id — the very first readback raises
  /// the fence on every switch (so a freshly elected leader fences its
  /// predecessor everywhere, even switches needing zero converge mods), and
  /// every converge bundle re-asserts it. 0 = legacy single-controller mode.
  std::uint64_t term = 0;
  /// The recovering replica's id (see ReconfigOptions::leaderId): breaks
  /// same-term ties at the switch fence toward the lower id. -1 = none.
  int leaderId = -1;
  /// Guarded for the duration of the run (converge makes counters wobble
  /// exactly like the failure signatures); unguarding at the end reseeds the
  /// monitor's counter baselines. This should be the *new* controller's
  /// monitor — the crashed controller's monitor died with it.
  NetworkMonitor* monitor = nullptr;
  /// When set, a kRecovery record is appended after convergence so the next
  /// cold start sees the converged intent as live and no open transaction.
  Journal* journal = nullptr;
  /// Observability (both optional, both must outlive the run): the tracer
  /// gets a "recover" root span with one child per anti-entropy phase
  /// (readback/converge/verify, repeating as rounds iterate), in simulated
  /// time; the registry gets per-phase sdt_controller_retry_attempts_total.
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

/// Per-switch recovery outcome (index == physical switch id).
struct SwitchRecoveryState {
  bool snapshotAcked = false;   ///< at least one readback round-trip done
  bool convergeAcked = false;   ///< last converge bundle acked (or none needed)
  bool rebooted = false;        ///< first snapshot: empty table, epoch 0
  bool drifted = false;         ///< first snapshot disagreed with the target
  int rulesMissing = 0;         ///< target rules absent from the first snapshot
  int rulesExtra = 0;           ///< snapshot rules not in the target
  int rulesRestamped = 0;       ///< right rule, wrong epoch stamp (cookie sweep)
  int convergeRounds = 0;       ///< bundles this switch actually needed
  int retries = 0;              ///< sends beyond the first, all rounds
};

struct RecoveryReport {
  bool converged = false;
  RecoveryDecision decision = RecoveryDecision::kNone;
  std::string topology;
  std::string routing;
  std::uint32_t targetEpoch = 0;
  bool txWasOpen = false;
  bool txFlipped = false;
  std::uint32_t fromEpoch = 0;
  std::uint32_t toEpoch = 0;

  int switchesDrifted = 0;    ///< first readback: switches needing any mod
  int switchesRebooted = 0;   ///< empty-table, epoch-0 switches repopulated
  int rulesMissing = 0;       ///< summed over first readback
  int rulesExtra = 0;
  int rulesRestamped = 0;
  int flowMods = 0;           ///< deletes + adds + restamp/flip ops applied
  /// What a trust-nothing full redeploy would have cost instead:
  /// clear every live entry + install every target entry.
  int fullRedeployFlowMods = 0;
  int statsRounds = 0;        ///< readback rounds completed
  int retriesTotal = 0;

  TimeNs startedAt = 0;
  TimeNs finishedAt = 0;
  [[nodiscard]] TimeNs convergenceTime() const { return finishedAt - startedAt; }

  /// Direct post-run audit: every switch holds only targetEpoch rules and
  /// stamps targetEpoch at ingress. False (with converged) cannot happen —
  /// a failed audit fails the run.
  bool pureStateVerified = false;

  std::vector<SwitchRecoveryState> switches;
  std::string failure;  ///< empty when converged

  [[nodiscard]] json::Value toJson() const;
};

/// One in-flight recovery. Same lifetime rules as ReconfigTransaction: the
/// simulator, channel, and switch objects must outlive the run, and the run
/// must outlive the simulation window it executes in.
class RecoveryRun {
 public:
  using DoneFn = std::function<void(const RecoveryReport&)>;

  /// `switches` are the live switch models the crashed controller programmed
  /// (in a real deployment: the re-established OpenFlow sessions). The run
  /// never trusts their tables — that is what readback is for.
  RecoveryRun(sim::Simulator& sim, sim::ControlChannel& channel,
              std::vector<std::shared_ptr<openflow::Switch>> switches,
              RecoveryPlan plan, RecoveryOptions options = {},
              DoneFn done = nullptr);

  /// Kick off the first readback round (schedules simulator events).
  void start();

  /// Abandon the run: a SIGKILL'd leader takes its recovery with it.
  /// Messages already on the control channel still deliver (they left the
  /// process before it died), but no new round starts, no timer re-arms,
  /// and the done callback never fires. Guarded switches are unguarded so
  /// the monitor does not stay suppressed forever. Idempotent; a no-op on
  /// a finished run.
  void cancel();

  [[nodiscard]] bool finished() const { return session_.closed(); }
  [[nodiscard]] const RecoveryReport& report() const { return report_; }

  /// The deployment the converged fabric now implements (valid only after a
  /// successful run): adopt this as the new live state.
  [[nodiscard]] const Deployment& deployment() const { return deployment_; }
  [[nodiscard]] Deployment takeDeployment() { return std::move(deployment_); }

 private:
  enum class Round : std::uint8_t { kReadback, kConverge };
  using ConvergeOps = detail::ConvergeOps;

  /// Anti-entropy iteration cap: readback -> converge -> readback ... until
  /// a verify round is clean everywhere or this many rounds have run.
  static constexpr int kMaxRounds = 8;

  [[nodiscard]] int numSwitches() const {
    return static_cast<int>(switches_.size());
  }
  /// The session's request for `sw` in the current round.
  SwitchSession::Request request(int sw);
  void onSnapshot(int sw, const openflow::TableSnapshot& snap);
  void completeSwitch(int sw);
  void beginConverge();
  void beginVerify();
  void finishSuccess();
  void finishFailure(const std::string& why);
  void finish();
  /// End the run, finished or cancelled: stamp the report, close the
  /// session with `outcome`, lift the monitor guards.
  void end(const char* outcome);

  sim::Simulator* sim_;
  std::vector<std::shared_ptr<openflow::Switch>> switches_;
  RecoveryPlan plan_;
  RecoveryOptions options_;
  DoneFn done_;
  SwitchSession session_;

  Round currentRound_ = Round::kReadback;
  int roundIndex_ = 0;       ///< anti-entropy iteration counter (xid salt)
  RecoveryReport report_;
  Deployment deployment_;
  std::vector<ConvergeOps> pending_;      ///< per switch, refreshed per readback
  bool firstReadback_ = true;  ///< drift accounting happens once
};

/// Append the kDeploy intent record for a fresh deployment. deploy() itself
/// stays journal-free (it is a pure compile); the caller that *adopts* the
/// deployment as live state journals it, exactly once, via this helper.
Status<Error> journalDeploy(Journal& journal, const Deployment& deployment,
                            TimeNs at);

}  // namespace sdt::controller
