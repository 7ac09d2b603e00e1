// The SDT controller (paper §V, Fig. 9).
//
// Four modules:
//  - Topology Customization: check() verifies that a set of user topologies
//    fits the plant (self-link / inter-switch-link / host-port budgets,
//    flow-table capacity §VII-C) and reports what is missing; deploy() runs
//    Link Projection and compiles the routing strategy into per-physical-
//    switch OpenFlow tables.
//  - Routing Strategy: pluggable routing::RoutingAlgorithm, compiled to
//    flow entries of the form
//      match(in_port, dst_host [, traffic_class=VC]) -> [set_vc] output(port)
//    One entry per (sub-switch in-port, destination, VC state): the in_port
//    match is what enforces sub-switch isolation (§VI-B) on the shared
//    physical switch.
//  - Deadlock Avoidance: refuses to deploy a strategy whose channel
//    dependency graph has a cycle on a lossless (PFC) fabric.
//  - Network Monitor: see controller/monitor.hpp.
//
// The paper's controller is Ryu/Python driving real H3C switches; here the
// "switches" are openflow::Switch models. deploy() and repair() write their
// tables directly and charge a modeled install time
// (projection::reconfigTime); the live protocols — transactional updates and
// crash recovery — run over the lossy sim::ControlChannel through a
// SwitchSession (controller/session.hpp).
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "admission/admission.hpp"
#include "common/result.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "openflow/of_switch.hpp"
#include "projection/feasibility.hpp"
#include "projection/link_projector.hpp"
#include "routing/deadlock.hpp"
#include "routing/routing.hpp"

namespace sdt::controller {

struct DeployOptions {
  /// Verify CDG acyclicity before installing tables (lossless fabrics).
  bool requireDeadlockFree = true;
  /// Per-flow ECMP spreading is approximated per-destination when compiling
  /// proactive tables (real SDT computes paths reactively per flow).
  std::uint64_t ecmpSalt = 0;
  /// Global host-address base (multi-tenant slicing): compiled entries match
  /// dstAddr = hostAddrBase + logical host id, so a slice whose hosts occupy
  /// ids [base, base + n) on the shared sim::Network gets addresses that can
  /// never alias another slice's. 0 = legacy single-tenant addressing.
  std::uint32_t hostAddrBase = 0;
  /// Owning tenant id (multi-tenant slicing): rules compile into the scoped
  /// epoch namespace (tenant, local-epoch) so bulk epoch operations — flip,
  /// drain, GC, restamp — can never select another tenant's rules. 0 is the
  /// legacy whole-plant namespace.
  std::uint16_t tenant = 0;
  projection::LinkProjectorOptions projector;
};

/// A deployed (projected + programmed) topology, ready for sim::buildProjectedNetwork.
struct Deployment {
  projection::Projection projection;
  std::vector<std::shared_ptr<openflow::Switch>> switches;  ///< programmed tables
  int totalFlowEntries = 0;
  int maxEntriesPerSwitch = 0;
  TimeNs reconfigTime = 0;  ///< modeled table-install time (Table II row)
  /// Configuration epoch the installed rules carry (and the switches stamp
  /// onto ingress packets). deploy() starts at 1; each committed
  /// transactional reconfiguration bumps it.
  std::uint32_t epoch = 1;
  /// Intent identity, journaled for crash recovery: the names are the keys a
  /// restarted controller uses to look up the topology and routing objects
  /// (recovery::IntentCatalog) and recompile exactly these tables, so the
  /// salt rides along too.
  std::string topology;
  std::string routing;
  std::uint64_t ecmpSalt = 0;
};

/// check() output: what the plant must provide for a set of topologies.
struct CheckReport {
  bool ok = false;
  std::vector<std::string> problems;           ///< empty when ok
  int maxSelfLinksPerSwitch = 0;               ///< worst-case demand
  int maxInterLinksPerPair = 0;
  int maxHostPortsPerSwitch = 0;
  int maxFlowEntriesPerSwitch = 0;
};

/// Input to repair(): what the Network Monitor (or an operator) observed.
struct FailureSet {
  /// Failed physical fabric ports (from NetworkMonitor::failedPorts()).
  /// A cut cable contributes both of its ends.
  std::vector<projection::PhysPort> ports;
  /// Physical switches whose flow tables were wiped (power cycle); their
  /// ports are assumed healthy — the cure is reinstalling entries.
  std::vector<int> crashedSwitches;

  [[nodiscard]] bool empty() const { return ports.empty() && crashedSwitches.empty(); }
};

/// The part of the shared plant one operation owns (DESIGN.md §13): a
/// tenant's cookie namespace, the ingress ports it stamps, and the switches
/// a transaction messages. Tenant 0 is the whole plant: it owns every rule
/// and stamps whole switches. A tenant owns only its namespace's rules and
/// stamps only its host ports (on some switches none), so nothing it does
/// moves a co-tenant's packets. Every plan carries the scope its planner
/// derived; no caller attaches one.
class Scope {
 public:
  /// The one derivation, over a plant of `numSwitches`. The tenant is
  /// epochTenant(epoch), and a tenant stamps the host ports of `projection`.
  /// The transaction's switch set is every switch for tenant 0; for a
  /// tenant, every switch where it has a host port, a `desired` rule, or a
  /// rule in `live` (each when given).
  static Scope of(std::uint32_t epoch, const projection::Projection& projection,
                  int numSwitches,
                  const std::vector<std::vector<openflow::FlowEntry>>* desired = nullptr,
                  const std::vector<std::shared_ptr<openflow::Switch>>* live = nullptr);

  [[nodiscard]] std::uint16_t tenant() const { return tenant_; }
  /// Switches a transaction messages, ascending.
  [[nodiscard]] const std::vector<int>& switches() const { return switches_; }
  /// Ingress ports a tenant stamps on plant switch `sw`, ascending (none
  /// for tenant 0, which stamps the whole switch).
  [[nodiscard]] const std::vector<int>& ports(int sw) const {
    return ports_[static_cast<std::size_t>(sw)];
  }

  [[nodiscard]] bool owns(const openflow::FlowEntry& entry) const {
    return tenant_ == 0 || openflow::cookieTenant(entry.cookie) == tenant_;
  }
  [[nodiscard]] std::size_t ownedCount(const openflow::FlowTable& table) const {
    return tenant_ == 0 ? table.size() : table.countTenant(tenant_);
  }
  /// The owned entries of `all`: `all` itself for tenant 0 (no filtering
  /// pass, no copy), else the owned subset, collected into `buffer`.
  const std::vector<openflow::FlowEntry>& owned(
      const std::vector<openflow::FlowEntry>& all,
      std::vector<openflow::FlowEntry>& buffer) const;
  /// Delete every owned rule (the cleanup of a wiped switch).
  void removeOwned(openflow::FlowTable& table) const;
  /// Rewrite the epoch half of every owned rule's cookie to `epoch`.
  void restamp(openflow::FlowTable& table, std::uint32_t epoch) const {
    table.restampEpoch(epoch, tenant_ != 0);
  }
  /// Make switch `sw` stamp `epoch` on every ingress this scope owns.
  void stamp(openflow::Switch& ofs, int sw, std::uint32_t epoch) const;
  /// Does switch `sw` (live, or as read back) stamp `epoch` on every ingress
  /// this scope owns?
  [[nodiscard]] bool stamped(const openflow::Switch& ofs, int sw,
                             std::uint32_t epoch) const;
  [[nodiscard]] bool stamped(const openflow::TableSnapshot& snap, int sw,
                             std::uint32_t epoch) const;

 private:
  std::uint16_t tenant_ = 0;
  std::vector<std::vector<int>> ports_;  ///< per physical switch
  std::vector<int> switches_;
};

/// Compiled-but-not-installed next configuration: everything a transactional
/// two-phase reconfiguration (controller/transaction.hpp) needs before it
/// touches any switch. Produced by SdtController::planUpdate(), which runs
/// every check that can abort *cleanly* — deadlock freedom, projection
/// feasibility, host-port stability, and two-version table capacity — so a
/// transaction that starts can only fail on the control channel.
struct UpdatePlan {
  projection::Projection projection;  ///< the next topology's projection
  /// Per-physical-switch epoch-`toEpoch` entries to install alongside the
  /// live epoch-`fromEpoch` set.
  std::vector<std::vector<openflow::FlowEntry>> tables;
  std::uint32_t fromEpoch = 0;
  std::uint32_t toEpoch = 0;
  int totalEntries = 0;
  /// Intent identity of the *target* configuration (see Deployment).
  std::string topology;
  std::string routing;
  std::uint64_t ecmpSalt = 0;
  /// What the transaction owns: its two-phase protocol — install, barrier,
  /// flip, GC, rollback, guards, and the purity audit — messages only
  /// `scope.switches()` and flips only the ingress the scope stamps.
  Scope scope;
};

/// A logical link repair() could not re-project (no spare physical link).
struct SeveredLink {
  int logicalLink = -1;  ///< index into Topology::links()
  topo::SwitchPort a;
  topo::SwitchPort b;
};

/// What repair() did, and what it could not do. `degraded` deployments keep
/// forwarding between every pair the surviving links can still connect;
/// `unreachablePairs` lists the rest (their packets die on table miss, they
/// do not black-hole into failed ports).
struct RepairReport {
  // Re-projection outcome.
  int remappedLinks = 0;  ///< logical links moved onto spare physical links
  std::vector<SeveredLink> severedLinks;  ///< no spare: routed around instead
  std::vector<std::pair<topo::HostId, topo::HostId>> unreachablePairs;
  bool degraded = false;  ///< some logical links stayed severed

  // Incremental flow-table delta (strict-delete + add flow-mods), vs. what a
  // full teardown+reinstall would have cost.
  int flowModsRemoved = 0;
  int flowModsAdded = 0;
  int fullRedeployFlowMods = 0;
  [[nodiscard]] int flowMods() const { return flowModsRemoved + flowModsAdded; }
  /// Modeled install time of the delta: reconfigTime(kSDT, flowMods()).
  TimeNs repairTime = 0;

  // Deadlock re-check on the degraded topology (runs when links were severed
  // and options.requireDeadlockFree is set). A cycle is reported, not fatal:
  // degraded connectivity with a PFC-storm risk still beats no connectivity.
  bool deadlockChecked = false;
  bool deadlockFree = true;
};

class SdtController {
 public:
  /// Optional observability sinks for the controller's operations. Pointees
  /// must outlive the controller (or be detached with setObservability({})).
  struct ObsContext {
    obs::Registry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    /// Timestamp source for span start times — normally the simulator clock
    /// ([&sim] { return sim.now(); }). Null means spans start at t=0. The
    /// controller's compile work is instantaneous in simulated time, so each
    /// op span covers its *modeled* duration (reconfigTime / repairTime)
    /// starting from this clock's reading, with one child span per phase.
    std::function<TimeNs()> clock;
  };

  explicit SdtController(projection::Plant plant) : plant_(std::move(plant)) {}

  [[nodiscard]] const projection::Plant& plant() const { return plant_; }

  /// Attach (or detach, with a default-constructed context) metric/trace
  /// sinks. Every deploy/planUpdate/repair afterwards emits a root span
  /// named after the op with per-phase child spans.
  void setObservability(ObsContext obs) { obs_ = std::move(obs); }
  [[nodiscard]] const ObsContext& observability() const { return obs_; }

  /// Topology Customization, checking function: can every topology in the
  /// set be projected on this plant (one at a time)? Reports the resource
  /// shortfalls otherwise (§V-1: "inform the user of the necessary link
  /// modification").
  [[nodiscard]] CheckReport check(const std::vector<const topo::Topology*>& topologies,
                                  const DeployOptions& options = {}) const;

  /// Topology Customization, deployment function: project + compile routing
  /// into flow tables. The routing algorithm must be built for `topo` and
  /// outlive nothing (tables are self-contained once compiled).
  [[nodiscard]] Result<Deployment> deploy(const topo::Topology& topo,
                                          const routing::RoutingAlgorithm& routing,
                                          const DeployOptions& options = {}) const;

  /// Prepare phase of a transactional (two-phase, Reitblatt-style) live
  /// reconfiguration: compile `next` into epoch-(current.epoch + 1) flow
  /// entries and run every cleanly-abortable check —
  ///   - deadlock freedom of the next routing (when options require it);
  ///   - projection feasibility of `next` on the plant;
  ///   - host-port stability: every host must keep its physical port, since
  ///     hosts cannot be recabled mid-run (spare *fabric* cables are wired,
  ///     host NICs are not);
  ///   - two-version capacity: each switch must hold its live epoch-N rules
  ///     plus the full epoch-N+1 set side by side during the update window.
  /// Nothing is installed; a failure here leaves the deployment untouched.
  [[nodiscard]] Result<UpdatePlan> planUpdate(const Deployment& current,
                                              const topo::Topology& next,
                                              const routing::RoutingAlgorithm& routing,
                                              const DeployOptions& options = {}) const;

  /// Self-healing re-projection (no cable moves, no human): re-project the
  /// logical links riding on failed physical ports onto spare healthy
  /// physical links, recompile *only the affected flow entries* (the same
  /// live→desired reconcile crash recovery converges with — crashed switches
  /// fall out naturally, their whole table is "missing", and a rebooted
  /// switch's ingress stamps are restored), and patch `deployment` in place.
  /// A tenant deployment touches only the rules and ingress ports its scope
  /// owns. When no spare exists the logical link is severed: surviving
  /// traffic is re-routed around it (routing::DegradedRouting) and the
  /// report lists the severed links and newly unreachable host pairs.
  /// `routing` must be the algorithm the deployment was compiled with; the
  /// recompile uses the deployment's own ECMP salt, so an unchanged fabric
  /// costs zero flow-mods whatever `options.ecmpSalt` says.
  [[nodiscard]] Result<RepairReport> repair(Deployment& deployment,
                                            const topo::Topology& topo,
                                            const routing::RoutingAlgorithm& routing,
                                            const FailureSet& failures,
                                            const DeployOptions& options = {}) const;

  /// Admission-policy distribution: validate `policy` and push it to the
  /// fabric-edge admission controller (the overload analogue of a table
  /// install — one policy object fans out to every host agent; here the
  /// AdmissionController models that whole edge tier). Rejects invalid
  /// policies without touching the live one. Call between runs: the edge
  /// applies the policy to decisions from the next start().
  [[nodiscard]] StatusOr distributeAdmissionPolicy(
      admission::AdmissionController& target,
      const admission::Policy& policy) const;

 private:
  projection::Plant plant_;
  ObsContext obs_;
};

}  // namespace sdt::controller
