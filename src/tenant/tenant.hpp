// Multi-tenant testbed-as-a-service (DESIGN.md §13): a TenantManager carves
// per-tenant topology slices out of one shared SDT plant and keeps every
// control-plane operation — deploy, two-phase reconfiguration, crash
// recovery, repair, admission backpressure — scoped to the slice that asked
// for it.
//
// The isolation stack, bottom to top:
//   - Resource carving: each admitted slice owns a disjoint set of the
//     plant's fixed cables and host ports (plus requested spares for
//     self-healing). Two tenants can share a physical *switch* (crossbar +
//     flow table) but never a cable, so the data planes only meet in
//     switch-internal arbitration.
//   - Cookie/epoch namespacing: a slice deploys with DeployOptions::tenant,
//     so every flow entry's cookie is tenant<<48 | epoch<<32 | tag and every
//     bulk epoch operation (flip, drain, GC, restamp) selects only that
//     namespace. Ingress stamping is per *port* (the slice's host ports),
//     never per switch, so a slice's epoch flip cannot move a neighbor's
//     packets onto new rules.
//   - Two-version capacity admission: a slice is admitted only if every
//     shared switch can hold TWO full epochs of every admitted slice's
//     entries simultaneously. That is exactly planUpdate()'s two-version
//     headroom, checked at admission time — a slice that could not survive
//     its own reconfiguration window is rejected up front, not mid-morph.
//   - Fault containment: a physical port failure maps to the single slice
//     whose cable (or host port) it is; repairSlice() re-projects only onto
//     that slice's own spares and diffs only its own entries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "controller/controller.hpp"
#include "projection/plant.hpp"
#include "sim/builder.hpp"

namespace sdt::tenant {

/// What a tenant asks for at admission time.
struct TenantSpec {
  std::string name;
  /// Requested logical topology and its routing; both must outlive the
  /// slice (the manager keeps pointers for repair/reconfig recompiles).
  const topo::Topology* topology = nullptr;
  const routing::RoutingAlgorithm* routing = nullptr;
  /// Spare fixed cables to reserve for this slice's self-healing repair():
  /// extra free self-links per physical switch / inter-links per switch
  /// pair beyond what the projection uses. Spares are owned (no other
  /// tenant can take them) but carry no traffic until a repair needs them.
  int spareSelfLinksPerSwitch = 0;
  int spareInterLinksPerPair = 0;
  /// Deploy knobs (deadlock check, ECMP salt, projector). `tenant` and
  /// `hostAddrBase` are overwritten by the manager.
  controller::DeployOptions deploy;
};

/// A live slice: the tenant's private view of the shared plant.
struct TenantSlice {
  std::uint16_t id = 0;
  std::string name;
  /// Global host-id base: this slice's logical host h is sim host
  /// hostBase + h on the shared network, and its flow entries match
  /// dstAddr = hostBase + h — addresses that can never alias a co-tenant.
  std::uint32_t hostBase = 0;
  const topo::Topology* topology = nullptr;
  const routing::RoutingAlgorithm* routing = nullptr;
  /// The carved plant: every shared switch, but only this slice's cables
  /// and host ports. The slice controller plans/repairs against this, so a
  /// re-projection can only ever land on the slice's own spares.
  projection::Plant plant;
  std::unique_ptr<controller::SdtController> controller;
  /// Live deployment. `deployment.switches` is the SHARED switch vector —
  /// the slice's entries live side by side with co-tenants', separated by
  /// cookie namespace.
  controller::Deployment deployment;
  /// Slice-plant link index -> shared-plant link index (projection results
  /// index the slice plant; the network builder needs shared indices).
  std::vector<int> selfToShared;
  std::vector<int> interToShared;
  /// Shared-plant host-port indices this slice owns (parallel to logical
  /// host ids).
  std::vector<int> hostPortToShared;
  /// (switch, port) egress queues the slice's traffic can occupy — feed
  /// these to AdmissionController::restrictToPorts() so a co-tenant's storm
  /// never throttles this slice's credits.
  std::vector<std::pair<int, int>> watchPorts;
  controller::DeployOptions deployOptions;  ///< with tenant/hostAddrBase set
};

/// Admission verdict detail (status/introspection; errors carry the same
/// text).
struct AdmissionReport {
  std::uint16_t id = 0;
  int usedSelfLinks = 0;
  int usedInterLinks = 0;
  int spareSelfLinks = 0;
  int spareInterLinks = 0;
  int hostPorts = 0;
  int flowEntries = 0;
  /// Worst-case two-version occupancy fraction across switches after this
  /// admission (1.0 = a switch is fully reserved).
  double peakReservedFraction = 0.0;
};

class TenantManager {
 public:
  /// The manager owns the shared plant and one openflow::Switch model per
  /// physical switch; every slice's entries install into these.
  explicit TenantManager(projection::Plant plant);

  [[nodiscard]] const projection::Plant& plant() const { return plant_; }
  [[nodiscard]] const std::vector<std::shared_ptr<openflow::Switch>>& switches() const {
    return switches_;
  }

  /// Admit a tenant: carve a slice, run the two-version capacity check, and
  /// install its flow entries. Fails cleanly (no shared state touched) when
  /// the free cables cannot realize the topology or any switch would exceed
  /// two-version capacity. Returns the tenant id (>= 1; 0 is the legacy
  /// whole-plant namespace and never assigned).
  Result<AdmissionReport> admit(const TenantSpec& spec);

  /// Tear a slice down: GC its entries by cookie namespace, clear its
  /// host-port epoch stamps, return its cables to the free pool.
  StatusOr evict(std::uint16_t id);

  [[nodiscard]] const TenantSlice* slice(std::uint16_t id) const;
  /// Mutable access for driving a ReconfigTransaction / RecoveryRun over the
  /// slice's deployment; call noteReconfigured() after it settles.
  [[nodiscard]] TenantSlice* mutableSlice(std::uint16_t id);
  [[nodiscard]] std::vector<std::uint16_t> tenantIds() const;
  [[nodiscard]] int numTenants() const { return static_cast<int>(slices_.size()); }

  /// Two-version entry reservation currently held against switch `sw`.
  [[nodiscard]] std::size_t reservedEntries(int sw) const;

  /// Which tenant owns physical port `p` (cable end or host port); 0 = no
  /// slice — fault containment routes monitor PortFailure events with this.
  [[nodiscard]] std::uint16_t tenantOwningPort(projection::PhysPort p) const;

  /// Prepare a tenant-scoped live reconfiguration: planUpdate() on the
  /// slice, plus a reservation re-check (the new table set may be larger;
  /// the window holds old + new). The plan's scope, derived by planUpdate()
  /// from the slice's epoch, makes the controller::ReconfigTransaction it
  /// drives touch only this slice's switches and flip only its host ports.
  Result<controller::UpdatePlan> planSliceUpdate(std::uint16_t id,
                                                 const topo::Topology& next,
                                                 const routing::RoutingAlgorithm& routing);

  /// After a committed (or rolled-back) slice transaction: refresh the
  /// slice's intent pointers and reservation from live table state.
  void noteReconfigured(std::uint16_t id, const topo::Topology* topology,
                        const routing::RoutingAlgorithm* routing);

  /// Tenant-scoped self-healing: keep only failures on ports this slice
  /// owns and repair within the slice plant (its own spares). Failures on
  /// other tenants' cables are ignored here — their owners repair them.
  Result<controller::RepairReport> repairSlice(std::uint16_t id,
                                               const controller::FailureSet& failures);

  /// Build ONE shared data plane executing every admitted slice: all fixed
  /// cables wired (spares carry no entries), per-switch forwarding through
  /// the shared openflow::Switch models, crossbar arbitration overhead from
  /// the summed sub-switch load of all slices, hosts at their global ids.
  /// Rebuild after every admit/evict (sim networks are immutable once
  /// partitioned).
  [[nodiscard]] sim::BuiltNetwork buildNetwork(
      sim::Simulator& sim, const sim::NetworkConfig& config = {},
      const sim::CrossbarModel& crossbar = {},
      sim::EpochConsistencyChecker* checker = nullptr) const;

 private:
  [[nodiscard]] std::size_t capacityOf(int sw) const {
    return plant_.switches[static_cast<std::size_t>(sw)].flowTableCapacity;
  }
  /// Recompute watchPorts and the two-version reservations for a slice from
  /// its live entries and owned resources.
  void refreshSlice(TenantSlice& slice);
  void recomputeReservations();
  [[nodiscard]] std::uint32_t allocateHostBase(int numHosts) const;

  projection::Plant plant_;
  std::vector<std::shared_ptr<openflow::Switch>> switches_;
  /// Free/owned state per shared-plant cable and host port (owner tenant
  /// id; 0 = free).
  std::vector<std::uint16_t> selfOwner_;
  std::vector<std::uint16_t> interOwner_;
  std::vector<std::uint16_t> hostPortOwner_;
  /// Per-switch sum over slices of 2x(slice entries on the switch).
  std::vector<std::size_t> reserved_;
  /// Per-slice per-switch entry counts backing `reserved_`.
  std::map<std::uint16_t, std::vector<std::size_t>> sliceEntries_;
  std::map<std::uint16_t, TenantSlice> slices_;
  std::uint16_t nextId_ = 1;
  int hostSlots_ = 0;  ///< high-water mark of global host ids
};

}  // namespace sdt::tenant
