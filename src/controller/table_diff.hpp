// Shared flow-table compilation and diff machinery (controller internals).
//
// deploy(), planUpdate(), repair(), and crash recovery all compile a routing
// strategy into per-physical-switch flow entries; repair() and recovery's
// converge rounds also reconcile a live table (recovery's is *read back*
// from the switch) with the desired one under the operation's Scope. The
// `detail` namespace marks them as internals with stable semantics but no
// API promise to code outside src/controller.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "controller/controller.hpp"

namespace sdt::controller::detail {

/// Compile the routing strategy for one deployment into flow entries.
/// Returns the per-physical-switch entry lists, or an error when the
/// strategy fails on some (switch, destination, vc) state.
///
/// `severedMask` (repair path) marks logical links lost to failures: they
/// are excluded from the reachability computation, so pairs they disconnect
/// get no entries (table miss) instead of failing the compile.
/// `epoch` is stamped into every entry's cookie (consistent updates): rules
/// carry the configuration epoch they belong to, so packets stamped at
/// ingress only match their own configuration during a two-phase update.
Result<std::vector<std::vector<openflow::FlowEntry>>> compileFlowTables(
    const topo::Topology& topo, const projection::Projection& projection,
    const projection::Plant& plant, const routing::RoutingAlgorithm& routing,
    const DeployOptions& options, std::uint32_t epoch,
    const std::vector<char>* severedMask = nullptr);

/// Per-switch multiset diff of a live entry list against the desired one:
/// what an incremental update must strict-delete and add (reconcile's core).
/// Rules compare like openflow::sameRule minus the cookie's epoch half. Of a
/// rule's copies, the first min(live, desired) on each side are kept; the
/// rest of live's are removed in live order, the rest of desired's added in
/// desired order.
struct TableDiff {
  std::vector<openflow::FlowEntry> toRemove;        ///< copies of live entries
  std::vector<openflow::FlowEntry> toAdd;           ///< copies of desired entries
};

TableDiff diffEntries(const std::vector<openflow::FlowEntry>& live,
                      const std::vector<openflow::FlowEntry>& desired);

/// One switch's live→desired delta under a scope: repair() applies it
/// directly, crash recovery ships it as one xid'd converge bundle.
struct ConvergeOps {
  std::vector<openflow::FlowEntry> removes;  ///< strict-delete these
  std::vector<openflow::FlowEntry> adds;     ///< install these (compiled, zero counters)
  /// Owned survivors of the diff that carry the wrong epoch: one cookie
  /// sweep fixes them all, no delete+add round-trip.
  int restampCount = 0;
  bool flipEpoch = false;  ///< an ingress the scope stamps is not at the epoch
  [[nodiscard]] bool empty() const {
    return removes.empty() && adds.empty() && restampCount == 0 && !flipEpoch;
  }
  [[nodiscard]] int mods() const {
    return static_cast<int>(removes.size() + adds.size()) + (restampCount > 0 ? 1 : 0) +
           (flipEpoch ? 1 : 0);
  }
};

/// The one live→desired reconcile: what switch `sw` (as `live` shows it)
/// needs so that the rules and ingress stamps `scope` owns there are exactly
/// `desired` at `epoch`. Rules outside the scope are invisible: they can be
/// neither deleted, restamped, nor counted.
ConvergeOps reconcile(const openflow::TableSnapshot& live,
                      const std::vector<openflow::FlowEntry>& desired,
                      const Scope& scope, int sw, std::uint32_t epoch);

/// Apply `ops` to switch `sw` as one bundle: removes first (the table never
/// holds both an entry and its replacement), then adds, the restamp sweep,
/// and the stamp flip. Every op is attempted; returns the first add a full
/// table refused.
Status<Error> apply(openflow::Switch& ofs, int sw, const ConvergeOps& ops,
                    const Scope& scope, std::uint32_t epoch);

/// Recompute `deployment`'s entry totals from its switches: the rules
/// `scope` owns on each.
void recount(Deployment& deployment, const Scope& scope);

}  // namespace sdt::controller::detail
