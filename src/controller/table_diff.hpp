// Shared flow-table compilation and diff machinery (controller internals).
//
// deploy(), planUpdate(), repair(), and crash recovery all compile a routing
// strategy into per-physical-switch flow entries; repair() and recovery's
// converge rounds also compute the multiset difference between a live table
// (recovery's is *read back* from the switch) and the desired one. The
// `detail` namespace marks them as internals with stable semantics but no
// API promise to code outside src/controller.
#pragma once

#include <cstdint>
#include <string>
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

/// Serialized rule identity for the incremental diffs' multiset keys.
/// Counters are excluded (like openflow::sameRule) and so is the cookie's
/// *epoch* half: a rule that survives a reconfiguration unchanged except for
/// its epoch stamp is the same rule — charging a delete+add for it would
/// make every diff as expensive as a full redeploy.
std::string ruleKey(const openflow::FlowEntry& e);

/// Per-switch multiset diff of a live entry list against the desired one:
/// what an incremental update must strict-delete and add. Shared by
/// repair() and recovery convergence.
struct TableDiff {
  std::vector<openflow::FlowEntry> toRemove;        ///< copies of live entries
  std::vector<const openflow::FlowEntry*> toAdd;    ///< pointers into desired
};

TableDiff diffEntries(const std::vector<openflow::FlowEntry>& live,
                      const std::vector<openflow::FlowEntry>& desired);

}  // namespace sdt::controller::detail
