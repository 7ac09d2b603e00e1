// Pull collectors: bridge existing stats surfaces into an obs::Registry.
//
// The data-plane hot paths (per-packet counters in sim::Network, flow-mod
// totals in openflow::FlowTable, delivery accounting in ControlChannel)
// already maintain cheap plain counters; registering a collector copies
// them into labeled registry families only when a snapshot is exported, so
// instrumentation costs the fast paths nothing. Counters sync via
// Counter::syncTo (monotonic even across a switch reboot that wipes the
// source); gauges overwrite.
//
// Lifetime: each collector captures a reference to its source. Register
// collectors on a registry that does not outlive the network/channel/
// switches it watches — in practice both live side by side in a testbed
// Instance or a bench/sweep point.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "openflow/of_switch.hpp"
#include "sim/control_channel.hpp"
#include "sim/network.hpp"

namespace sdt::obs {

/// Per-switch data-plane families (label "sw"): sdt_net_{tx,rx}_packets_total,
/// sdt_net_{tx,rx}_bytes_total, sdt_net_drops_total, sdt_net_pauses_total,
/// sdt_net_ecn_marks_total, sdt_net_fault_drops_total, plus the global
/// gauges sdt_net_peak_queue_bytes and counter sdt_net_total_drops.
void registerNetworkCollector(Registry& registry, const sim::Network& net);

/// Control-channel families: sdt_ctrl_msgs_total{result=sent|delivered|
/// dropped|disconnected|duplicated|reordered}, sdt_ctrl_delay_ns_total,
/// and gauge sdt_ctrl_delay_max_ns.
void registerControlChannelCollector(Registry& registry,
                                     const sim::ControlChannel& channel);

/// OpenFlow switch families (label "sw"): gauge sdt_of_table_entries /
/// sdt_of_table_capacity, counters sdt_of_flow_mods_total{op=add|remove|
/// restamp}, sdt_of_xid_dup_hits_total, sdt_of_barriers_total.
/// `switches` is copied (shared ownership), matching how
/// BuiltNetwork::ofSwitches shares the models with the forwarders.
void registerSwitchCollector(
    Registry& registry,
    std::vector<std::shared_ptr<openflow::Switch>> switches);

}  // namespace sdt::obs
