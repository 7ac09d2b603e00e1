#include "obs/collectors.hpp"

namespace sdt::obs {

namespace {

Labels swLabel(int sw) { return {{"sw", std::to_string(sw)}}; }

}  // namespace

void registerNetworkCollector(Registry& registry, const sim::Network& net) {
  registry.addCollector([&registry, &net]() {
    for (int sw = 0; sw < net.numSwitches(); ++sw) {
      std::uint64_t txP = 0, txB = 0, rxP = 0, rxB = 0, drops = 0, pauses = 0,
                    ecn = 0, fault = 0, corrupted = 0;
      for (int p = 0; p < net.switchPortCount(sw); ++p) {
        const sim::PortCounters& c = net.switchPortCounters(sw, p);
        txP += c.txPackets;
        txB += c.txBytes;
        rxP += c.rxPackets;
        rxB += c.rxBytes;
        drops += c.drops;
        pauses += c.pausesSent;
        ecn += c.ecnMarks;
        fault += c.faultDrops;
        corrupted += c.corruptedPackets;
      }
      const Labels l = swLabel(sw);
      registry.counter("sdt_net_tx_packets_total", l, "Packets transmitted per switch")
          .syncTo(txP);
      registry.counter("sdt_net_tx_bytes_total", l, "Bytes transmitted per switch")
          .syncTo(txB);
      registry.counter("sdt_net_rx_packets_total", l, "Packets received per switch")
          .syncTo(rxP);
      registry.counter("sdt_net_rx_bytes_total", l, "Bytes received per switch")
          .syncTo(rxB);
      registry.counter("sdt_net_drops_total", l, "Packets dropped per switch")
          .syncTo(drops);
      registry.counter("sdt_net_pauses_total", l, "PFC PAUSE frames sent per switch")
          .syncTo(pauses);
      registry.counter("sdt_net_ecn_marks_total", l, "ECN-marked packets per switch")
          .syncTo(ecn);
      registry
          .counter("sdt_net_fault_drops_total", l,
                   "Drops caused by injected faults per switch")
          .syncTo(fault);
      registry
          .counter("sdt_net_corrupted_packets_total", l,
                   "Frames damaged by injected impairment per switch")
          .syncTo(corrupted);
    }
    registry.counter("sdt_net_total_drops", {}, "Network-wide packet drops")
        .syncTo(net.totalDrops());
    registry
        .gauge("sdt_net_peak_queue_bytes", {},
               "Maximum egress queue occupancy observed anywhere")
        .set(static_cast<double>(net.peakQueueBytes()));
  });
}

void registerControlChannelCollector(Registry& registry,
                                     const sim::ControlChannel& channel) {
  registry.addCollector([&registry, &channel]() {
    const sim::ControlChannelStats& s = channel.stats();
    const auto sync = [&registry](const char* result, std::uint64_t v) {
      registry
          .counter("sdt_ctrl_msgs_total", {{"result", result}},
                   "Control-channel messages by outcome")
          .syncTo(v);
    };
    sync("sent", s.sent);
    sync("delivered", s.delivered);
    sync("dropped", s.dropped);
    sync("disconnected", s.disconnected);
    sync("duplicated", s.duplicated);
    sync("reordered", s.reordered);
    registry
        .counter("sdt_ctrl_delay_ns_total", {},
                 "Sum of scheduled one-way control-message delays (sim ns)")
        .syncTo(s.delayNsTotal);
    registry
        .gauge("sdt_ctrl_delay_max_ns", {},
               "Largest scheduled one-way control-message delay (sim ns)")
        .set(static_cast<double>(s.delayMaxNs));
  });
}

void registerSwitchCollector(
    Registry& registry, std::vector<std::shared_ptr<openflow::Switch>> switches) {
  registry.addCollector([&registry, switches = std::move(switches)]() {
    for (const auto& swPtr : switches) {
      if (!swPtr) continue;
      const openflow::Switch& sw = *swPtr;
      const Labels l = swLabel(sw.id());
      const openflow::FlowTable& table = sw.table();
      registry.gauge("sdt_of_table_entries", l, "Installed flow-table entries")
          .set(static_cast<double>(table.size()));
      registry.gauge("sdt_of_table_capacity", l, "Flow-table capacity (TCAM limit)")
          .set(static_cast<double>(table.capacity()));
      const auto mods = [&registry, &l](const char* op, std::uint64_t v) {
        Labels labels = l;
        labels.emplace_back("op", op);
        registry
            .counter("sdt_of_flow_mods_total", labels,
                     "Flow-table mutations by operation")
            .syncTo(v);
      };
      mods("add", table.addsTotal());
      mods("remove", table.removesTotal());
      mods("restamp", table.restampsTotal());
      registry
          .counter("sdt_of_xid_dup_hits_total", l,
                   "Duplicate flow-mod bundles refused by xid dedup")
          .syncTo(sw.xidDupHits());
      registry.counter("sdt_of_barriers_total", l, "Barrier requests processed")
          .syncTo(sw.barriersSeen());
    }
  });
}

}  // namespace sdt::obs
