#include "sim/builder.hpp"

#include <cassert>
#include <optional>

#include "sim/consistency.hpp"

namespace sdt::sim {

BuiltNetwork buildLogicalNetwork(Simulator& sim, const topo::Topology& topo,
                                 const routing::RoutingAlgorithm& routing,
                                 const NetworkConfig& config) {
  BuiltNetwork built;
  built.net = std::make_unique<Network>(sim, config);
  Network& net = *built.net;

  // Per-switch host delivery map: host -> local port.
  std::vector<std::vector<std::pair<topo::HostId, topo::PortId>>> hostPortOf(
      static_cast<std::size_t>(topo.numSwitches()));
  for (const topo::HostLink& hl : topo.hostLinks()) {
    hostPortOf[hl.attach.sw].emplace_back(hl.host, hl.attach.port);
  }

  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    const auto& delivery = hostPortOf[sw];
    Forwarder forwarder = [&routing, &topo, sw, delivery](const Packet& pkt,
                                                          int /*inPort*/) {
      ForwardResult result;
      if (topo.hostSwitch(pkt.dstHost) == sw) {
        for (const auto& [host, port] : delivery) {
          if (host == pkt.dstHost) {
            result.outPort = port;
            result.vc = pkt.vc;
            return result;
          }
        }
        return result;  // host map inconsistency -> drop
      }
      // Per-destination ECMP hash, matching the controller's proactive
      // flow-table compilation so both planes pick identical paths.
      auto hop = routing.nextHop(sw, pkt.dstHost, pkt.vc,
                                 static_cast<std::uint64_t>(pkt.dstHost));
      if (!hop) return result;
      result.outPort = hop.value().outPort;
      result.vc = hop.value().vc;
      return result;
    };
    const int id = net.addSwitch(topo.radix(sw), std::move(forwarder), /*extraLatency=*/0);
    assert(id == sw);
    (void)id;
  }
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) {
    const int id = net.addHost();
    assert(id == h);
    (void)id;
  }
  for (const topo::Link& link : topo.links()) {
    net.connectSwitches(link.a.sw, link.a.port, link.b.sw, link.b.port, link.speed,
                        kLinkPropDelay);
  }
  for (const topo::HostLink& hl : topo.hostLinks()) {
    net.connectHost(hl.host, hl.attach.sw, hl.attach.port, hl.speed,
                    kHostPropDelay);
  }
  net.partitionShards();
  return built;
}

BuiltNetwork buildProjectedNetwork(Simulator& sim, const projection::Plant& plant,
                                   const std::vector<PlacedTopology>& placed, int numHosts,
                                   std::vector<std::shared_ptr<openflow::Switch>>
                                       programmedSwitches,
                                   const NetworkConfig& config,
                                   const CrossbarModel& crossbar,
                                   EpochConsistencyChecker* checker) {
  assert(static_cast<int>(programmedSwitches.size()) == plant.numSwitches());
  BuiltNetwork built;
  built.net = std::make_unique<Network>(sim, config);
  built.ofSwitches = std::move(programmedSwitches);
  Network& net = *built.net;

  for (int psw = 0; psw < plant.numSwitches(); ++psw) {
    std::shared_ptr<openflow::Switch> ofs = built.ofSwitches[psw];
    assert(ofs != nullptr && ofs->numPorts() >= plant.switches[psw].numPorts);
    Forwarder forwarder = [ofs, checker, psw](const Packet& pkt, int inPort) {
      const openflow::ForwardDecision decision = ofs->process(pkt.header(inPort));
      if (checker != nullptr) {
        checker->onLookup(pkt.id, psw, decision.matched, decision.ruleEpoch);
      }
      ForwardResult result;
      result.outPort = decision.outPort;
      result.vc = decision.vc >= 0 ? decision.vc : pkt.vc;
      result.epoch = decision.stampEpoch;
      return result;
    };
    // Crossbar arbitration scales with the total sub-switch load the
    // physical switch carries across every placed topology (co-tenancy is
    // visible as latency, never as misrouting).
    int subSwitches = 0;
    for (const PlacedTopology& p : placed) subSwitches += p.projection->subSwitchCountOn(psw);
    const int id = net.addSwitch(plant.switches[psw].numPorts, std::move(forwarder),
                                 crossbar.extra(subSwitches));
    assert(id == psw);
    (void)id;
  }
  // Ids no placed topology claims (a tenant plane's evicted host ranges)
  // are orphan hosts: no NIC link, never inject.
  for (topo::HostId h = 0; h < numHosts; ++h) {
    const int id = net.addHost();
    assert(id == h);
    (void)id;
  }

  // The plant's fixed cabling is installed once and never moves (§IV), so
  // wire *every* fixed cable — not just the ones a projection realized.
  // Spare cables carry no flow entries (no traffic can touch them), but they
  // are exactly the healthy ports SdtController::repair() re-projects onto
  // after a failure, so the data plane must have them. Realized links run at
  // the logical link's configured speed (breakout), spares at native port
  // speed; a realized cable is found by its `a` end port, which a slice
  // plant shares with the shared plant while its link indices differ.
  // On-demand optical circuits exist only while realized.
  std::vector<std::vector<std::optional<Gbps>>> realizedSpeed(
      static_cast<std::size_t>(plant.numSwitches()));
  for (int psw = 0; psw < plant.numSwitches(); ++psw) {
    realizedSpeed[psw].resize(static_cast<std::size_t>(plant.switches[psw].numPorts));
  }
  for (const PlacedTopology& p : placed) {
    for (const projection::RealizedLink& rl : p.projection->realizedLinks()) {
      const Gbps speed = p.topology->link(rl.logicalLink).speed;
      if (rl.optical) {
        const projection::PhysLink& phys = p.projection->opticalCircuits()[rl.physLink];
        // Optical circuits detour through the OCS: a little extra fiber.
        const TimeNs prop =
            (rl.interSwitch ? kInterSwitchPropDelay : kSelfLinkPropDelay) + 25;
        net.connectSwitches(phys.a.sw, phys.a.port, phys.b.sw, phys.b.port, speed, prop);
        continue;
      }
      const projection::PhysLink& phys = rl.interSwitch ? p.plant->interLinks[rl.physLink]
                                                        : p.plant->selfLinks[rl.physLink];
      std::optional<Gbps>& slot = realizedSpeed[phys.a.sw][phys.a.port];
      if (!slot) slot = speed;
    }
  }
  const auto wire = [&](const projection::PhysLink& phys, TimeNs prop) {
    const Gbps speed =
        realizedSpeed[phys.a.sw][phys.a.port].value_or(plant.switches[phys.a.sw].portSpeed);
    net.connectSwitches(phys.a.sw, phys.a.port, phys.b.sw, phys.b.port, speed, prop);
  };
  for (const projection::PhysLink& phys : plant.selfLinks) wire(phys, kSelfLinkPropDelay);
  for (const projection::PhysLink& phys : plant.interLinks) wire(phys, kInterSwitchPropDelay);
  for (const PlacedTopology& p : placed) {
    for (topo::HostId h = 0; h < p.topology->numHosts(); ++h) {
      const projection::PhysPort pp = p.projection->hostPortOf(h);
      net.connectHost(p.hostBase + h, pp.sw, pp.port, p.topology->hostLink(h).speed,
                      kHostPropDelay);
    }
  }
  net.partitionShards();
  return built;
}

BuiltNetwork buildProjectedNetwork(Simulator& sim, const topo::Topology& topo,
                                   const projection::Projection& projection,
                                   const projection::Plant& plant,
                                   std::vector<std::shared_ptr<openflow::Switch>>
                                       programmedSwitches,
                                   const NetworkConfig& config,
                                   const CrossbarModel& crossbar,
                                   EpochConsistencyChecker* checker) {
  return buildProjectedNetwork(sim, plant, {{&topo, &projection, &plant, 0}}, topo.numHosts(),
                               std::move(programmedSwitches), config, crossbar, checker);
}

}  // namespace sdt::sim
