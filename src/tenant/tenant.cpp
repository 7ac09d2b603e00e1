#include "tenant/tenant.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <unordered_map>

#include "common/strings.hpp"
#include "openflow/flow_table.hpp"
#include "sim/consistency.hpp"

namespace sdt::tenant {

namespace {

/// Key for looking up a physical port in O(log n) maps.
[[nodiscard]] std::pair<int, int> portKey(const projection::PhysPort& p) {
  return {p.sw, p.port};
}

}  // namespace

TenantManager::TenantManager(projection::Plant plant) : plant_(std::move(plant)) {
  const auto n = static_cast<std::size_t>(plant_.numSwitches());
  switches_.reserve(n);
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    const projection::PhysicalSwitchSpec& spec =
        plant_.switches[static_cast<std::size_t>(sw)];
    switches_.push_back(std::make_shared<openflow::Switch>(sw, spec.numPorts,
                                                           spec.flowTableCapacity));
  }
  selfOwner_.assign(plant_.selfLinks.size(), 0);
  interOwner_.assign(plant_.interLinks.size(), 0);
  hostPortOwner_.assign(plant_.hostPorts.size(), 0);
  reserved_.assign(n, 0);
}

std::uint32_t TenantManager::allocateHostBase(int numHosts) const {
  // First-fit over the live slices' [base, base + n) ranges: evicted ranges
  // are reusable (their entries and epoch stamps are gone), so long-running
  // serve loops do not grow the host-id space without bound.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  for (const auto& [id, slice] : slices_) {
    ranges.emplace_back(slice.hostBase,
                        slice.hostBase +
                            static_cast<std::uint32_t>(slice.topology->numHosts()));
  }
  std::sort(ranges.begin(), ranges.end());
  std::uint32_t base = 0;
  for (const auto& [lo, hi] : ranges) {
    if (base + static_cast<std::uint32_t>(numHosts) <= lo) break;
    base = std::max(base, hi);
  }
  return base;
}

Result<AdmissionReport> TenantManager::admit(const TenantSpec& spec) {
  if (spec.topology == nullptr || spec.routing == nullptr) {
    return makeError("tenant admit: topology and routing are required");
  }
  if (nextId_ == 0xFFFF) {
    return makeError("tenant admit: tenant-id space exhausted");
  }
  const std::uint16_t id = nextId_;

  // -- 1. Candidate slice: every switch, but only the FREE cables/ports. ----
  projection::Plant candidate;
  candidate.switches = plant_.switches;
  std::vector<int> candSelfToShared;
  std::vector<int> candInterToShared;
  std::vector<int> candHostToShared;
  for (std::size_t i = 0; i < plant_.selfLinks.size(); ++i) {
    if (selfOwner_[i] != 0) continue;
    candidate.selfLinks.push_back(plant_.selfLinks[i]);
    candSelfToShared.push_back(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < plant_.interLinks.size(); ++i) {
    if (interOwner_[i] != 0) continue;
    candidate.interLinks.push_back(plant_.interLinks[i]);
    candInterToShared.push_back(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < plant_.hostPorts.size(); ++i) {
    if (hostPortOwner_[i] != 0) continue;
    candidate.hostPorts.push_back(plant_.hostPorts[i]);
    candHostToShared.push_back(static_cast<int>(i));
  }
  // No flexPorts: on-demand optical circuits are plant-global state and are
  // not sliced (a slice that needs more links asks for more fixed spares).

  const std::uint32_t hostBase = allocateHostBase(spec.topology->numHosts());
  controller::DeployOptions opts = spec.deploy;
  opts.tenant = id;
  opts.hostAddrBase = hostBase;

  controller::SdtController probe(candidate);
  auto probed = probe.deploy(*spec.topology, *spec.routing, opts);
  if (!probed) {
    return makeError("tenant admit (" + spec.name +
                     "): free cables cannot realize the topology: " +
                     probed.error().message);
  }

  // -- 2. Owned resources = what the probe used + requested spares. ---------
  std::set<int> ownSelf;
  std::set<int> ownInter;
  for (const projection::RealizedLink& rl : probed.value().projection.realizedLinks()) {
    if (rl.interSwitch) {
      ownInter.insert(candInterToShared[static_cast<std::size_t>(rl.physLink)]);
    } else {
      ownSelf.insert(candSelfToShared[static_cast<std::size_t>(rl.physLink)]);
    }
  }
  std::set<int> ownHostPorts;
  {
    std::map<std::pair<int, int>, int> hostPortIdx;
    for (std::size_t i = 0; i < plant_.hostPorts.size(); ++i) {
      hostPortIdx[portKey(plant_.hostPorts[i])] = static_cast<int>(i);
    }
    for (topo::HostId h = 0; h < spec.topology->numHosts(); ++h) {
      const projection::PhysPort pp = probed.value().projection.hostPortOf(h);
      const auto it = hostPortIdx.find(portKey(pp));
      if (it == hostPortIdx.end()) {
        return makeError("tenant admit: projection used an unknown host port");
      }
      ownHostPorts.insert(it->second);
    }
  }
  if (spec.spareSelfLinksPerSwitch > 0) {
    std::vector<int> taken(static_cast<std::size_t>(plant_.numSwitches()), 0);
    for (std::size_t i = 0; i < plant_.selfLinks.size(); ++i) {
      const int sw = plant_.selfLinks[i].a.sw;
      if (selfOwner_[i] != 0 || ownSelf.count(static_cast<int>(i)) > 0) continue;
      if (taken[static_cast<std::size_t>(sw)] >= spec.spareSelfLinksPerSwitch) continue;
      ownSelf.insert(static_cast<int>(i));
      ++taken[static_cast<std::size_t>(sw)];
    }
  }
  if (spec.spareInterLinksPerPair > 0) {
    std::map<std::pair<int, int>, int> taken;
    for (std::size_t i = 0; i < plant_.interLinks.size(); ++i) {
      const projection::PhysLink& pl = plant_.interLinks[i];
      const std::pair<int, int> pair{std::min(pl.a.sw, pl.b.sw),
                                     std::max(pl.a.sw, pl.b.sw)};
      if (interOwner_[i] != 0 || ownInter.count(static_cast<int>(i)) > 0) continue;
      if (taken[pair] >= spec.spareInterLinksPerPair) continue;
      ownInter.insert(static_cast<int>(i));
      ++taken[pair];
    }
  }

  // -- 3. Final slice plant: exactly the owned resources. -------------------
  TenantSlice slice;
  slice.id = id;
  slice.name = spec.name;
  slice.hostBase = hostBase;
  slice.topology = spec.topology;
  slice.routing = spec.routing;
  slice.deployOptions = opts;
  slice.plant.switches = plant_.switches;
  for (const int i : ownSelf) {
    slice.plant.selfLinks.push_back(plant_.selfLinks[static_cast<std::size_t>(i)]);
    slice.selfToShared.push_back(i);
  }
  for (const int i : ownInter) {
    slice.plant.interLinks.push_back(plant_.interLinks[static_cast<std::size_t>(i)]);
    slice.interToShared.push_back(i);
  }
  for (const int i : ownHostPorts) {
    slice.plant.hostPorts.push_back(plant_.hostPorts[static_cast<std::size_t>(i)]);
    slice.hostPortToShared.push_back(i);
  }
  slice.controller = std::make_unique<controller::SdtController>(slice.plant);
  auto deployed = slice.controller->deploy(*spec.topology, *spec.routing, opts);
  if (!deployed) {
    return makeError("tenant admit (" + spec.name +
                     "): slice re-projection failed: " + deployed.error().message);
  }
  slice.deployment = std::move(deployed).value();

  // -- 4. Two-version capacity admission. -----------------------------------
  // Every switch must hold two full epochs of every slice's entries at once:
  // that is exactly the headroom planUpdate() will demand when ANY tenant
  // runs a live reconfiguration, checked now so no admitted slice can be
  // wedged out of its own update window by a later arrival.
  AdmissionReport report;
  report.id = id;
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    const std::size_t mine =
        slice.deployment.switches[static_cast<std::size_t>(sw)]->table().size();
    if (reserved_[static_cast<std::size_t>(sw)] + 2 * mine > capacityOf(sw)) {
      return makeError(strFormat(
          "tenant admit (%s): switch %d two-version capacity exceeded "
          "(%zu reserved + 2x%zu new > %zu)",
          spec.name.c_str(), sw, reserved_[static_cast<std::size_t>(sw)], mine,
          capacityOf(sw)));
    }
  }

  // -- 5. Install: copy the slice's entries into the shared switches. -------
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    const auto& fresh = slice.deployment.switches[static_cast<std::size_t>(sw)];
    for (const openflow::FlowEntry& entry : fresh->table().entries()) {
      if (auto added = switches_[static_cast<std::size_t>(sw)]->table().add(entry);
          !added) {
        // Reservation made this impossible; unwind defensively anyway.
        for (auto& shared : switches_) shared->table().removeByTenant(id);
        return makeError("tenant admit (" + spec.name +
                         "): shared install failed: " + added.error().message);
      }
    }
  }
  // The slice's deployment now lives on the shared data plane.
  slice.deployment.switches = switches_;
  // Stamp the slice's host-facing ingress ports with its scoped epoch: its
  // packets enter pinned to its namespace, and a later per-port flip commits
  // its reconfigs without touching any co-tenant port.
  const controller::Scope scope = controller::Scope::of(
      slice.deployment.epoch, slice.deployment.projection, plant_.numSwitches());
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    scope.stamp(*switches_[static_cast<std::size_t>(sw)], sw, slice.deployment.epoch);
  }

  // -- 6. Commit bookkeeping. -----------------------------------------------
  for (const int i : ownSelf) selfOwner_[static_cast<std::size_t>(i)] = id;
  for (const int i : ownInter) interOwner_[static_cast<std::size_t>(i)] = id;
  for (const int i : ownHostPorts) hostPortOwner_[static_cast<std::size_t>(i)] = id;
  report.usedSelfLinks = static_cast<int>(ownSelf.size());
  report.usedInterLinks = static_cast<int>(ownInter.size());
  report.spareSelfLinks =
      static_cast<int>(ownSelf.size()) -
      static_cast<int>(std::count_if(
          slice.deployment.projection.realizedLinks().begin(),
          slice.deployment.projection.realizedLinks().end(),
          [](const projection::RealizedLink& rl) { return !rl.interSwitch; }));
  report.spareInterLinks =
      static_cast<int>(ownInter.size()) -
      slice.deployment.projection.interSwitchLinkCount();
  report.hostPorts = static_cast<int>(ownHostPorts.size());
  report.flowEntries = slice.deployment.totalFlowEntries;

  const auto [it, inserted] = slices_.emplace(id, std::move(slice));
  assert(inserted);
  (void)inserted;
  ++nextId_;
  hostSlots_ = std::max(hostSlots_, static_cast<int>(hostBase) +
                                        spec.topology->numHosts());
  refreshSlice(it->second);
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    const double frac = capacityOf(sw) == 0
                            ? 0.0
                            : static_cast<double>(reserved_[static_cast<std::size_t>(sw)]) /
                                  static_cast<double>(capacityOf(sw));
    report.peakReservedFraction = std::max(report.peakReservedFraction, frac);
  }
  return report;
}

StatusOr TenantManager::evict(std::uint16_t id) {
  const auto it = slices_.find(id);
  if (it == slices_.end()) {
    return makeError(strFormat("tenant evict: no tenant %u", id));
  }
  const TenantSlice& slice = it->second;
  // GC by cookie namespace: only this tenant's entries can match.
  for (auto& sw : switches_) sw->table().removeByTenant(id);
  for (topo::HostId h = 0; h < slice.topology->numHosts(); ++h) {
    const projection::PhysPort pp = slice.deployment.projection.hostPortOf(h);
    switches_[static_cast<std::size_t>(pp.sw)]->clearPortIngressEpoch(pp.port);
  }
  for (std::uint16_t& owner : selfOwner_) {
    if (owner == id) owner = 0;
  }
  for (std::uint16_t& owner : interOwner_) {
    if (owner == id) owner = 0;
  }
  for (std::uint16_t& owner : hostPortOwner_) {
    if (owner == id) owner = 0;
  }
  sliceEntries_.erase(id);
  slices_.erase(it);
  recomputeReservations();
  return StatusOr::okStatus();
}

const TenantSlice* TenantManager::slice(std::uint16_t id) const {
  const auto it = slices_.find(id);
  return it == slices_.end() ? nullptr : &it->second;
}

TenantSlice* TenantManager::mutableSlice(std::uint16_t id) {
  const auto it = slices_.find(id);
  return it == slices_.end() ? nullptr : &it->second;
}

std::vector<std::uint16_t> TenantManager::tenantIds() const {
  std::vector<std::uint16_t> ids;
  ids.reserve(slices_.size());
  for (const auto& [id, slice] : slices_) ids.push_back(id);
  return ids;
}

std::size_t TenantManager::reservedEntries(int sw) const {
  return reserved_[static_cast<std::size_t>(sw)];
}

std::uint16_t TenantManager::tenantOwningPort(projection::PhysPort p) const {
  for (std::size_t i = 0; i < plant_.selfLinks.size(); ++i) {
    if (selfOwner_[i] == 0) continue;
    const projection::PhysLink& pl = plant_.selfLinks[i];
    if (pl.a == p || pl.b == p) return selfOwner_[i];
  }
  for (std::size_t i = 0; i < plant_.interLinks.size(); ++i) {
    if (interOwner_[i] == 0) continue;
    const projection::PhysLink& pl = plant_.interLinks[i];
    if (pl.a == p || pl.b == p) return interOwner_[i];
  }
  for (std::size_t i = 0; i < plant_.hostPorts.size(); ++i) {
    if (hostPortOwner_[i] != 0 && plant_.hostPorts[i] == p) return hostPortOwner_[i];
  }
  return 0;
}

void TenantManager::refreshSlice(TenantSlice& slice) {
  std::vector<std::size_t>& entries = sliceEntries_[slice.id];
  entries.assign(static_cast<std::size_t>(plant_.numSwitches()), 0);
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    entries[static_cast<std::size_t>(sw)] =
        switches_[static_cast<std::size_t>(sw)]->table().countTenant(slice.id);
  }
  // Egress queues this slice's traffic can occupy: both ends of every owned
  // cable plus its host attachment ports.
  std::set<std::pair<int, int>> watch;
  for (const int i : slice.selfToShared) {
    const projection::PhysLink& pl = plant_.selfLinks[static_cast<std::size_t>(i)];
    watch.insert(portKey(pl.a));
    watch.insert(portKey(pl.b));
  }
  for (const int i : slice.interToShared) {
    const projection::PhysLink& pl = plant_.interLinks[static_cast<std::size_t>(i)];
    watch.insert(portKey(pl.a));
    watch.insert(portKey(pl.b));
  }
  for (const int i : slice.hostPortToShared) {
    watch.insert(portKey(plant_.hostPorts[static_cast<std::size_t>(i)]));
  }
  slice.watchPorts.assign(watch.begin(), watch.end());
  recomputeReservations();
}

void TenantManager::recomputeReservations() {
  reserved_.assign(static_cast<std::size_t>(plant_.numSwitches()), 0);
  for (const auto& [id, perSwitch] : sliceEntries_) {
    for (std::size_t sw = 0; sw < perSwitch.size(); ++sw) {
      reserved_[sw] += 2 * perSwitch[sw];
    }
  }
}

Result<controller::UpdatePlan> TenantManager::planSliceUpdate(
    std::uint16_t id, const topo::Topology& next,
    const routing::RoutingAlgorithm& routing) {
  const auto it = slices_.find(id);
  if (it == slices_.end()) {
    return makeError(strFormat("tenant planSliceUpdate: no tenant %u", id));
  }
  TenantSlice& slice = it->second;
  auto planned =
      slice.controller->planUpdate(slice.deployment, next, routing, slice.deployOptions);
  if (!planned) return planned.error();
  controller::UpdatePlan plan = std::move(planned).value();

  // Reservation re-check: the update window holds old + new <= 2 x max, and
  // the committed state may be permanently larger than the admitted one.
  std::vector<std::size_t>& mine = sliceEntries_.at(id);
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    const std::size_t oldCnt = mine[static_cast<std::size_t>(sw)];
    const std::size_t newCnt = plan.tables[static_cast<std::size_t>(sw)].size();
    const std::size_t others = reserved_[static_cast<std::size_t>(sw)] - 2 * oldCnt;
    if (others + 2 * std::max(oldCnt, newCnt) > capacityOf(sw)) {
      return makeError(strFormat(
          "tenant %u reconfiguration would break switch %d two-version "
          "capacity (%zu others + 2x%zu > %zu)",
          id, sw, others, std::max(oldCnt, newCnt), capacityOf(sw)));
    }
  }
  // Hold the window's worst case until noteReconfigured() settles it.
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    mine[static_cast<std::size_t>(sw)] =
        std::max(mine[static_cast<std::size_t>(sw)],
                 plan.tables[static_cast<std::size_t>(sw)].size());
  }
  recomputeReservations();
  return plan;
}

void TenantManager::noteReconfigured(std::uint16_t id, const topo::Topology* topology,
                                     const routing::RoutingAlgorithm* routing) {
  const auto it = slices_.find(id);
  if (it == slices_.end()) return;
  if (topology != nullptr) it->second.topology = topology;
  if (routing != nullptr) it->second.routing = routing;
  refreshSlice(it->second);
}

Result<controller::RepairReport> TenantManager::repairSlice(
    std::uint16_t id, const controller::FailureSet& failures) {
  const auto it = slices_.find(id);
  if (it == slices_.end()) {
    return makeError(strFormat("tenant repairSlice: no tenant %u", id));
  }
  TenantSlice& slice = it->second;
  // Fault containment: only failures on this slice's own cables and host
  // ports reach its repair path. A crashed switch is shared hardware —
  // every tenant re-installs its own namespace's entries there, so those
  // pass through (the diff on a switch the slice never touched is empty).
  controller::FailureSet scoped;
  scoped.crashedSwitches = failures.crashedSwitches;
  for (const projection::PhysPort& p : failures.ports) {
    if (tenantOwningPort(p) == id) scoped.ports.push_back(p);
  }
  if (scoped.empty()) return controller::RepairReport{};
  auto repaired = slice.controller->repair(slice.deployment, *slice.topology,
                                           *slice.routing, scoped, slice.deployOptions);
  if (repaired) refreshSlice(slice);
  return repaired;
}

sim::BuiltNetwork TenantManager::buildNetwork(sim::Simulator& sim,
                                              const sim::NetworkConfig& config,
                                              const sim::CrossbarModel& crossbar,
                                              sim::EpochConsistencyChecker* checker) const {
  sim::BuiltNetwork built;
  built.net = std::make_unique<sim::Network>(sim, config);
  built.ofSwitches = switches_;
  sim::Network& net = *built.net;

  for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
    std::shared_ptr<openflow::Switch> ofs = switches_[static_cast<std::size_t>(psw)];
    sim::Forwarder forwarder = [ofs, checker, psw](const sim::Packet& pkt, int inPort) {
      const openflow::ForwardDecision decision =
          ofs->process(pkt.header(inPort), pkt.wireBytes());
      if (checker != nullptr) {
        checker->onLookup(pkt.id, psw, decision.matched, decision.ruleEpoch);
      }
      sim::ForwardResult result;
      result.drop = decision.drop;
      result.outPort = decision.outPort;
      result.vc = decision.vc >= 0 ? decision.vc : pkt.vc;
      result.epoch = decision.stampEpoch;
      return result;
    };
    // Crossbar arbitration scales with the TOTAL sub-switch load the
    // physical switch carries across every slice (co-tenancy is visible as
    // latency, never as misrouting).
    int subSwitches = 0;
    for (const auto& [id, slice] : slices_) {
      subSwitches += slice.deployment.projection.subSwitchCountOn(psw);
    }
    const int id = net.addSwitch(plant_.switches[static_cast<std::size_t>(psw)].numPorts,
                                 std::move(forwarder), crossbar.extra(subSwitches));
    assert(id == psw);
    (void)id;
  }
  // Global host-id space, holes from evicted slices included: an orphan
  // host has no NIC link and never injects.
  for (int h = 0; h < hostSlots_; ++h) {
    const int id = net.addHost();
    assert(id == h);
    (void)id;
  }

  // Every fixed cable is wired (spares are repair's landing zone); realized
  // links run at their slice's configured logical speed.
  std::unordered_map<int, Gbps> selfSpeed;
  std::unordered_map<int, Gbps> interSpeed;
  for (const auto& [id, slice] : slices_) {
    for (const projection::RealizedLink& rl :
         slice.deployment.projection.realizedLinks()) {
      const topo::Link& logical = slice.topology->link(rl.logicalLink);
      if (rl.interSwitch) {
        interSpeed.emplace(slice.interToShared[static_cast<std::size_t>(rl.physLink)],
                           logical.speed);
      } else {
        selfSpeed.emplace(slice.selfToShared[static_cast<std::size_t>(rl.physLink)],
                          logical.speed);
      }
    }
  }
  for (std::size_t i = 0; i < plant_.selfLinks.size(); ++i) {
    const projection::PhysLink& phys = plant_.selfLinks[i];
    const auto speedIt = selfSpeed.find(static_cast<int>(i));
    const Gbps speed = speedIt != selfSpeed.end()
                           ? speedIt->second
                           : plant_.switches[static_cast<std::size_t>(phys.a.sw)].portSpeed;
    net.connectSwitches(phys.a.sw, phys.a.port, phys.b.sw, phys.b.port, speed,
                        config.selfLinkPropDelay);
  }
  for (std::size_t i = 0; i < plant_.interLinks.size(); ++i) {
    const projection::PhysLink& phys = plant_.interLinks[i];
    const auto speedIt = interSpeed.find(static_cast<int>(i));
    const Gbps speed = speedIt != interSpeed.end()
                           ? speedIt->second
                           : plant_.switches[static_cast<std::size_t>(phys.a.sw)].portSpeed;
    net.connectSwitches(phys.a.sw, phys.a.port, phys.b.sw, phys.b.port, speed,
                        config.interSwitchPropDelay);
  }
  for (const auto& [id, slice] : slices_) {
    for (topo::HostId h = 0; h < slice.topology->numHosts(); ++h) {
      const projection::PhysPort pp = slice.deployment.projection.hostPortOf(h);
      net.connectHost(static_cast<int>(slice.hostBase) + h, pp.sw, pp.port,
                      slice.topology->hostLink(h).speed, config.hostPropDelay);
    }
  }
  net.partitionShards();
  return built;
}

}  // namespace sdt::tenant
