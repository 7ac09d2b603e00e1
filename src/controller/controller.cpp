#include "controller/controller.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "common/strings.hpp"
#include "controller/table_diff.hpp"
#include "partition/partitioner.hpp"
#include "routing/degraded.hpp"

namespace sdt::controller {

namespace {

/// Connected-component label per logical switch over the links `severedMask`
/// leaves standing (null = every link). Components are numbered in order of
/// their lowest switch id.
std::vector<int> componentLabels(const topo::Topology& topo,
                                 const std::vector<char>* severedMask) {
  std::vector<int> component(static_cast<std::size_t>(topo.numSwitches()), -1);
  int label = 0;
  for (int start = 0; start < topo.numSwitches(); ++start) {
    if (component[start] != -1) continue;
    std::vector<int> frontier{start};
    component[start] = label;
    while (!frontier.empty()) {
      const int sw = frontier.back();
      frontier.pop_back();
      for (const int li : topo.linksOf(sw)) {
        if (severedMask != nullptr && (*severedMask)[li]) continue;
        const int peer = topo.link(li).peerOf(sw).sw;
        if (component[peer] == -1) {
          component[peer] = label;
          frontier.push_back(peer);
        }
      }
    }
    ++label;
  }
  return component;
}

}  // namespace

// Shared with crash recovery via controller/table_diff.hpp; doc comments
// live on the declarations there.
namespace detail {

Result<std::vector<std::vector<openflow::FlowEntry>>> compileFlowTables(
    const topo::Topology& topo, const projection::Projection& projection,
    const projection::Plant& plant, const routing::RoutingAlgorithm& routing,
    const DeployOptions& options, std::uint32_t epoch,
    const std::vector<char>* severedMask) {
  std::vector<std::vector<openflow::FlowEntry>> tables(
      static_cast<std::size_t>(plant.numSwitches()));
  const int vcs = routing.numVcs();

  // Connected-component labels: a deployment may hold several mutually
  // isolated topologies at once (§VI-B); no rule is emitted across islands,
  // so cross-island packets die on table miss — isolation by construction.
  // A degraded topology may also have split: components follow the
  // *surviving* links.
  const std::vector<int> component = componentLabels(topo, severedMask);

  // Physical host port per host, for delivery rules.
  const auto hostPhys = [&](topo::HostId h) { return projection.hostPortOf(h); };

  // Every packet is matched by (ingress port, destination [, VC]); the
  // ingress port pins the packet to its sub-switch, which is what keeps two
  // co-resident topologies/sub-switches isolated (§VI-B).
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    const int physSw = projection.physSwitchOf(sw);
    // Ingress ports of this sub-switch: all mapped fabric ports + the host
    // ports of hosts attached to this logical switch.
    std::vector<std::pair<int, bool>> ingress;  // (physical port, isHostPort)
    for (topo::PortId lp = 0; lp < topo.radix(sw); ++lp) {
      const projection::PhysPort pp = projection.physOf(topo::SwitchPort{sw, lp});
      if (pp.valid()) ingress.emplace_back(pp.port, false);
    }
    for (const topo::HostId h : topo.hostsOf(sw)) {
      ingress.emplace_back(hostPhys(h).port, true);
    }

    for (topo::HostId dst = 0; dst < topo.numHosts(); ++dst) {
      if (component[topo.hostSwitch(dst)] != component[sw]) continue;
      const bool local = topo.hostSwitch(dst) == sw;
      for (int vc = 0; vc < vcs; ++vc) {
        routing::Hop hop{};
        int outPhysPort;
        if (local) {
          outPhysPort = hostPhys(dst).port;
          hop.vc = vc;
        } else {
          auto r = routing.nextHop(sw, dst, vc,
                                   static_cast<std::uint64_t>(dst) + options.ecmpSalt);
          if (!r) return r.error();
          hop = r.value();
          const projection::PhysPort pp =
              projection.physOf(topo::SwitchPort{sw, hop.outPort});
          if (!pp.valid()) {
            return makeError(strFormat("switch %d port %d not projected", sw, hop.outPort));
          }
          outPhysPort = pp.port;
        }
        for (const auto& [inPort, isHostPort] : ingress) {
          if (!local && inPort == outPhysPort) continue;  // never hairpin a fabric port
          if (local && inPort == outPhysPort) continue;   // host's own delivery port
          openflow::FlowEntry entry;
          entry.priority = 100;
          entry.match.inPort = inPort;
          entry.match.dstAddr = options.hostAddrBase + static_cast<std::uint32_t>(dst);
          // Host-injected packets always carry VC0, so the VC match is only
          // meaningful on fabric ingress; host ports get the vc==0 rule.
          if (vcs > 1) {
            if (isHostPort && vc != 0) continue;
            if (!isHostPort) entry.match.trafficClass = static_cast<std::uint8_t>(vc);
          }
          entry.cookie =
              openflow::makeCookie(epoch, static_cast<std::uint32_t>(sw) + 1);
          if (!local && hop.vc != vc) {
            entry.actions.push_back(openflow::Action::setVc(hop.vc));
          }
          entry.actions.push_back(openflow::Action::output(outPhysPort));
          tables[physSw].push_back(std::move(entry));
        }
      }
    }
  }
  return tables;
}

std::string ruleKey(const openflow::FlowEntry& e) {
  std::string key = strFormat("p%d c%u m", e.priority, openflow::cookieTag(e.cookie));
  key += e.match.describe();
  for (const openflow::Action& a : e.actions) {
    key += strFormat(" a%d:%d", static_cast<int>(a.type), a.arg);
  }
  return key;
}

TableDiff diffEntries(const std::vector<openflow::FlowEntry>& live,
                      const std::vector<openflow::FlowEntry>& desired) {
  TableDiff diff;
  std::map<std::string, int> want;
  for (const openflow::FlowEntry& e : desired) ++want[ruleKey(e)];
  for (const openflow::FlowEntry& e : live) {
    const auto it = want.find(ruleKey(e));
    if (it == want.end() || it->second == 0) {
      diff.toRemove.push_back(e);
    } else {
      --it->second;
    }
  }
  std::map<std::string, int> have;
  for (const openflow::FlowEntry& e : live) ++have[ruleKey(e)];
  for (const openflow::FlowEntry& e : desired) {
    const auto it = have.find(ruleKey(e));
    if (it != have.end() && it->second > 0) {
      --it->second;
    } else {
      diff.toAdd.push_back(e);
    }
  }
  return diff;
}

ConvergeOps reconcile(const openflow::TableSnapshot& live,
                      const std::vector<openflow::FlowEntry>& desired,
                      const Scope& scope, int sw, std::uint32_t epoch) {
  std::vector<openflow::FlowEntry> buffer;
  const std::vector<openflow::FlowEntry>& owned = scope.owned(live.entries, buffer);
  TableDiff diff = diffEntries(owned, desired);
  ConvergeOps ops;
  ops.removes = std::move(diff.toRemove);
  ops.adds = std::move(diff.toAdd);
  // Rules that survive the diff but carry another epoch's stamp only need
  // the cookie sweep, not a delete+add round-trip.
  const auto wrongEpoch = [epoch](const openflow::FlowEntry& e) {
    return openflow::cookieEpoch(e.cookie) != epoch;
  };
  ops.restampCount =
      static_cast<int>(std::count_if(owned.begin(), owned.end(), wrongEpoch) -
                       std::count_if(ops.removes.begin(), ops.removes.end(), wrongEpoch));
  ops.flipEpoch = !scope.stamped(live, sw, epoch);
  return ops;
}

Status<Error> apply(openflow::Switch& ofs, int sw, const ConvergeOps& ops,
                    const Scope& scope, std::uint32_t epoch) {
  Status<Error> status;
  for (const openflow::FlowEntry& e : ops.removes) ofs.table().removeExact(e);
  for (const openflow::FlowEntry& e : ops.adds) {
    if (auto s = ofs.table().add(e); !s && status.ok()) status = s;
  }
  if (ops.restampCount > 0) scope.restamp(ofs.table(), epoch);
  if (ops.flipEpoch) scope.stamp(ofs, sw, epoch);
  return status;
}

void recount(Deployment& deployment, const Scope& scope) {
  deployment.totalFlowEntries = 0;
  deployment.maxEntriesPerSwitch = 0;
  for (const auto& ofs : deployment.switches) {
    const int n = static_cast<int>(scope.ownedCount(ofs->table()));
    deployment.totalFlowEntries += n;
    deployment.maxEntriesPerSwitch = std::max(deployment.maxEntriesPerSwitch, n);
  }
}

}  // namespace detail

using detail::compileFlowTables;

namespace {

/// RAII root span for one controller operation. The controller's work is
/// instantaneous in simulated time, so the span starts at the obs clock's
/// reading and its phases advance only through the *modeled* durations the
/// op computes (reconfigTime); a destructor-time finish stamps early error
/// returns with outcome=error.
class ScopedOpSpan {
 public:
  ScopedOpSpan(const SdtController::ObsContext& obs, const char* name)
      : tracer_(obs.tracer), now_(obs.clock ? obs.clock() : 0) {
    if (tracer_ != nullptr) root_ = tracer_->begin(name, now_);
  }
  ScopedOpSpan(const ScopedOpSpan&) = delete;
  ScopedOpSpan& operator=(const ScopedOpSpan&) = delete;
  ~ScopedOpSpan() { finish("error"); }

  /// Close the current phase child and open `name`.
  void phase(const char* name) {
    if (tracer_ == nullptr) return;
    if (phase_ != obs::kNoSpan) tracer_->end(phase_, now_);
    phase_ = tracer_->begin(name, now_, root_);
  }
  /// Account modeled time to the currently open phase.
  void advance(TimeNs d) { now_ += d; }
  void annotate(const char* key, const std::string& value) {
    if (tracer_ != nullptr && root_ != obs::kNoSpan) {
      tracer_->annotate(root_, key, value);
    }
  }
  void finish(const char* outcome) {
    if (tracer_ == nullptr || root_ == obs::kNoSpan) return;
    if (phase_ != obs::kNoSpan) {
      tracer_->end(phase_, now_);
      phase_ = obs::kNoSpan;
    }
    tracer_->annotate(root_, "outcome", outcome);
    tracer_->end(root_, now_);
    root_ = obs::kNoSpan;
  }

 private:
  obs::Tracer* tracer_;
  TimeNs now_;
  obs::SpanId root_ = obs::kNoSpan;
  obs::SpanId phase_ = obs::kNoSpan;
};

}  // namespace

CheckReport SdtController::check(const std::vector<const topo::Topology*>& topologies,
                                 const DeployOptions& options) const {
  CheckReport report;
  report.ok = true;

  // Plant supply: the scarcest switch (or pair) bounds any projection.
  int minSelfSupply = plant_.numSwitches() > 0 ? plant_.switches[0].numPorts : 0;
  int minHostSupply = minSelfSupply;
  for (int sw = 0; sw < plant_.numSwitches(); ++sw) {
    minSelfSupply = std::min(minSelfSupply, static_cast<int>(plant_.selfLinksOf(sw).size()));
    minHostSupply = std::min(minHostSupply, static_cast<int>(plant_.hostPortsOf(sw).size()));
  }

  for (const topo::Topology* t : topologies) {
    auto proj = projection::LinkProjector::project(*t, plant_, options.projector);
    if (!proj) {
      report.ok = false;
      // Quantify the shortfall (§V-1: "inform the user of the necessary
      // link modification"): partition the topology the way planPlant does
      // and compare demand against the plant's reserves, naming the
      // offending topology. Falls back to the projector's error when the
      // demand analysis finds no concrete gap (e.g. partitioning failed).
      bool quantified = false;
      const int parts = std::min(plant_.numSwitches(), std::max(1, t->numSwitches()));
      std::vector<int> assignment(static_cast<std::size_t>(t->numSwitches()), 0);
      bool partitioned = true;
      if (parts > 1) {
        partition::PartitionOptions popt;
        popt.parts = parts;
        auto part = partition::partitionGraph(t->switchGraph(), popt);
        if (part) {
          assignment = std::move(part.value().assignment);
        } else {
          partitioned = false;
        }
      }
      if (partitioned) {
        std::vector<int> selfPer(static_cast<std::size_t>(parts), 0);
        std::map<std::pair<int, int>, int> interPer;
        for (const topo::Link& link : t->links()) {
          const int pa = assignment[link.a.sw];
          const int pb = assignment[link.b.sw];
          if (pa == pb) {
            ++selfPer[pa];
          } else {
            ++interPer[std::minmax(pa, pb)];
          }
        }
        std::vector<int> hostsPer(static_cast<std::size_t>(parts), 0);
        for (topo::HostId h = 0; h < t->numHosts(); ++h) {
          ++hostsPer[assignment[t->hostSwitch(h)]];
        }
        const int needSelf = *std::max_element(selfPer.begin(), selfPer.end());
        const int needHosts = *std::max_element(hostsPer.begin(), hostsPer.end());
        if (needSelf > minSelfSupply) {
          report.problems.push_back(
              strFormat("topo '%s': needs %d self-links/switch, plant has %d",
                        t->name().c_str(), needSelf, minSelfSupply));
          quantified = true;
        }
        for (const auto& [pair, count] : interPer) {
          const int supply =
              static_cast<int>(plant_.interLinksBetween(pair.first, pair.second).size());
          if (count > supply) {
            report.problems.push_back(strFormat(
                "topo '%s': needs %d inter-switch links between switches %d-%d, "
                "plant has %d",
                t->name().c_str(), count, pair.first, pair.second, supply));
            quantified = true;
          }
        }
        if (needHosts > minHostSupply) {
          report.problems.push_back(
              strFormat("topo '%s': needs %d host ports/switch, plant has %d",
                        t->name().c_str(), needHosts, minHostSupply));
          quantified = true;
        }
      }
      if (!quantified) {
        report.problems.push_back(
            strFormat("topo '%s': %s", t->name().c_str(), proj.error().message.c_str()));
      }
      continue;
    }
    const projection::Projection& p = proj.value();
    // Demand accounting for the report (max over topologies, §IV-B: reserve
    // the maximum inter-switch links among all topologies).
    std::map<std::pair<int, int>, int> interPerPair;
    std::vector<int> selfPerSwitch(static_cast<std::size_t>(plant_.numSwitches()), 0);
    for (const projection::RealizedLink& rl : p.realizedLinks()) {
      const projection::PhysLink& l =
          rl.optical ? p.opticalCircuits()[rl.physLink]
                     : (rl.interSwitch ? plant_.interLinks[rl.physLink]
                                       : plant_.selfLinks[rl.physLink]);
      if (rl.interSwitch) {
        const auto key = std::minmax(l.a.sw, l.b.sw);
        ++interPerPair[{key.first, key.second}];
      } else {
        ++selfPerSwitch[l.a.sw];
      }
    }
    std::vector<int> hostsPerSwitch(static_cast<std::size_t>(plant_.numSwitches()), 0);
    for (topo::HostId h = 0; h < t->numHosts(); ++h) {
      ++hostsPerSwitch[p.hostPortOf(h).sw];
    }
    for (const auto& [pair, count] : interPerPair) {
      (void)pair;
      report.maxInterLinksPerPair = std::max(report.maxInterLinksPerPair, count);
    }
    for (const int c : selfPerSwitch) {
      report.maxSelfLinksPerSwitch = std::max(report.maxSelfLinksPerSwitch, c);
    }
    for (const int c : hostsPerSwitch) {
      report.maxHostPortsPerSwitch = std::max(report.maxHostPortsPerSwitch, c);
    }
    // Flow-table demand (§VII-C). Matches compileFlowTables exactly at one
    // VC — (ingress ports - 1) entries per reachable destination — and is a
    // lower bound for multi-VC strategies.
    const std::vector<int> component = componentLabels(*t, nullptr);
    std::map<int, int> hostsInComponent;
    for (topo::HostId h = 0; h < t->numHosts(); ++h) {
      ++hostsInComponent[component[t->hostSwitch(h)]];
    }
    std::vector<int> entriesPerPhys(static_cast<std::size_t>(plant_.numSwitches()), 0);
    for (topo::SwitchId sw = 0; sw < t->numSwitches(); ++sw) {
      int ingress = static_cast<int>(t->hostsOf(sw).size());
      for (topo::PortId lp = 0; lp < t->radix(sw); ++lp) {
        if (p.physOf(topo::SwitchPort{sw, lp}).valid()) ++ingress;
      }
      const int dsts = hostsInComponent[component[sw]];
      if (ingress > 1 && dsts > 0) {
        entriesPerPhys[p.physSwitchOf(sw)] += (ingress - 1) * dsts;
      }
    }
    for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
      report.maxFlowEntriesPerSwitch =
          std::max(report.maxFlowEntriesPerSwitch, entriesPerPhys[psw]);
      const auto capacity = plant_.switches[psw].flowTableCapacity;
      if (static_cast<std::size_t>(entriesPerPhys[psw]) > capacity) {
        report.ok = false;
        report.problems.push_back(strFormat(
            "topo '%s': needs >=%d flow entries on physical switch %d, '%s' holds %zu",
            t->name().c_str(), entriesPerPhys[psw], psw,
            plant_.switches[psw].model.c_str(), capacity));
      }
    }
  }
  return report;
}

Result<Deployment> SdtController::deploy(const topo::Topology& topo,
                                         const routing::RoutingAlgorithm& routing,
                                         const DeployOptions& options) const {
  ScopedOpSpan span(obs_, "deploy");
  span.annotate("topology", topo.name());
  span.annotate("routing", routing.name());
  if (options.requireDeadlockFree) {
    span.phase("deploy.deadlock_check");
    const routing::DeadlockReport dl = routing::analyzeDeadlock(topo, routing);
    if (!dl.error.empty()) {
      return makeError("deadlock analysis failed: " + dl.error);
    }
    if (!dl.deadlockFree) {
      return makeError(strFormat(
          "routing '%s' on '%s' has a channel-dependency cycle (%zu channels); "
          "refusing to deploy on a lossless fabric",
          routing.name().c_str(), topo.name().c_str(), dl.cycle.size()));
    }
  }
  span.phase("deploy.project");
  auto proj = projection::LinkProjector::project(topo, plant_, options.projector);
  if (!proj) return proj.error();

  Deployment deployment;  // epoch defaults to 1: the first configuration
  // Tenant slices start at scoped epoch (tenant, 1); tenant 0 decodes to the
  // legacy epoch 1, so single-tenant deployments are unchanged.
  deployment.epoch = openflow::makeScopedEpoch(options.tenant, 1);
  span.phase("deploy.compile");
  auto tables =
      compileFlowTables(topo, proj.value(), plant_, routing, options, deployment.epoch);
  if (!tables) return tables.error();

  span.phase("deploy.install");
  deployment.projection = std::move(proj).value();
  for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
    const projection::PhysicalSwitchSpec& spec = plant_.switches[psw];
    const auto& entries = tables.value()[psw];
    if (entries.size() > spec.flowTableCapacity) {
      return makeError(strFormat(
          "physical switch %d needs %zu flow entries but '%s' holds %zu "
          "(split the topology over more switches or merge entries, §VII-C)",
          psw, entries.size(), spec.model.c_str(), spec.flowTableCapacity));
    }
    auto ofs = std::make_shared<openflow::Switch>(psw, spec.numPorts,
                                                  spec.flowTableCapacity);
    for (const openflow::FlowEntry& e : entries) {
      if (auto s = ofs->table().add(e); !s) return s.error();
    }
    ofs->setIngressEpoch(deployment.epoch);
    deployment.totalFlowEntries += static_cast<int>(entries.size());
    deployment.maxEntriesPerSwitch =
        std::max(deployment.maxEntriesPerSwitch, static_cast<int>(entries.size()));
    deployment.switches.push_back(std::move(ofs));
  }
  deployment.reconfigTime =
      projection::reconfigTime(projection::TpMethod::kSDT, deployment.totalFlowEntries);
  deployment.topology = topo.name();
  deployment.routing = routing.name();
  deployment.ecmpSalt = options.ecmpSalt;
  span.advance(deployment.reconfigTime);  // install covers the modeled time
  span.annotate("rules", std::to_string(deployment.totalFlowEntries));
  span.finish("ok");
  return deployment;
}

Result<UpdatePlan> SdtController::planUpdate(const Deployment& current,
                                             const topo::Topology& next,
                                             const routing::RoutingAlgorithm& routing,
                                             const DeployOptions& options) const {
  ScopedOpSpan span(obs_, "plan_update");
  span.annotate("topology", next.name());
  if (options.requireDeadlockFree) {
    span.phase("plan_update.deadlock_check");
    const routing::DeadlockReport dl = routing::analyzeDeadlock(next, routing);
    if (!dl.error.empty()) {
      return makeError("deadlock analysis failed: " + dl.error);
    }
    if (!dl.deadlockFree) {
      return makeError(strFormat(
          "routing '%s' on '%s' has a channel-dependency cycle; refusing a "
          "live update on a lossless fabric",
          routing.name().c_str(), next.name().c_str()));
    }
  }
  span.phase("plan_update.project");
  auto proj = projection::LinkProjector::project(next, plant_, options.projector);
  if (!proj) return proj.error();

  // Host-port stability: fabric links can move between fixed cables because
  // the spares are already wired, but a host NIC sits on one physical port —
  // a plan that moves it would need a human with a cable mid-update.
  for (topo::HostId h = 0; h < next.numHosts(); ++h) {
    const projection::PhysPort was = current.projection.hostPortOf(h);
    const projection::PhysPort now = proj.value().hostPortOf(h);
    if (!(was == now)) {
      return makeError(strFormat(
          "live update would move host %d from physical port %d/%d to %d/%d; "
          "host NICs cannot be recabled mid-run",
          h, was.sw, was.port, now.sw, now.port));
    }
  }

  // Scoped epochs advance within the tenant's 16-bit local space; rolling
  // over into the next tenant's namespace would be catastrophic, so refuse.
  if (openflow::epochLocal(current.epoch) == 0xFFFF) {
    return makeError(strFormat(
        "tenant %u exhausted its local epoch space (65535 reconfigurations)",
        openflow::epochTenant(current.epoch)));
  }
  UpdatePlan plan;
  plan.fromEpoch = current.epoch;
  plan.toEpoch = current.epoch + 1;
  span.phase("plan_update.compile");
  auto tables =
      compileFlowTables(next, proj.value(), plant_, routing, options, plan.toEpoch);
  if (!tables) return tables.error();
  span.phase("plan_update.capacity_check");

  // Two-version capacity: during the update window each switch holds its
  // full live table *plus* the full next-epoch set (§VII-C is the binding
  // constraint doubled). Checked here so capacity can never abort an
  // in-flight transaction.
  for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
    const std::size_t live = current.switches[psw]->table().size();
    const std::size_t add = tables.value()[psw].size();
    const std::size_t capacity = plant_.switches[psw].flowTableCapacity;
    if (live + add > capacity) {
      return makeError(strFormat(
          "two-phase update needs %zu + %zu flow entries on physical switch "
          "%d during the window, '%s' holds %zu",
          live, add, psw, plant_.switches[psw].model.c_str(), capacity));
    }
    plan.totalEntries += static_cast<int>(add);
  }
  plan.projection = std::move(proj).value();
  plan.tables = std::move(tables).value();
  plan.scope = Scope::of(current.epoch, plan.projection, plant_.numSwitches(), &plan.tables,
                         &current.switches);
  plan.topology = next.name();
  plan.routing = routing.name();
  plan.ecmpSalt = options.ecmpSalt;
  span.annotate("rules", std::to_string(plan.totalEntries));
  span.annotate("to_epoch", std::to_string(plan.toEpoch));
  span.finish("ok");
  return plan;
}

Result<RepairReport> SdtController::repair(Deployment& deployment,
                                           const topo::Topology& topo,
                                           const routing::RoutingAlgorithm& routing,
                                           const FailureSet& failures,
                                           const DeployOptions& options) const {
  ScopedOpSpan span(obs_, "repair");
  span.annotate("failed_ports", std::to_string(failures.ports.size()));
  span.annotate("crashed_switches", std::to_string(failures.crashedSwitches.size()));
  span.phase("repair.reproject");
  RepairReport report;
  projection::Projection& proj = deployment.projection;
  const int oldTotal = deployment.totalFlowEntries;
  const std::set<projection::PhysPort> failed(failures.ports.begin(), failures.ports.end());
  const auto healthy = [&](const projection::PhysLink& l) {
    return failed.count(l.a) == 0 && failed.count(l.b) == 0;
  };

  // Fixed physical links already carrying a logical link are not spares.
  std::vector<char> selfUsed(plant_.selfLinks.size(), 0);
  std::vector<char> interUsed(plant_.interLinks.size(), 0);
  for (const projection::RealizedLink& rl : proj.realizedLinks()) {
    if (rl.optical) continue;
    (rl.interSwitch ? interUsed : selfUsed)[static_cast<std::size_t>(rl.physLink)] = 1;
  }

  // Phase 1 — re-projection. For every logical link riding a failed port,
  // find a spare healthy physical link of the same kind joining the same
  // physical switch (pair) and move the logical endpoints onto it. The spare
  // cable is already installed and already wired into the data plane; only
  // flow entries change (the SDT claim, applied to failure recovery).
  std::vector<int> severedIds;
  const auto& realized = proj.realizedLinks();
  for (int i = 0; i < static_cast<int>(realized.size()); ++i) {
    const projection::RealizedLink rl = realized[i];
    const projection::PhysLink phys =
        rl.optical ? proj.opticalCircuits()[rl.physLink]
                   : (rl.interSwitch ? plant_.interLinks[rl.physLink]
                                     : plant_.selfLinks[rl.physLink]);
    if (healthy(phys)) continue;
    const topo::Link& logical = topo.link(rl.logicalLink);
    int spare = -1;
    // Optical circuits are torn down with their failure (re-pairing flex
    // ports mid-run would need an OCS reconfiguration pass; out of scope),
    // so they only heal by severing + rerouting.
    if (!rl.optical) {
      const auto candidates = rl.interSwitch
                                  ? plant_.interLinksBetween(phys.a.sw, phys.b.sw)
                                  : plant_.selfLinksOf(phys.a.sw);
      auto& used = rl.interSwitch ? interUsed : selfUsed;
      for (const int c : candidates) {
        const projection::PhysLink& cand =
            rl.interSwitch ? plant_.interLinks[c] : plant_.selfLinks[c];
        if (!used[static_cast<std::size_t>(c)] && healthy(cand)) {
          spare = c;
          break;
        }
      }
    }
    if (spare < 0) {
      severedIds.push_back(rl.logicalLink);
      report.severedLinks.push_back(SeveredLink{rl.logicalLink, logical.a, logical.b});
      continue;
    }
    const projection::PhysLink& sp =
        rl.interSwitch ? plant_.interLinks[spare] : plant_.selfLinks[spare];
    projection::PhysPort na = sp.a;
    projection::PhysPort nb = sp.b;
    // Inter-switch: keep each logical endpoint on its own physical switch.
    if (rl.interSwitch && proj.physSwitchOf(logical.a.sw) != sp.a.sw) std::swap(na, nb);
    proj.mapPort(logical.a, na);
    proj.mapPort(logical.b, nb);
    proj.rerealizeLink(i, spare);
    (rl.interSwitch ? interUsed : selfUsed)[static_cast<std::size_t>(spare)] = 1;
    ++report.remappedLinks;
  }
  report.degraded = !severedIds.empty();

  span.phase("repair.reroute");
  // Phase 2 — routing on what survives. With every link re-projected the
  // original routing still holds (the logical topology is intact); severed
  // links force a detour-routing recompute and may split the fabric.
  std::unique_ptr<routing::DegradedRouting> degradedRouting;
  const routing::RoutingAlgorithm* effective = &routing;
  std::vector<char> severedMask;
  if (report.degraded) {
    degradedRouting = std::make_unique<routing::DegradedRouting>(topo, severedIds,
                                                                 routing.numVcs());
    effective = degradedRouting.get();
    severedMask.assign(topo.links().size(), 0);
    for (const int li : severedIds) severedMask[static_cast<std::size_t>(li)] = 1;
    for (topo::HostId src = 0; src < topo.numHosts(); ++src) {
      for (topo::HostId dst = src + 1; dst < topo.numHosts(); ++dst) {
        if (topo.hostSwitch(src) == topo.hostSwitch(dst)) continue;
        if (!degradedRouting->reachable(topo.hostSwitch(src), dst)) {
          report.unreachablePairs.emplace_back(src, dst);
        }
      }
    }
  }

  // Recompile with the deployment's own salt (as planRecovery does with the
  // journaled one): any other salt re-routes every ECMP choice, and the
  // diff would churn rules no failure touched.
  DeployOptions compileOptions = options;
  compileOptions.ecmpSalt = deployment.ecmpSalt;
  auto tables = compileFlowTables(topo, proj, plant_, *effective, compileOptions,
                                  deployment.epoch,
                                  report.degraded ? &severedMask : nullptr);
  if (!tables) return tables.error();

  // Phase 3 — incremental install: per switch, the scoped reconcile of the
  // live table against the recompiled one, applied as strict-delete + add
  // flow-mods. A crashed switch's owned rules are wiped first, so the
  // reconcile reinstalls its exact fresh set and restores its ingress stamps.
  // A tenant deployment's scope confines the wipe, the diff, and the stamps
  // to its own cookie namespace and host ports on the shared switches.
  span.phase("repair.install");
  const Scope scope =
      Scope::of(deployment.epoch, proj, plant_.numSwitches(), &tables.value());
  for (const int psw : failures.crashedSwitches) {
    scope.removeOwned(deployment.switches[static_cast<std::size_t>(psw)]->table());
  }
  for (int psw = 0; psw < plant_.numSwitches(); ++psw) {
    openflow::Switch& ofs = *deployment.switches[static_cast<std::size_t>(psw)];
    const detail::ConvergeOps ops =
        detail::reconcile(ofs.snapshot(), tables.value()[psw], scope, psw, deployment.epoch);
    if (auto s = detail::apply(ofs, psw, ops, scope, deployment.epoch); !s) return s.error();
    report.flowModsRemoved += static_cast<int>(ops.removes.size());
    report.flowModsAdded += static_cast<int>(ops.adds.size());
  }
  // The owned tables now hold exactly the recompiled sets: a full redeploy
  // would have torn down the old total and installed this one.
  detail::recount(deployment, scope);
  report.fullRedeployFlowMods = oldTotal + deployment.totalFlowEntries;
  report.repairTime =
      projection::reconfigTime(projection::TpMethod::kSDT, report.flowMods());
  span.advance(report.repairTime);  // install covers the modeled repair time

  // Phase 4 — deadlock re-check on the degraded topology. Advisory: a
  // detour-induced CDG cycle is reported, not fatal (see RepairReport).
  if (report.degraded && options.requireDeadlockFree) {
    span.phase("repair.deadlock_check");
    report.deadlockChecked = true;
    const routing::DeadlockReport dl = routing::analyzeDeadlock(topo, *degradedRouting);
    report.deadlockFree = dl.error.empty() && dl.deadlockFree;
  }
  span.annotate("remapped_links", std::to_string(report.remappedLinks));
  span.annotate("severed_links", std::to_string(report.severedLinks.size()));
  span.annotate("flow_mods", std::to_string(report.flowMods()));
  span.finish(report.degraded ? "degraded" : "ok");
  return report;
}

StatusOr SdtController::distributeAdmissionPolicy(
    admission::AdmissionController& target, const admission::Policy& policy) const {
  ScopedOpSpan span(obs_, "distribute_admission_policy");
  span.phase("admission.validate");
  if (const StatusOr valid = policy.validate(); !valid.ok()) {
    span.finish("invalid");
    return valid;
  }
  span.phase("admission.install");
  target.setPolicy(policy);
  if (obs_.metrics != nullptr) {
    obs_.metrics
        ->counter("sdt_controller_admission_policy_total", {{"op", "distribute"}},
                  "Admission policies validated and pushed to the fabric edge")
        .inc();
  }
  span.annotate("enabled", policy.enabled ? "true" : "false");
  span.finish("ok");
  return StatusOr::okStatus();
}

}  // namespace sdt::controller
