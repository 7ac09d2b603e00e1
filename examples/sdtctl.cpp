// sdtctl — command-line front end to the SDT controller, the closest
// equivalent of the paper's "run a configuration file at the controller"
// workflow (Fig. 2).
//
//   sdtctl topo     <config.json>             describe the topology
//   sdtctl check    <config.json...>          can one plant host all of them?
//   sdtctl deploy   <config.json>             project + compile flow tables
//   sdtctl run      <config.json> [workload]  deploy and run a workload
//                                             (pingpong | alltoall | hpcg |
//                                              hpl | minighost | minife |
//                                              incast | partagg)
//   sdtctl feas     <config.json>             Table II feasibility per method
//   sdtctl recover  <from.json> <to.json>     crash-recovery demo: deploy the
//                                             first topology, start a live
//                                             update to the second, kill the
//                                             controller mid-flight
//                                             (--crash-at), optionally reboot
//                                             a switch, then recover from the
//                                             journal
//   sdtctl status                             replay a journal (--journal)
//                                             and print the durable intent
//   sdtctl stats    <config.json> [workload]  deploy, run a short workload
//                                             with the obs registry attached,
//                                             and print the collected metrics
//                                             (Prometheus text, or --json)
//   sdtctl serve    [config.json...]          long-running multi-tenant mode:
//                                             carve the plant into per-tenant
//                                             slices and read admit/evict/
//                                             status/run/metrics commands
//                                             from stdin until quit/EOF.
//                                             `metrics` prints Prometheus
//                                             text with a tenant label on
//                                             every per-slice series.
//                                             --standbys N replicates the
//                                             control plane (leader + N
//                                             standbys); `failover` kills
//                                             the leader and reports the
//                                             takeover.
//   sdtctl trace    <config.json> [to.json]   stage a full traced lifecycle:
//                                             deploy, switch-crash repair, a
//                                             live transactional update (with
//                                             a second config), and a
//                                             journal-driven recovery audit
//                                             (--reboot-switch N power-cycles
//                                             a switch before it); print the
//                                             spans with per-phase timings
//                                             (--json for machine-readable
//                                             output)
//
// Common flags: --switches N (1-64, default 2), --spec 64|128|h3c (default
//               128), --flex P (add 0-160 optical flex pairs per switch,
//               §VII-A); --standbys N takes 0-16
// Recovery flags: --journal FILE (default in-memory), --json,
//                 --crash-at prepare|mid-install|pre-flip|post-flip|mid-gc,
//                 --reboot-switch N (a switch of the plant, 0..switches-1)
// A numeric flag outside its range, or not a whole decimal number, is an
// error naming the flag (exit status 2).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "controller/config.hpp"
#include "controller/controller.hpp"
#include "controller/ha.hpp"
#include "controller/journal.hpp"
#include "controller/monitor.hpp"
#include "controller/recovery.hpp"
#include "controller/transaction.hpp"
#include "obs/collectors.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "projection/feasibility.hpp"
#include "sim/control_channel.hpp"
#include "sim/transport.hpp"
#include "tenant/tenant.hpp"
#include "testbed/evaluator.hpp"
#include "workloads/apps.hpp"
#include "workloads/datacenter.hpp"

using namespace sdt;

namespace {

struct CliOptions {
  int switches = 2;
  projection::PhysicalSwitchSpec spec = projection::openflow128x100G();
  int flexPairs = 0;
  int standbys = 0;  ///< serve: replicate the control plane over N standbys
  std::vector<std::string> configs;
  std::string journalPath;  ///< empty: in-memory journal (recover demo only)
  controller::CrashPoint crashAt = controller::CrashPoint::kPreFlip;
  int rebootSwitch = -1;
  bool jsonOut = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: sdtctl <topo|check|deploy|run|feas|recover|status|stats|serve|trace> "
               "<config.json>... \n"
               "       [--switches N] [--spec 64|128|h3c] [--flex P] "
               "[--standbys N for 'serve'] [workload name for 'run']\n"
               "       [--journal FILE] [--json] [--reboot-switch N]\n"
               "       [--crash-at prepare|mid-install|pre-flip|post-flip|mid-gc]\n");
  return 2;
}

/// A numeric flag's value: a whole decimal number in [lo, hi]. The bounds
/// keep every size the commands derive from a flag small (the MEMS optical
/// switch has 320 ports, so at most 160 flex pairs fit one switch).
Result<int> parseIntFlag(const std::string& flag, const std::string& text, int lo, int hi) {
  int value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value < lo || value > hi) {
    return makeError(strFormat("%s: expected a whole number in %d..%d, got '%s'", flag.c_str(),
                               lo, hi, text.c_str()));
  }
  return value;
}

Result<CliOptions> parseArgs(int argc, char** argv, std::string& workload) {
  CliOptions opt;
  constexpr int kMaxSwitches = 64;
  constexpr int kMaxStandbys = 16;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--switches" && i + 1 < argc) {
      auto n = parseIntFlag(arg, argv[++i], 1, kMaxSwitches);
      if (!n) return n.error();
      opt.switches = n.value();
    } else if (arg == "--journal" && i + 1 < argc) {
      opt.journalPath = argv[++i];
    } else if (arg == "--json") {
      opt.jsonOut = true;
    } else if (arg == "--reboot-switch" && i + 1 < argc) {
      auto n = parseIntFlag(arg, argv[++i], 0, kMaxSwitches - 1);
      if (!n) return n.error();
      opt.rebootSwitch = n.value();
    } else if (arg == "--crash-at" && i + 1 < argc) {
      const std::string point = argv[++i];
      bool known = false;
      for (const controller::CrashPoint p :
           {controller::CrashPoint::kNone, controller::CrashPoint::kPrepare,
            controller::CrashPoint::kMidInstall, controller::CrashPoint::kPreFlip,
            controller::CrashPoint::kPostFlip, controller::CrashPoint::kMidGc}) {
        if (point == controller::crashPointName(p)) {
          opt.crashAt = p;
          known = true;
        }
      }
      if (!known) return makeError("unknown --crash-at: " + point);
    } else if (arg == "--spec" && i + 1 < argc) {
      const std::string spec = argv[++i];
      if (spec == "64") opt.spec = projection::openflow64x100G();
      else if (spec == "128") opt.spec = projection::openflow128x100G();
      else if (spec == "h3c") opt.spec = projection::h3cS6861();
      else return makeError("unknown --spec: " + spec);
    } else if (arg == "--flex" && i + 1 < argc) {
      auto n = parseIntFlag(arg, argv[++i], 0, projection::mems320().numPorts / 2);
      if (!n) return n.error();
      opt.flexPairs = n.value();
    } else if (arg == "--standbys" && i + 1 < argc) {
      auto n = parseIntFlag(arg, argv[++i], 0, kMaxStandbys);
      if (!n) return n.error();
      opt.standbys = n.value();
    } else if (!arg.empty() && arg[0] != '-' && arg.find(".json") != std::string::npos) {
      opt.configs.push_back(arg);
    } else if (!arg.empty() && arg[0] != '-') {
      workload = arg;
    } else {
      return makeError("unknown flag: " + arg);
    }
  }
  if (opt.rebootSwitch >= opt.switches) {
    return makeError(strFormat("--reboot-switch: switch %d is not in the %d-switch plant",
                               opt.rebootSwitch, opt.switches));
  }
  // `status` works from the journal alone; every other command needs configs
  // (main enforces the count per command).
  return opt;
}

Result<projection::Plant> makePlant(
    const std::vector<controller::ExperimentConfig>& configs, const CliOptions& opt) {
  std::vector<const topo::Topology*> topos;
  for (const auto& c : configs) topos.push_back(&c.topology);
  auto plant = projection::planPlant(topos, {.numSwitches = opt.switches,
                                             .spec = opt.spec});
  if (!plant) return plant;
  if (opt.flexPairs > 0) {
    if (auto s = projection::addOpticalFlex(plant.value(), opt.flexPairs); !s) {
      return s.error();
    }
  }
  return plant;
}

int cmdTopo(const controller::ExperimentConfig& config) {
  const topo::Topology& t = config.topology;
  std::printf("name:      %s\n", t.name().c_str());
  std::printf("switches:  %d\n", t.numSwitches());
  std::printf("hosts:     %d\n", t.numHosts());
  std::printf("links:     %d (%d fabric ports)\n", t.numLinks(), t.totalFabricPorts());
  std::printf("diameter:  %d switch hops\n", t.switchGraph().diameter());
  std::printf("routing:   %s\n", config.routingStrategy.c_str());
  std::printf("fabric:    pfc=%s dcqcn=%s cut-through=%s\n", config.pfc ? "on" : "off",
              config.dcqcn ? "on" : "off", config.cutThrough ? "on" : "off");
  return 0;
}

int cmdCheck(const std::vector<controller::ExperimentConfig>& configs,
             const CliOptions& opt) {
  auto plant = makePlant(configs, opt);
  if (!plant) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    return 1;
  }
  controller::SdtController ctl(plant.value());
  std::vector<const topo::Topology*> topos;
  for (const auto& c : configs) topos.push_back(&c.topology);
  const controller::CheckReport report = ctl.check(topos);
  std::printf("plant: %d x %s (+%d flex pairs/switch)\n", opt.switches,
              opt.spec.model.c_str(), opt.flexPairs);
  std::printf("check: %s\n", report.ok ? "OK - all topologies deployable" : "FAILED");
  for (const std::string& p : report.problems) std::printf("  problem: %s\n", p.c_str());
  std::printf("worst-case demand: %d self-links/switch, %d inter-links/pair, "
              "%d host ports/switch\n",
              report.maxSelfLinksPerSwitch, report.maxInterLinksPerPair,
              report.maxHostPortsPerSwitch);
  return report.ok ? 0 : 1;
}

int cmdDeploy(const controller::ExperimentConfig& config, const CliOptions& opt) {
  auto plant = makePlant({config}, opt);
  if (!plant) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    return 1;
  }
  auto routing = routing::makeRouting(config.routingStrategy, config.topology);
  if (!routing) {
    std::fprintf(stderr, "routing: %s\n", routing.error().message.c_str());
    return 1;
  }
  controller::SdtController ctl(plant.value());
  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = config.pfc;  // lossless fabrics must be safe
  auto dep = ctl.deploy(config.topology, *routing.value(), dopt);
  if (!dep) {
    std::fprintf(stderr, "deploy: %s\n", dep.error().message.c_str());
    return 1;
  }
  std::printf("deployed '%s' on %d x %s\n", config.topology.name().c_str(),
              opt.switches, opt.spec.model.c_str());
  std::printf("  flow entries: %d total, %d max/switch (capacity %zu)\n",
              dep.value().totalFlowEntries, dep.value().maxEntriesPerSwitch,
              opt.spec.flowTableCapacity);
  std::printf("  reconfiguration time: %s\n",
              humanTime(dep.value().reconfigTime).c_str());
  std::printf("  inter-switch links used: %d, optical circuits: %zu\n",
              dep.value().projection.interSwitchLinkCount(),
              dep.value().projection.opticalCircuits().size());
  return 0;
}

int cmdRun(const controller::ExperimentConfig& config, const CliOptions& opt,
           const std::string& workloadName) {
  auto plant = makePlant({config}, opt);
  if (!plant) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    return 1;
  }
  auto routing = routing::makeRouting(config.routingStrategy, config.topology);
  if (!routing) {
    std::fprintf(stderr, "routing: %s\n", routing.error().message.c_str());
    return 1;
  }
  testbed::InstanceOptions iopt;
  controller::applyFabricKnobs(config, iopt.network);
  iopt.deploy.requireDeadlockFree = config.pfc;
  auto inst = testbed::makeSdt(config.topology, *routing.value(), plant.value(), iopt);
  if (!inst) {
    std::fprintf(stderr, "testbed: %s\n", inst.error().message.c_str());
    return 1;
  }
  const int ranks = std::min(32, config.topology.numHosts());
  workloads::Workload w;
  if (workloadName == "pingpong" || workloadName.empty()) {
    w = workloads::imbPingpong(config.topology.numHosts(), 4096, 100);
  } else if (workloadName == "alltoall") {
    w = workloads::imbAlltoall(ranks, 32 * 1024, 2);
  } else if (workloadName == "hpcg") {
    w = workloads::hpcg(ranks);
  } else if (workloadName == "hpl") {
    w = workloads::hpl(ranks);
  } else if (workloadName == "minighost") {
    w = workloads::miniGhost(ranks);
  } else if (workloadName == "minife") {
    w = workloads::miniFe(ranks);
  } else if (workloadName == "incast") {
    // Sized so each synchronized round (ranks-1 flows) brushes the lossy
    // 256 KiB edge-queue cap without overflowing it: the demo completes,
    // the queue spike is still visible in `sdtctl stats`.
    w = workloads::incast(ranks, 8 * 1024, 8);
  } else if (workloadName == "partagg") {
    w = workloads::partitionAggregate(ranks, 2 * 1024, 16 * 1024, 8);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", workloadName.c_str());
    return 2;
  }
  const testbed::RunResult run = testbed::runWorkload(inst.value(), w);
  std::printf("workload:     %s\n", w.name.empty() ? workloadName.c_str()
                                                     : w.name.c_str());
  std::printf("deploy time:  %s\n", humanTime(inst.value().deployTime).c_str());
  std::printf("ACT:          %s\n", humanTime(run.act).c_str());
  std::printf("sim events:   %llu (%.2fs wall)\n",
              static_cast<unsigned long long>(run.events), run.wallSeconds);
  std::printf("fabric bytes: %s, drops: %llu\n", humanBytes(run.fabricTxBytes).c_str(),
              static_cast<unsigned long long>(run.drops));
  return 0;
}

int cmdFeas(const controller::ExperimentConfig& config, const CliOptions& opt) {
  using projection::TpMethod;
  std::printf("max projectable link speed for '%s' on 3 switches:\n",
              config.topology.name().c_str());
  for (const TpMethod m : {TpMethod::kSP, TpMethod::kSPOS, TpMethod::kTurboNet,
                           TpMethod::kSDT}) {
    projection::HardwareBudget budget{opt.spec, 3};
    if (m == TpMethod::kTurboNet) {
      budget.spec = opt.spec.numPorts >= 128 ? projection::p4Switch128x100G()
                                             : projection::p4Switch64x100G();
    }
    const projection::SpeedClass s = projection::maxProjectableSpeed(m, config.topology,
                                                                     budget);
    const projection::CostEstimate cost = projection::hardwareCost(m, budget);
    if (s.feasible) {
      std::printf("  %-9s <= %3.0fG (breakout x%d)  cost >$%.0fk  reconfig %s\n",
                  projection::methodName(m), s.linkSpeed.value, s.breakout,
                  cost.hardwareUsd / 1000.0, projection::reconfigRangeLabel(m).c_str());
    } else {
      std::printf("  %-9s infeasible (%s)\n", projection::methodName(m),
                  s.reason.c_str());
    }
  }
  return 0;
}

int cmdStatus(const CliOptions& opt) {
  if (opt.journalPath.empty()) {
    std::fprintf(stderr, "status needs --journal FILE\n");
    return 2;
  }
  controller::FileJournalStorage storage(opt.journalPath);
  const controller::Journal journal(storage);
  auto replayed = journal.replay();
  if (!replayed) {
    std::fprintf(stderr, "journal: %s\n", replayed.error().message.c_str());
    return 1;
  }
  const controller::JournalReplay& rep = replayed.value();
  if (opt.jsonOut) {
    json::Object out;
    json::Array records;
    for (const controller::JournalRecord& r : rep.records) {
      records.push_back(r.toJson());
    }
    out["records"] = std::move(records);
    out["state"] = rep.state.toJson();
    out["droppedBytes"] = static_cast<std::int64_t>(rep.droppedBytes);
    std::printf("%s\n", json::Value(std::move(out)).dump(2).c_str());
    return 0;
  }
  std::printf("journal: %s (%zu records", opt.journalPath.c_str(), rep.records.size());
  if (rep.droppedBytes > 0) {
    std::printf(", %zu torn/corrupt tail bytes dropped", rep.droppedBytes);
  }
  std::printf(")\n");
  for (const controller::JournalRecord& r : rep.records) {
    std::printf("  #%llu %-10s at=%s epoch=%u", static_cast<unsigned long long>(r.seq),
                controller::journalRecordKindName(r.kind), humanTime(r.at).c_str(),
                r.epoch);
    if (r.fromEpoch != 0 || r.toEpoch != 0) {
      std::printf(" tx=%u->%u", r.fromEpoch, r.toEpoch);
    }
    if (!r.topology.empty()) {
      std::printf(" '%s'/%s", r.topology.c_str(), r.routing.c_str());
    }
    std::printf("\n");
  }
  if (!rep.state.valid) {
    std::printf("state: no deployable intent\n");
  } else {
    std::printf("state: '%s'/%s at epoch %u\n", rep.state.topology.c_str(),
                rep.state.routing.c_str(), rep.state.epoch);
  }
  if (rep.state.txOpen) {
    std::printf("open transaction: %u->%u to '%s' (%s -> recovery rolls %s)\n",
                rep.state.txFromEpoch, rep.state.txToEpoch,
                rep.state.txTopology.c_str(),
                rep.state.txFlipped ? "flipped" : "not flipped",
                rep.state.txFlipped ? "forward" : "back");
  }
  return 0;
}

int cmdRecover(const std::vector<controller::ExperimentConfig>& configs,
               const CliOptions& opt) {
  if (configs.size() != 2) {
    std::fprintf(stderr, "recover needs exactly two configs: <from.json> <to.json>\n");
    return 2;
  }
  const controller::ExperimentConfig& from = configs[0];
  const controller::ExperimentConfig& to = configs[1];
  auto plant = makePlant(configs, opt);
  if (!plant) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    return 1;
  }
  auto routingA = routing::makeRouting(from.routingStrategy, from.topology);
  auto routingB = routing::makeRouting(to.routingStrategy, to.topology);
  if (!routingA || !routingB) {
    std::fprintf(stderr, "routing: %s\n",
                 (!routingA ? routingA.error() : routingB.error()).message.c_str());
    return 1;
  }

  // Fresh journal for a self-contained demo (a stale file would carry
  // another run's intent into this one).
  controller::MemoryJournalStorage memStorage;
  std::unique_ptr<controller::FileJournalStorage> fileStorage;
  controller::JournalStorage* storage = &memStorage;
  if (!opt.journalPath.empty()) {
    std::remove(opt.journalPath.c_str());
    fileStorage = std::make_unique<controller::FileJournalStorage>(opt.journalPath);
    storage = fileStorage.get();
  }
  controller::Journal journal(*storage);

  controller::SdtController ctl(plant.value());
  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = from.pfc && to.pfc;
  auto dep = ctl.deploy(from.topology, *routingA.value(), dopt);
  if (!dep) {
    std::fprintf(stderr, "deploy: %s\n", dep.error().message.c_str());
    return 1;
  }
  controller::Deployment deployment = std::move(dep).value();
  if (auto s = controller::journalDeploy(journal, deployment, 0); !s) {
    std::fprintf(stderr, "journal: %s\n", s.error().message.c_str());
    return 1;
  }

  auto plan = ctl.planUpdate(deployment, to.topology, *routingB.value(), dopt);
  if (!plan) {
    std::fprintf(stderr, "planUpdate: %s\n", plan.error().message.c_str());
    return 1;
  }

  std::uint64_t seed = 1;
  if (const char* env = std::getenv("SDT_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  sim::Simulator sim;
  sim::ControlChannelConfig ccfg;
  ccfg.dropProb = 0.05;
  ccfg.dupProb = 0.05;
  ccfg.reorderProb = 0.05;
  sim::ControlChannel channel(sim, seed, ccfg);

  controller::ReconfigOptions topt;
  topt.journal = &journal;
  topt.crashAt = opt.crashAt;
  controller::ReconfigTransaction tx(sim, channel, deployment, std::move(plan).value(),
                                     topt);
  tx.start();
  sim.runUntil(msToNs(500.0));
  if (tx.crashed()) {
    std::printf("transaction: crashed at %s (phase reached: %s)\n",
                controller::crashPointName(opt.crashAt),
                controller::reconfigPhaseName(tx.report().phaseReached));
  } else {
    std::printf("transaction: completed without crashing (recovery becomes a "
                "no-drift audit)\n");
  }

  if (opt.rebootSwitch >= 0) {
    deployment.switches[static_cast<std::size_t>(opt.rebootSwitch)]->reboot();
    std::printf("switch %d power-cycled while the controller was down\n",
                opt.rebootSwitch);
  }

  // --- The old controller process is gone. A new one starts from the
  // journal and the plant alone. ---
  controller::IntentCatalog catalog;
  catalog[from.topology.name()] = {&from.topology, routingA.value().get()};
  catalog[to.topology.name()] = {&to.topology, routingB.value().get()};
  auto rplan = controller::planRecovery(ctl, journal, catalog, dopt);
  if (!rplan) {
    std::fprintf(stderr, "planRecovery: %s\n", rplan.error().message.c_str());
    return 1;
  }
  controller::RecoveryOptions ropt;
  ropt.journal = &journal;
  ropt.retrySeed = seed;
  controller::RecoveryRun recovery(sim, channel, deployment.switches,
                                   std::move(rplan).value(), ropt);
  recovery.start();
  sim.runUntil(sim.now() + msToNs(500.0));
  const controller::RecoveryReport& rr = recovery.report();

  if (opt.jsonOut) {
    json::Object out;
    out["transaction"] = tx.report().toJson();
    out["recovery"] = rr.toJson();
    auto replayed = journal.replay();
    if (replayed) out["journal"] = replayed.value().state.toJson();
    std::printf("%s\n", json::Value(std::move(out)).dump(2).c_str());
    return rr.converged ? 0 : 1;
  }
  std::printf("recovery: %s (%s to epoch %u, intent '%s')\n",
              rr.converged ? "CONVERGED" : "FAILED",
              controller::recoveryDecisionName(rr.decision), rr.targetEpoch,
              rr.topology.c_str());
  std::printf("  drift: %d switches (%d rebooted), %d missing / %d extra / "
              "%d restamped rules\n",
              rr.switchesDrifted, rr.switchesRebooted, rr.rulesMissing,
              rr.rulesExtra, rr.rulesRestamped);
  std::printf("  flow-mods: %d (full redeploy would cost %d), %d stats rounds, "
              "%d retries\n",
              rr.flowMods, rr.fullRedeployFlowMods, rr.statsRounds, rr.retriesTotal);
  std::printf("  convergence time: %s, pure state verified: %s\n",
              humanTime(rr.convergenceTime()).c_str(),
              rr.pureStateVerified ? "yes" : "no");
  if (!rr.failure.empty()) std::printf("  failure: %s\n", rr.failure.c_str());
  return rr.converged ? 0 : 1;
}

int cmdStats(const controller::ExperimentConfig& config, const CliOptions& opt,
             const std::string& workloadName) {
  auto plant = makePlant({config}, opt);
  if (!plant) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    return 1;
  }
  auto routing = routing::makeRouting(config.routingStrategy, config.topology);
  if (!routing) {
    std::fprintf(stderr, "routing: %s\n", routing.error().message.c_str());
    return 1;
  }
  testbed::InstanceOptions iopt;
  controller::applyFabricKnobs(config, iopt.network);
  iopt.deploy.requireDeadlockFree = config.pfc;
  auto inst = testbed::makeSdt(config.topology, *routing.value(), plant.value(), iopt);
  if (!inst) {
    std::fprintf(stderr, "testbed: %s\n", inst.error().message.c_str());
    return 1;
  }

  obs::Registry registry;
  obs::registerNetworkCollector(registry, inst.value().net());
  obs::registerSwitchCollector(registry, inst.value().built.ofSwitches);
  controller::NetworkMonitor monitor(*inst.value().sim, inst.value().net(),
                                     config.topology,
                                     inst.value().deployment->projection);
  monitor.attachMetrics(registry);
  monitor.start();

  workloads::Workload w =
      workloadName == "alltoall"
          ? workloads::imbAlltoall(std::min(16, config.topology.numHosts()),
                                   16 * 1024, 2)
          : workloads::imbPingpong(config.topology.numHosts(), 4096, 20);
  // Drive the sim in bounded slices rather than testbed::runWorkload(): the
  // monitor's periodic sampling keeps the event queue non-empty forever, so
  // a drain-the-queue run() would never return.
  std::vector<int> rankToHost(static_cast<std::size_t>(w.numRanks()));
  for (int r = 0; r < w.numRanks(); ++r) rankToHost[static_cast<std::size_t>(r)] = r;
  workloads::MpiRuntime runtime(*inst.value().sim, *inst.value().transport,
                                std::move(rankToHost));
  runtime.run(w);
  sim::Simulator& sim = *inst.value().sim;
  const TimeNs deadline = secToNs(10.0);
  while (!runtime.finished() && sim.now() < deadline) {
    sim.runUntil(sim.now() + msToNs(1.0));
  }
  monitor.stop();
  if (!runtime.finished()) {
    std::fprintf(stderr, "workload did not complete within 10 s of sim time\n");
    return 1;
  }

  if (opt.jsonOut) {
    std::printf("%s\n", obs::metricsToJson(registry).dump(2).c_str());
  } else {
    std::printf("%s", obs::metricsToPrometheus(registry).c_str());
  }
  return 0;
}

int cmdTrace(const std::vector<controller::ExperimentConfig>& configs,
             const CliOptions& opt) {
  auto plant = makePlant(configs, opt);
  if (!plant) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    return 1;
  }
  const controller::ExperimentConfig& from = configs[0];
  auto routingA = routing::makeRouting(from.routingStrategy, from.topology);
  if (!routingA) {
    std::fprintf(stderr, "routing: %s\n", routingA.error().message.c_str());
    return 1;
  }

  obs::Tracer tracer;
  sim::Simulator sim;
  controller::SdtController ctl(plant.value());
  ctl.setObservability({&tracer, [&sim]() { return sim.now(); }});

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = from.pfc;
  auto dep = ctl.deploy(from.topology, *routingA.value(), dopt);
  if (!dep) {
    std::fprintf(stderr, "deploy: %s\n", dep.error().message.c_str());
    return 1;
  }
  controller::Deployment deployment = std::move(dep).value();

  // Repair demo: power-cycle switch 0 (table gone) and let repair()
  // reinstall it.
  {
    deployment.switches[0]->table().clear();
    controller::FailureSet failures;
    failures.crashedSwitches = {0};
    auto rep = ctl.repair(deployment, from.topology, *routingA.value(), failures);
    if (!rep) {
      std::fprintf(stderr, "repair: %s\n", rep.error().message.c_str());
      return 1;
    }
  }

  // The recovery demo below replays this journal; the transaction journals
  // its own flip/commit into it so the successor sees the final intent.
  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  if (auto s = controller::journalDeploy(journal, deployment, 0); !s) {
    std::fprintf(stderr, "journal: %s\n", s.error().message.c_str());
    return 1;
  }

  sim::ControlChannelConfig ccfg;
  ccfg.dropProb = 0.05;
  ccfg.dupProb = 0.05;
  sim::ControlChannel channel(sim, 1, ccfg);

  controller::IntentCatalog catalog;
  catalog[from.topology.name()] = {&from.topology, routingA.value().get()};

  std::unique_ptr<routing::RoutingAlgorithm> routingB;
  if (configs.size() >= 2) {
    // Live transactional update to the second topology, over a mildly lossy
    // control channel so the retry counters have something to show.
    const controller::ExperimentConfig& to = configs[1];
    auto routingR = routing::makeRouting(to.routingStrategy, to.topology);
    if (!routingR) {
      std::fprintf(stderr, "routing: %s\n", routingR.error().message.c_str());
      return 1;
    }
    routingB = std::move(routingR).value();
    dopt.requireDeadlockFree = from.pfc && to.pfc;
    auto plan = ctl.planUpdate(deployment, to.topology, *routingB, dopt);
    if (!plan) {
      std::fprintf(stderr, "planUpdate: %s\n", plan.error().message.c_str());
      return 1;
    }
    controller::ReconfigOptions topt;
    topt.tracer = &tracer;
    topt.journal = &journal;
    controller::ReconfigTransaction tx(sim, channel, deployment,
                                       std::move(plan).value(), topt);
    tx.start();
    sim.runUntil(msToNs(500.0));
    if (!tx.finished()) {
      std::fprintf(stderr, "transaction did not finish within 500 ms\n");
      return 1;
    }
    catalog[to.topology.name()] = {&to.topology, routingB.get()};
  }

  // Recovery demo: a successor controller replays the journal and
  // anti-entropies the fabric. On a clean fabric that is one readback round
  // with zero drift; --reboot-switch N power-cycles a switch first, so the
  // run also converges it and verifies.
  if (opt.rebootSwitch >= 0) {
    deployment.switches[static_cast<std::size_t>(opt.rebootSwitch)]->reboot();
  }
  {
    auto rplan = controller::planRecovery(ctl, journal, catalog, dopt);
    if (!rplan) {
      std::fprintf(stderr, "planRecovery: %s\n", rplan.error().message.c_str());
      return 1;
    }
    controller::RecoveryOptions ropt;
    ropt.journal = &journal;
    ropt.tracer = &tracer;
    controller::RecoveryRun recovery(sim, channel, deployment.switches,
                                     std::move(rplan).value(), ropt);
    recovery.start();
    sim.runUntil(sim.now() + msToNs(500.0));
    if (!recovery.finished() || !recovery.report().converged) {
      std::fprintf(stderr, "recovery did not converge within 500 ms\n");
      return 1;
    }
  }

  if (opt.jsonOut) {
    std::printf("%s\n", obs::tracerToJson(tracer).dump(2).c_str());
    return 0;
  }
  const std::vector<obs::Span> spans = tracer.spans();
  std::vector<int> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != obs::kNoSpan) depth[i] = depth[spans[i].parent] + 1;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& s = spans[i];
    std::printf("%*s%-28s start=%-12s dur=%-10s", depth[i] * 2, "",
                s.name.c_str(), humanTime(s.start).c_str(),
                humanTime(s.duration()).c_str());
    for (const auto& [k, v] : s.attrs) std::printf(" %s=%s", k.c_str(), v.c_str());
    std::printf("\n");
  }
  return 0;
}

}  // namespace

// -- serve: long-running multi-tenant testbed-as-a-service --------------------

/// One admitted tenant. Owns the loaded config (and with it the topology)
/// and the routing algorithm so the TenantManager's intent pointers stay
/// valid for the slice's whole lifetime.
struct ServeTenant {
  std::uint16_t id = 0;
  std::string name;
  std::unique_ptr<controller::ExperimentConfig> config;
  std::unique_ptr<routing::RoutingAlgorithm> routing;
  std::uint64_t bytesDelivered = 0;     ///< cumulative over `run` bursts
  std::uint64_t messagesDelivered = 0;  ///< ditto
};

int serveAdmit(tenant::TenantManager& mgr,
               std::vector<std::unique_ptr<ServeTenant>>& tenants,
               const std::string& path) {
  auto config = controller::loadExperimentConfig(path);
  if (!config) {
    std::printf("admit %s: %s\n", path.c_str(), config.error().message.c_str());
    return 1;
  }
  auto t = std::make_unique<ServeTenant>();
  t->config = std::make_unique<controller::ExperimentConfig>(std::move(config).value());
  t->name = t->config->topology.name();
  for (const auto& live : tenants) {
    if (live->name == t->name) {
      std::printf("admit %s: tenant '%s' is already live (id %u) — evict it "
                  "first, nothing was carved\n",
                  path.c_str(), t->name.c_str(), live->id);
      return 1;
    }
  }
  auto routing =
      routing::makeRouting(t->config->routingStrategy, t->config->topology);
  if (!routing) {
    std::printf("admit %s: %s\n", path.c_str(), routing.error().message.c_str());
    return 1;
  }
  t->routing = std::move(routing).value();

  tenant::TenantSpec spec;
  spec.name = t->name;
  spec.topology = &t->config->topology;
  spec.routing = t->routing.get();
  spec.spareSelfLinksPerSwitch = 1;
  spec.deploy.requireDeadlockFree = t->config->pfc;
  auto admitted = mgr.admit(spec);
  if (!admitted) {
    std::printf("admit %s: %s\n", path.c_str(), admitted.error().message.c_str());
    return 1;
  }
  t->id = admitted.value().id;
  std::printf("admitted tenant %u '%s': %d hosts, %d flow entries, "
              "peak two-version reservation %.0f%%\n",
              t->id, t->name.c_str(), t->config->topology.numHosts(),
              admitted.value().flowEntries,
              admitted.value().peakReservedFraction * 100.0);
  tenants.push_back(std::move(t));
  return 0;
}

/// Replicated control plane for `serve --standbys N`: one leader plus N
/// standbys over in-sim control channels, attached to the first admitted
/// tenant's slice controller. The `failover` command kills the current
/// leader and drives simulated time until a standby has claimed the term,
/// fenced the old leader, and converged the slice from its journal replica.
struct ServeHa {
  std::uint16_t tenantId = 0;
  std::string tenantName;
  sim::Simulator sim;
  std::unique_ptr<sim::ControlChannel> fabric;
  std::unique_ptr<sim::ControlChannel> repl;
  std::unique_ptr<controller::ReplicatedController> ha;
};

std::unique_ptr<ServeHa> serveHaAttach(tenant::TenantManager& mgr,
                                       const ServeTenant& t, int standbys) {
  const tenant::TenantSlice* slice = mgr.slice(t.id);
  if (slice == nullptr) return nullptr;
  auto s = std::make_unique<ServeHa>();
  s->tenantId = t.id;
  s->tenantName = t.name;
  s->fabric = std::make_unique<sim::ControlChannel>(s->sim, 1);
  sim::ControlChannelConfig rcfg;
  rcfg.baseDelay = 1'000;  // management network: faster than the fabric
  rcfg.jitter = 500;
  s->repl = std::make_unique<sim::ControlChannel>(s->sim, 102, rcfg);
  controller::HaConfig hcfg;
  hcfg.deploy = slice->deployOptions;
  s->ha = std::make_unique<controller::ReplicatedController>(
      s->sim, *slice->controller, *s->fabric, *s->repl, standbys + 1, hcfg);
  // Takeover recompiles run against the tenant's slice controller with its
  // deploy options; the plan scopes itself to the tenant its journaled epoch
  // names, so a new leader can only ever touch this tenant's namespace.
  s->ha->setCatalog({{slice->topology->name(), {slice->topology, slice->routing}}});
  if (auto adopted = s->ha->adoptDeployment(slice->deployment); !adopted) {
    std::printf("ha: cannot adopt tenant '%s' deployment: %s\n", t.name.c_str(),
                adopted.error().message.c_str());
    return nullptr;
  }
  s->ha->start();
  // Let the adopt record stream and the first heartbeats land so `status`
  // reflects a settled group (sim time only advances inside HA commands).
  s->sim.runUntil(msToNs(1.0));
  std::printf("ha: control plane replicated over %d standby(s) for tenant %u "
              "'%s' (leader replica %d, term %llu)\n",
              standbys, t.id, t.name.c_str(), s->ha->leaderId(),
              static_cast<unsigned long long>(s->ha->term()));
  return s;
}

void serveHaStatus(const ServeHa& s) {
  const controller::ReplicatedController& ha = *s.ha;
  int alive = 0;
  std::uint64_t streamed = 0;
  for (int r = 0; r < ha.numReplicas(); ++r) {
    const controller::ReplicaStatus rs = ha.status(r);
    if (rs.alive) ++alive;
    if (!rs.isLeader) streamed += rs.framesReceived;
  }
  std::printf("  ha: tenant '%s', leader replica %d, term %llu, %d/%d "
              "replicas alive, %llu journal frames replicated, %zu "
              "failover(s), %llu fenced write(s)\n",
              s.tenantName.c_str(), ha.leaderId(),
              static_cast<unsigned long long>(ha.term()), alive,
              ha.numReplicas(), static_cast<unsigned long long>(streamed),
              ha.failovers().size(),
              static_cast<unsigned long long>(ha.fencedWritesTotal()));
}

int serveFailover(ServeHa& s) {
  controller::ReplicatedController& ha = *s.ha;
  int alive = 0;
  for (int r = 0; r < ha.numReplicas(); ++r) {
    if (ha.status(r).alive) ++alive;
  }
  if (alive < 2) {
    std::printf("failover: no live standby left to fail over to\n");
    return 1;
  }
  const std::size_t before = ha.failovers().size();
  const int old = ha.leaderId();
  ha.kill(old);
  s.sim.runUntil(s.sim.now() + msToNs(50.0));
  if (ha.failovers().size() == before || !ha.failovers().back().converged) {
    std::printf("failover: takeover did not converge within 50 ms of sim "
                "time after killing replica %d\n",
                old);
    return 1;
  }
  const controller::FailoverReport& r = ha.failovers().back();
  std::printf("failover: killed leader replica %d; replica %d took over at "
              "term %llu in %.1f us of sim time (%d flow-mods vs %d for a "
              "cold start, %llu stale write(s) fenced)\n",
              old, r.newLeader, static_cast<unsigned long long>(r.toTerm),
              static_cast<double>(r.takeoverWindow()) / 1e3,
              r.recovery.flowMods, r.recovery.fullRedeployFlowMods,
              static_cast<unsigned long long>(ha.fencedWritesTotal()));
  return 0;
}

void serveStatus(const tenant::TenantManager& mgr,
                 const std::vector<std::unique_ptr<ServeTenant>>& tenants) {
  std::printf("tenants: %d\n", mgr.numTenants());
  for (const auto& t : tenants) {
    const tenant::TenantSlice* slice = mgr.slice(t->id);
    if (slice == nullptr) continue;
    std::size_t entries = 0;
    for (const auto& sw : mgr.switches()) entries += sw->table().countTenant(t->id);
    std::printf("  tenant %u '%s': topology %s, %d hosts (global %u..%u), "
                "%zu live flow entries, %llu bytes delivered\n",
                t->id, t->name.c_str(), slice->topology->name().c_str(),
                slice->topology->numHosts(), slice->hostBase,
                slice->hostBase +
                    static_cast<std::uint32_t>(slice->topology->numHosts()) - 1,
                entries, static_cast<unsigned long long>(t->bytesDelivered));
  }
  for (std::size_t sw = 0; sw < mgr.switches().size(); ++sw) {
    std::printf("  switch %zu: %zu/%zu entries reserved (two-version)\n", sw,
                mgr.reservedEntries(static_cast<int>(sw)),
                mgr.plant().switches[sw].flowTableCapacity);
  }
}

/// Build the shared data plane and run a short message burst inside every
/// slice (each logical host sends to its ring successor). Delivered bytes
/// fold into the per-tenant counters `metrics` exports.
void serveRun(tenant::TenantManager& mgr,
              std::vector<std::unique_ptr<ServeTenant>>& tenants, double ms) {
  if (tenants.empty()) {
    std::printf("run: no tenants admitted\n");
    return;
  }
  sim::Simulator sim;
  auto built = mgr.buildNetwork(sim);
  sim::TransportManager transport(sim, *built.net, {});
  for (auto& t : tenants) {
    const tenant::TenantSlice* slice = mgr.slice(t->id);
    const int n = slice->topology->numHosts();
    if (n < 2) continue;
    for (int h = 0; h < n; ++h) {
      const int src = static_cast<int>(slice->hostBase) + h;
      const int dst = static_cast<int>(slice->hostBase) + (h + 1) % n;
      transport.sendMessage(src, dst, 64 * kKiB, 0,
                            [raw = t.get()](std::uint64_t, TimeNs) {
                              raw->bytesDelivered += 64 * kKiB;
                              raw->messagesDelivered += 1;
                            });
    }
  }
  sim.runUntil(msToNs(ms));
  std::printf("ran %.1f ms of traffic across %zu tenant slice(s)\n", ms,
              tenants.size());
}

void serveMetrics(const tenant::TenantManager& mgr,
                  const std::vector<std::unique_ptr<ServeTenant>>& tenants) {
  obs::Registry registry;
  for (const auto& t : tenants) {
    const tenant::TenantSlice* slice = mgr.slice(t->id);
    if (slice == nullptr) continue;
    const obs::Labels labels{{"tenant", t->name}};
    registry
        .gauge("sdt_tenant_hosts", labels, "hosts attached to the tenant slice")
        .set(slice->topology->numHosts());
    std::size_t entries = 0;
    for (const auto& sw : mgr.switches()) entries += sw->table().countTenant(t->id);
    registry
        .gauge("sdt_tenant_flow_entries", labels,
               "live flow entries in the tenant's cookie namespace")
        .set(static_cast<double>(entries));
    registry
        .gauge("sdt_tenant_watch_ports", labels,
               "egress queues the tenant's admission controller samples")
        .set(static_cast<double>(slice->watchPorts.size()));
    registry
        .counter("sdt_tenant_bytes_delivered_total", labels,
                 "application bytes delivered inside the slice by `run` bursts")
        .syncTo(t->bytesDelivered);
    registry
        .counter("sdt_tenant_messages_delivered_total", labels,
                 "messages delivered inside the slice by `run` bursts")
        .syncTo(t->messagesDelivered);
  }
  for (std::size_t sw = 0; sw < mgr.switches().size(); ++sw) {
    registry
        .gauge("sdt_plant_reserved_entries",
               {{"switch", strFormat("%zu", sw)}},
               "two-version flow-table reservation held against the switch")
        .set(static_cast<double>(mgr.reservedEntries(static_cast<int>(sw))));
  }
  std::printf("%s", obs::metricsToPrometheus(registry).c_str());
}

/// `evict`'s argument: a whole decimal tenant id in [1, 65534].
std::optional<std::uint16_t> parseTenantId(const std::string& arg) {
  unsigned value = 0;
  const auto [end, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), value);
  if (ec != std::errc() || end != arg.data() + arg.size() || value < 1 || value > 65534) {
    return std::nullopt;
  }
  return static_cast<std::uint16_t>(value);
}

/// `run`'s argument: a whole decimal token for a finite ms value in (0, 1e6].
std::optional<double> parseRunMs(const std::string& arg) {
  double value = 0.0;
  const auto [end, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), value);
  if (ec != std::errc() || end != arg.data() + arg.size() || !std::isfinite(value) ||
      value <= 0.0 || value > 1e6) {
    return std::nullopt;
  }
  return value;
}

int cmdServe(const CliOptions& opt) {
  projection::PlantConfig pc;
  pc.numSwitches = opt.switches;
  pc.spec = opt.spec;
  auto plant = projection::buildPlant(pc);
  if (!plant) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    return 1;
  }
  if (opt.flexPairs > 0) {
    if (auto s = projection::addOpticalFlex(plant.value(), opt.flexPairs); !s) {
      std::fprintf(stderr, "flex: %s\n", s.error().message.c_str());
      return 1;
    }
  }
  tenant::TenantManager mgr(std::move(plant).value());
  std::vector<std::unique_ptr<ServeTenant>> tenants;
  std::unique_ptr<ServeHa> serveHa;
  // The replicated control plane attaches to the first live tenant; after
  // that tenant is evicted it re-attaches on the next admit.
  const auto maybeAttachHa = [&]() {
    if (opt.standbys > 0 && serveHa == nullptr && !tenants.empty()) {
      serveHa = serveHaAttach(mgr, *tenants.front(), opt.standbys);
    }
  };

  std::printf("sdt tenant service: plant %d x %s, %zu-entry tables\n",
              opt.switches, opt.spec.model.c_str(), opt.spec.flowTableCapacity);
  for (const std::string& path : opt.configs) {
    serveAdmit(mgr, tenants, path);
  }
  maybeAttachHa();
  std::printf("commands: admit <config.json> | evict <id> | status | "
              "run [ms] | metrics%s | quit\n",
              opt.standbys > 0 ? " | failover" : "");

  int rejectedCommands = 0;
  char line[1024];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::string cmd;
    std::string arg;
    {
      const std::string s(line);
      const std::size_t sp = s.find_first_of(" \t\n");
      cmd = s.substr(0, sp);
      if (sp != std::string::npos) {
        const std::size_t b = s.find_first_not_of(" \t\n", sp);
        const std::size_t e = s.find_last_not_of(" \t\n");
        if (b != std::string::npos && e >= b) arg = s.substr(b, e - b + 1);
      }
    }
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "admit" && !arg.empty()) {
      if (serveAdmit(mgr, tenants, arg) == 0) maybeAttachHa();
    } else if (cmd == "evict" && !arg.empty()) {
      const std::optional<std::uint16_t> parsed = parseTenantId(arg);
      if (!parsed) {
        std::printf("evict: tenant id must be a whole number in [1, 65534], got '%s'\n",
                    arg.c_str());
        ++rejectedCommands;
        continue;
      }
      const std::uint16_t id = *parsed;
      // The HA replicas reference the slice controller — detach before the
      // slice (and with it that controller) is torn down.
      if (serveHa != nullptr && serveHa->tenantId == id) {
        std::printf("ha: detaching from tenant %u before eviction\n", id);
        serveHa.reset();
      }
      if (auto s = mgr.evict(id); !s) {
        std::printf("evict %u: %s\n", id, s.error().message.c_str());
      } else {
        std::erase_if(tenants, [id](const auto& t) { return t->id == id; });
        std::printf("evicted tenant %u (entries GC'd, cables freed)\n", id);
      }
    } else if (cmd == "status") {
      serveStatus(mgr, tenants);
      if (serveHa != nullptr) serveHaStatus(*serveHa);
    } else if (cmd == "run") {
      const std::optional<double> ms = arg.empty() ? 5.0 : parseRunMs(arg);
      if (!ms) {
        std::printf("run: ms must be a number in (0, 1e6], got '%s'\n", arg.c_str());
        ++rejectedCommands;
        continue;
      }
      serveRun(mgr, tenants, *ms);
    } else if (cmd == "metrics") {
      serveMetrics(mgr, tenants);
    } else if (cmd == "failover") {
      if (serveHa == nullptr) {
        std::printf("failover: no replicated control plane (start serve with "
                    "--standbys N and admit a tenant)\n");
      } else {
        serveFailover(*serveHa);
      }
    } else {
      std::printf("unknown command: %s\n", cmd.c_str());
      ++rejectedCommands;
    }
  }
  if (rejectedCommands > 0) {
    std::fprintf(stderr, "serve: %d unknown or malformed command(s) rejected\n",
                 rejectedCommands);
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::string workloadName;
  auto opt = parseArgs(argc, argv, workloadName);
  if (!opt) {
    std::fprintf(stderr, "%s\n", opt.error().message.c_str());
    return usage();
  }
  std::vector<controller::ExperimentConfig> configs;
  for (const std::string& path : opt.value().configs) {
    auto c = controller::loadExperimentConfig(path);
    if (!c) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), c.error().message.c_str());
      return 1;
    }
    configs.push_back(std::move(c).value());
  }
  if (command == "status") return cmdStatus(opt.value());
  if (command == "serve") return cmdServe(opt.value());
  if (configs.empty()) {
    std::fprintf(stderr, "no config file given\n");
    return usage();
  }
  if (command == "topo") return cmdTopo(configs[0]);
  if (command == "check") return cmdCheck(configs, opt.value());
  if (command == "deploy") return cmdDeploy(configs[0], opt.value());
  if (command == "run") return cmdRun(configs[0], opt.value(), workloadName);
  if (command == "feas") return cmdFeas(configs[0], opt.value());
  if (command == "recover") return cmdRecover(configs, opt.value());
  if (command == "stats") return cmdStats(configs[0], opt.value(), workloadName);
  if (command == "trace") return cmdTrace(configs, opt.value());
  return usage();
}
