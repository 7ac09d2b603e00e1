// Determinism regression tests: the engine must be bit-reproducible.
//
// The event arena + pooled packet queues reordered nothing by construction
// (the heap still pops by (when, seq)); these tests pin that down end to
// end: the same seed/configuration run twice — and run through a
// multi-threaded SweepRunner — must produce identical flow-completion
// times, event counts, and per-port counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <ostream>
#include <string>

#include "common/hash.hpp"
#include "controller/controller.hpp"
#include "controller/journal.hpp"
#include "controller/recovery.hpp"
#include "controller/transaction.hpp"
#include "obs/collectors.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/consistency.hpp"
#include "sim/control_channel.hpp"
#include "sim/transport.hpp"
#include "tenant/tenant.hpp"
#include "testbed/evaluator.hpp"
#include "testbed/sweep.hpp"
#include "topo/generators.hpp"
#include "workloads/apps.hpp"
#include "workloads/datacenter.hpp"

namespace sdt::testbed {
namespace {

struct Fingerprint {
  TimeNs act = 0;
  std::uint64_t events = 0;
  std::int64_t fabricTxBytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t portHash = 0;  ///< FNV-1a over every PortCounters field

  bool operator==(const Fingerprint&) const = default;
};

std::uint64_t hashPorts(sim::Network& net) {
  hash::Fnv64 h;
  for (int sw = 0; sw < net.numSwitches(); ++sw) {
    for (int p = 0; p < net.switchPortCount(sw); ++p) {
      const sim::PortCounters& c = net.switchPortCounters(sw, p);
      h.mix(c.txPackets)
          .mix(c.txBytes)
          .mix(c.rxPackets)
          .mix(c.rxBytes)
          .mix(c.drops)
          .mix(c.pausesSent)
          .mix(c.ecnMarks);
    }
  }
  return h.value();
}

/// One full SDT-mode experiment (projection + flow tables + transport), so
/// the run exercises the indexed flow-table path and the packet pool.
Fingerprint runPoint(std::int64_t msgBytes) {
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  EXPECT_TRUE(plant.ok());
  auto inst = makeSdt(topo, routing, plant.value(), {});
  EXPECT_TRUE(inst.ok()) << inst.error().message;
  const workloads::Workload w = workloads::imbAlltoall(8, msgBytes, 2);
  const RunResult run = runWorkload(inst.value(), w, {});
  Fingerprint fp;
  fp.act = run.act;
  fp.events = run.events;
  fp.fabricTxBytes = run.fabricTxBytes;
  fp.drops = run.drops;
  fp.portHash = hashPorts(inst.value().net());
  return fp;
}

TEST(Determinism, SameConfigurationRunsBitIdentical) {
  const Fingerprint a = runPoint(16 * 1024);
  const Fingerprint b = runPoint(16 * 1024);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.act, 0);
}

TEST(Determinism, SweepRunnerMatchesSerialBitForBit) {
  const std::vector<std::int64_t> sizes{1024, 4096, 16384, 65536};

  std::vector<Fingerprint> serial;
  serial.reserve(sizes.size());
  for (const std::int64_t s : sizes) serial.push_back(runPoint(s));

  const SweepRunner sweep(4);
  EXPECT_EQ(sweep.threads(), 4);
  const std::vector<Fingerprint> threaded =
      sweep.run(sizes.size(), [&](std::size_t i) { return runPoint(sizes[i]); });

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(threaded[i], serial[i]) << "point " << i << " diverged";
  }
  // Distinct configurations must actually differ — otherwise the equality
  // above proves nothing.
  EXPECT_NE(serial[0], serial[3]);
}

/// Scoped SDT_SHARDS / SDT_SIM_WORKERS override: the default Simulator
/// constructor reads both at construction time, so everything built inside
/// the guard's lifetime runs on the requested engine geometry. Ambient
/// values (e.g. a CI shard matrix exporting SDT_SHARDS) are restored on
/// exit so the rest of the suite keeps its configured geometry.
class ShardEnvGuard {
 public:
  struct Unset {};  ///< tag: force the no-env legacy default

  ShardEnvGuard(int shards, int workers) {
    setenv("SDT_SHARDS", std::to_string(shards).c_str(), 1);
    setenv("SDT_SIM_WORKERS", std::to_string(workers).c_str(), 1);
  }
  explicit ShardEnvGuard(Unset) {
    unsetenv("SDT_SHARDS");
    unsetenv("SDT_SIM_WORKERS");
  }
  ~ShardEnvGuard() {
    restore("SDT_SHARDS", savedShards_);
    restore("SDT_SIM_WORKERS", savedWorkers_);
  }
  ShardEnvGuard(const ShardEnvGuard&) = delete;
  ShardEnvGuard& operator=(const ShardEnvGuard&) = delete;

 private:
  static std::optional<std::string> snapshot(const char* name) {
    const char* v = std::getenv(name);
    return v == nullptr ? std::nullopt : std::optional<std::string>(v);
  }
  static void restore(const char* name, const std::optional<std::string>& v) {
    if (v.has_value()) {
      setenv(name, v->c_str(), 1);
    } else {
      unsetenv(name);
    }
  }

  std::optional<std::string> savedShards_ = snapshot("SDT_SHARDS");
  std::optional<std::string> savedWorkers_ = snapshot("SDT_SIM_WORKERS");
};

TEST(ShardedDeterminism, OneShardMatchesLegacySerialPath) {
  // Explicit K=1 must be byte-identical to the no-env legacy engine: with
  // one shard the key layout, arena, and run loop collapse to the legacy
  // serial path exactly.
  Fingerprint base;
  {
    const ShardEnvGuard env(ShardEnvGuard::Unset{});
    base = runPoint(16 * 1024);
  }
  Fingerprint one;
  {
    const ShardEnvGuard env(1, 1);
    one = runPoint(16 * 1024);
  }
  EXPECT_EQ(one, base);
  EXPECT_GT(base.events, 0u);
}

TEST(ShardedDeterminism, ParallelBitIdenticalToSerialAtSameK) {
  // The acceptance gate: at fixed shard count K, a K-worker parallel run
  // must be bit-identical to the 1-worker serial merge over the same
  // shards. (Fingerprints are NOT comparable across different K: crossDelay
  // pads shard-boundary latencies, which legitimately shifts timing.)
  for (const int k : {2, 4, 8}) {
    Fingerprint serial;
    Fingerprint parallel;
    {
      const ShardEnvGuard env(k, 1);
      serial = runPoint(16 * 1024);
    }
    {
      const ShardEnvGuard env(k, k);
      parallel = runPoint(16 * 1024);
    }
    EXPECT_EQ(parallel, serial) << "K=" << k << " parallel diverged from serial";
    EXPECT_GT(serial.events, 0u);
    EXPECT_GT(serial.act, 0);
  }
}

/// Incast point: many-to-one traffic concentrates every flow onto one edge
/// port — the worst case for cross-shard event ordering (all shards target
/// the aggregator's shard) and the traffic shape the admission tier guards.
Fingerprint runIncastPoint(std::int64_t bytesPerFlow) {
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  EXPECT_TRUE(plant.ok());
  InstanceOptions opt;
  opt.network.pfcEnabled = false;  // lossy: drops must also reproduce
  auto inst = makeSdt(topo, routing, plant.value(), opt);
  EXPECT_TRUE(inst.ok()) << inst.error().message;
  const workloads::Workload w = workloads::incast(12, bytesPerFlow, 3);
  const RunResult run = runWorkload(inst.value(), w, {});
  Fingerprint fp;
  fp.act = run.act;
  fp.events = run.events;
  fp.fabricTxBytes = run.fabricTxBytes;
  fp.drops = run.drops;
  fp.portHash = hashPorts(inst.value().net());
  return fp;
}

TEST(ShardedDeterminism, IncastBitIdenticalSerialVsParallelAtSameK) {
  for (const int k : {2, 4}) {
    Fingerprint serial;
    Fingerprint parallel;
    {
      const ShardEnvGuard env(k, 1);
      serial = runIncastPoint(8 * 1024);
    }
    {
      const ShardEnvGuard env(k, k);
      parallel = runIncastPoint(8 * 1024);
    }
    EXPECT_EQ(parallel, serial) << "K=" << k << " incast diverged";
    EXPECT_GT(serial.events, 0u);
    EXPECT_GT(serial.act, 0);
  }
}

TEST(ShardedDeterminism, ShardedRunsAreRepeatable) {
  // Two identical sharded parallel runs must also be bit-identical to each
  // other (no hidden wall-clock or thread-id dependence).
  const auto once = []() {
    const ShardEnvGuard env(4, 4);
    return runPoint(8 * 1024);
  };
  const Fingerprint a = once();
  const Fingerprint b = once();
  EXPECT_EQ(a, b);
}

TEST(ShardedDeterminism, ControlPlanePinsEngineSerial) {
  // Wiring a ControlChannel (any control-plane component) must permanently
  // disable the worker threads: controller handlers mutate flow tables on
  // arbitrary shards, so a parallel window would race. The K-shard key
  // space is unchanged — only the threads go away.
  sim::Simulator sim(4, 4);
  EXPECT_FALSE(sim.serialRequired());
  const sim::ControlChannel channel(sim, 42);
  EXPECT_TRUE(sim.serialRequired());
  int hops = 0;
  std::function<void(int)> hop = [&](int shard) {
    if (++hops >= 32) return;
    const int next = (shard + 1) % 4;
    sim.scheduleOn(next, sim.crossDelay(next, 1000), [&, next]() { hop(next); });
  };
  sim.scheduleOn(0, 0, [&]() { hop(0); });
  sim.run();
  EXPECT_EQ(hops, 32);
  EXPECT_EQ(sim.barrierWindows(), 0u);  // serial merge loop, no windows
}

TEST(Determinism, SweepRunnerPropagatesExceptions) {
  const SweepRunner sweep(2);
  EXPECT_THROW(sweep.run(8,
                         [](std::size_t i) -> int {
                           if (i == 5) throw std::runtime_error("boom");
                           return static_cast<int>(i);
                         }),
               std::runtime_error);
}

TEST(Determinism, PointSeedsAreStableAndDistinct) {
  const std::uint64_t base = 2023;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t s = SweepRunner::pointSeed(base, i);
    EXPECT_EQ(s, SweepRunner::pointSeed(base, i));  // pure function
    for (const std::uint64_t prior : seeds) EXPECT_NE(s, prior);
    seeds.push_back(s);
  }
  EXPECT_NE(SweepRunner::pointSeed(base, 0), SweepRunner::pointSeed(base + 1, 0));
}

std::uint64_t hashBytes(const std::string& bytes) {
  return hash::Fnv64().bytes(bytes).value();
}

/// Everything observable about one live reconfiguration under a lossy
/// control channel: the protocol trace, the data-plane counters, and the
/// consistency checker's view.
struct ReconfigFingerprint {
  bool committed = false;
  bool rolledBack = false;
  int flowModsInstalled = 0;
  int flowModsRolledBack = 0;
  int flowModsGarbageCollected = 0;
  int barrierRoundTrips = 0;
  int retriesTotal = 0;
  TimeNs updateWindowEnd = 0;
  TimeNs finishedAt = 0;
  std::size_t violations = 0;
  std::size_t stamped = 0;
  std::uint64_t lookups = 0;
  std::uint64_t portHash = 0;
  std::uint64_t channelSent = 0;
  std::uint64_t channelDelivered = 0;
  std::uint64_t reportHash = 0;  ///< FNV-1a over report().toJson().dump()

  bool operator==(const ReconfigFingerprint&) const = default;
};

/// One live line->ring update over a drop/dup/reorder channel while TCP
/// traffic runs: the whole transaction (retries, backoff draws, channel
/// schedule) must be a pure function of the seed.
ReconfigFingerprint runReconfigPoint(std::uint64_t seed) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  const routing::ShortestPathRouting rFrom(from);
  const routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  EXPECT_TRUE(plantR.ok());
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  EXPECT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::EpochConsistencyChecker checker;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, &checker);
  sim::TransportManager tm(sim, *built.net, {});

  sim::ControlChannelConfig cfg;
  cfg.dropProb = 0.25;
  cfg.dupProb = 0.15;
  cfg.reorderProb = 0.15;
  sim::ControlChannel channel(sim, seed, cfg);

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  EXPECT_TRUE(planR.ok());

  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value());
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 64 * 1024, nullptr);
  }
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));

  ReconfigFingerprint fp;
  if (!tx.finished()) return fp;
  const controller::ReconfigReport& r = tx.report();
  fp.committed = r.committed;
  fp.rolledBack = r.rolledBack;
  fp.flowModsInstalled = r.flowModsInstalled;
  fp.flowModsRolledBack = r.flowModsRolledBack;
  fp.flowModsGarbageCollected = r.flowModsGarbageCollected;
  fp.barrierRoundTrips = r.barrierRoundTrips;
  fp.retriesTotal = r.retriesTotal;
  fp.updateWindowEnd = r.updateWindowEnd;
  fp.finishedAt = r.finishedAt;
  fp.violations = checker.violations().size();
  fp.stamped = checker.stampedPackets();
  fp.lookups = checker.lookups();
  fp.portHash = hashPorts(*built.net);
  fp.channelSent = channel.stats().sent;
  fp.channelDelivered = channel.stats().delivered;
  fp.reportHash = hashBytes(r.toJson().dump());
  return fp;
}

TEST(Determinism, TransactionalReconfigBitIdenticalSerialVsThreaded) {
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44};

  std::vector<ReconfigFingerprint> serial;
  serial.reserve(seeds.size());
  for (const std::uint64_t s : seeds) serial.push_back(runReconfigPoint(s));

  const SweepRunner sweep(4);
  const std::vector<ReconfigFingerprint> threaded = sweep.run(
      seeds.size(), [&](std::size_t i) { return runReconfigPoint(seeds[i]); });

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(threaded[i], serial[i]) << "reconfig point " << i << " diverged";
    // Rerunning the same seed serially must also reproduce bit-for-bit.
    EXPECT_EQ(runReconfigPoint(seeds[i]), serial[i])
        << "reconfig seed " << seeds[i] << " not a pure function of the seed";
    EXPECT_GT(serial[i].retriesTotal, 0) << "channel too kind: no retries";
    EXPECT_EQ(serial[i].violations, 0u);
  }
  // Distinct seeds must actually schedule differently somewhere.
  bool anyDiffer = false;
  for (std::size_t i = 1; i < seeds.size(); ++i) {
    anyDiffer = anyDiffer || !(serial[i] == serial[0]);
  }
  EXPECT_TRUE(anyDiffer);
}

/// Everything observable about a crash-at-phase-K + cold-start recovery:
/// the crashed transaction's trace, the journal's exact byte stream (records
/// carry simulated time only — any wall-clock leak shows up here first), and
/// the reconciliation trace.
struct CrashRecoveryFingerprint {
  bool crashed = false;
  int decision = 0;
  bool converged = false;
  std::uint32_t targetEpoch = 0;
  int flowMods = 0;
  int statsRounds = 0;
  int retriesTotal = 0;
  int switchesDrifted = 0;
  int switchesRebooted = 0;
  TimeNs recoveredAt = 0;
  std::uint64_t journalHash = 0;  ///< FNV-1a over the raw journal bytes
  std::uint64_t portHash = 0;
  std::uint64_t channelSent = 0;
  std::uint64_t channelDelivered = 0;
  std::uint64_t txReportHash = 0;  ///< FNV-1a over the crashed tx's report JSON
  std::uint64_t reportHash = 0;    ///< FNV-1a over the recovery report JSON

  bool operator==(const CrashRecoveryFingerprint&) const = default;
};

CrashRecoveryFingerprint runCrashRecoverPoint(std::uint64_t seed,
                                              controller::CrashPoint crashAt) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  const routing::ShortestPathRouting rFrom(from);
  const routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  EXPECT_TRUE(plantR.ok());
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  EXPECT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  EXPECT_TRUE(controller::journalDeploy(journal, dep, 0).ok());

  sim::Simulator sim;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, nullptr);
  sim::TransportManager tm(sim, *built.net, {});
  sim::ControlChannelConfig cfg;
  cfg.dropProb = 0.2;
  cfg.dupProb = 0.15;
  cfg.reorderProb = 0.15;
  sim::ControlChannel channel(sim, seed, cfg);

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  EXPECT_TRUE(planR.ok());
  controller::ReconfigOptions topt;
  topt.journal = &journal;
  topt.crashAt = crashAt;
  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value(),
                                     topt);
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 64 * 1024, nullptr);
  }
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));

  CrashRecoveryFingerprint fp;
  if (!tx.finished()) return fp;
  fp.crashed = tx.crashed();
  // A seed-determined switch power-cycles while the controller is down.
  dep.switches[seed % dep.switches.size()]->reboot();

  controller::IntentCatalog catalog;
  catalog[from.name()] = {&from, &rFrom};
  catalog[to.name()] = {&to, &rTo};
  auto rplanR = controller::planRecovery(ctl, journal, catalog, dopt);
  if (!rplanR.ok()) return fp;
  fp.decision = static_cast<int>(rplanR.value().decision);
  fp.targetEpoch = rplanR.value().targetEpoch;
  controller::RecoveryOptions ropt;
  ropt.journal = &journal;
  ropt.retrySeed = seed;
  controller::RecoveryRun recovery(sim, channel, dep.switches,
                                   std::move(rplanR).value(), ropt);
  recovery.start();
  sim.runUntil(sim.now() + msToNs(100.0));
  if (!recovery.finished()) return fp;
  const controller::RecoveryReport& r = recovery.report();
  fp.converged = r.converged;
  fp.flowMods = r.flowMods;
  fp.statsRounds = r.statsRounds;
  fp.retriesTotal = r.retriesTotal;
  fp.switchesDrifted = r.switchesDrifted;
  fp.switchesRebooted = r.switchesRebooted;
  fp.recoveredAt = r.finishedAt;
  fp.journalHash = hashBytes(storage.bytes());
  fp.portHash = hashPorts(*built.net);
  fp.channelSent = channel.stats().sent;
  fp.channelDelivered = channel.stats().delivered;
  fp.txReportHash = hashBytes(tx.report().toJson().dump());
  fp.reportHash = hashBytes(r.toJson().dump());
  return fp;
}

TEST(Determinism, CrashRecoveryBitIdenticalSerialVsThreaded) {
  // One point per crash phase, each with its own channel seed: the journal
  // byte stream, the recovery trace, and the data-plane counters must all be
  // pure functions of (seed, crash point).
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44, 55};
  const controller::CrashPoint points[] = {
      controller::CrashPoint::kPrepare, controller::CrashPoint::kMidInstall,
      controller::CrashPoint::kPreFlip, controller::CrashPoint::kPostFlip,
      controller::CrashPoint::kMidGc};

  std::vector<CrashRecoveryFingerprint> serial;
  serial.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    serial.push_back(runCrashRecoverPoint(seeds[i], points[i]));
  }

  const SweepRunner sweep(4);
  const std::vector<CrashRecoveryFingerprint> threaded = sweep.run(
      seeds.size(),
      [&](std::size_t i) { return runCrashRecoverPoint(seeds[i], points[i]); });

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(threaded[i], serial[i]) << "crash point " << i << " diverged";
    EXPECT_EQ(runCrashRecoverPoint(seeds[i], points[i]), serial[i])
        << "crash seed " << seeds[i] << " not a pure function of the seed";
    EXPECT_TRUE(serial[i].crashed) << "point " << i << " never crashed";
    EXPECT_TRUE(serial[i].converged) << "point " << i << " never recovered";
    EXPECT_NE(serial[i].journalHash, 0u);
  }
  // Distinct (seed, phase) points must actually journal differently.
  bool anyDiffer = false;
  for (std::size_t i = 1; i < seeds.size(); ++i) {
    anyDiffer = anyDiffer || serial[i].journalHash != serial[0].journalHash;
  }
  EXPECT_TRUE(anyDiffer);
}

void PrintTo(const ReconfigFingerprint& f, std::ostream* os) {
  *os << "{committed=" << f.committed << " rolledBack=" << f.rolledBack
      << " installed=" << f.flowModsInstalled
      << " rolledBackMods=" << f.flowModsRolledBack
      << " gc=" << f.flowModsGarbageCollected << " barriers=" << f.barrierRoundTrips
      << " retries=" << f.retriesTotal << " windowEnd=" << f.updateWindowEnd
      << " finishedAt=" << f.finishedAt << " violations=" << f.violations
      << " stamped=" << f.stamped << " lookups=" << f.lookups << " sent=" << f.channelSent
      << " delivered=" << f.channelDelivered << std::hex << " portHash=0x" << f.portHash
      << " reportHash=0x" << f.reportHash << std::dec << "}";
}

void PrintTo(const CrashRecoveryFingerprint& f, std::ostream* os) {
  *os << "{crashed=" << f.crashed << " decision=" << f.decision
      << " converged=" << f.converged << " targetEpoch=" << f.targetEpoch
      << " flowMods=" << f.flowMods << " statsRounds=" << f.statsRounds
      << " retries=" << f.retriesTotal << " drifted=" << f.switchesDrifted
      << " rebooted=" << f.switchesRebooted << " recoveredAt=" << f.recoveredAt
      << " sent=" << f.channelSent << " delivered=" << f.channelDelivered << std::hex
      << " journalHash=0x" << f.journalHash << " portHash=0x" << f.portHash
      << " txReportHash=0x" << f.txReportHash << " reportHash=0x" << f.reportHash
      << std::dec << "}";
}

// Recorded control-plane output. Every send, timer and jitter draw of the
// transaction and recovery protocols feeds these numbers, so any change to
// their round, retry or backoff machinery must reproduce them exactly.
// portHash is zeroed before comparing: data-plane counters depend on
// SDT_SHARDS, while every field pinned here reads the same at 1, 2 and 4
// shards.
TEST(Determinism, ControlPlaneMatchesRecordedValues) {
  const std::pair<std::uint64_t, ReconfigFingerprint> reconfig[] = {
      {11,
       {true, false, 72, 0, 60, 2, 3, 410913, 1425576, 0, 768, 3072, 0, 22, 21,
        0x1239786040769634}},
      {22,
       {true, false, 72, 0, 60, 2, 6, 465800, 1619068, 0, 768, 3072, 0, 27, 23,
        0x7445dae69ea1d11c}},
      {33,
       {true, false, 72, 0, 60, 2, 4, 711519, 1725947, 0, 768, 3072, 0, 23, 21,
        0x3e74c6fe2d492d11}},
      {44,
       {true, false, 72, 0, 60, 2, 11, 3473327, 4783835, 0, 768, 3072, 0, 32, 23,
        0xdd0f6cc7a84f5a86}},
  };
  for (const auto& [seed, want] : reconfig) {
    ReconfigFingerprint got = runReconfigPoint(seed);
    got.portHash = 0;
    EXPECT_EQ(got, want) << "reconfig seed " << seed;
  }

  const controller::CrashPoint points[] = {
      controller::CrashPoint::kPrepare, controller::CrashPoint::kMidInstall,
      controller::CrashPoint::kPreFlip, controller::CrashPoint::kPostFlip,
      controller::CrashPoint::kMidGc};
  struct CrashPin {
    std::uint64_t seed;
    int point;  ///< index into points
    CrashRecoveryFingerprint want;
  };
  const CrashPin crash[] = {
      {11, 0,
       {true, 2, true, 1, 31, 2, 2, 1, 1, 80372915, 0x1a838c4fd77734c6, 0, 14, 14,
        0xedc2aa27d05b3b6c, 0x0403adfc4461a8fb}},
      {11, 1,
       {true, 2, true, 1, 67, 2, 3, 2, 1, 80317638, 0x9208427baecad0a3, 0, 22, 21,
        0x06fa9fd9a41efec0, 0x19197bee5125d0ae}},
      {11, 2,
       {true, 2, true, 1, 67, 2, 1, 2, 1, 80154387, 0x107f2c9f48b2a663, 0, 26, 25,
        0x8a5bf34f1c12a6a3, 0x066248ab9d4ced06}},
      {11, 3,
       {true, 1, true, 2, 68, 2, 0, 2, 1, 80025634, 0x3b65b42a33533814, 0, 28, 27,
        0xb725e87a4ca1efae, 0x696c8733ba7ba6aa}},
      {11, 4,
       {true, 1, true, 2, 37, 2, 0, 1, 1, 80024591, 0x22154c3be0536e7f, 0, 33, 33,
        0xbc9182cb1c822db8, 0xbe04e1efeea132ff}},
      {22, 0,
       {true, 2, true, 1, 31, 2, 1, 1, 1, 80160639, 0x25db9f11896889b9, 0, 13, 13,
        0xedc2aa27d05b3b6c, 0x37a120e1e8ef5e85}},
      {22, 1,
       {true, 2, true, 1, 67, 2, 1, 2, 1, 80152785, 0x87d17b10a960769d, 0, 17, 17,
        0x2bde3a05b1209e85, 0xdc8aa33ff2b243a2}},
      {22, 2,
       {true, 2, true, 1, 67, 2, 3, 2, 1, 80481103, 0xa2dd1955bd14ac9b, 0, 24, 22,
        0x0d94b729d1ed6ef8, 0xda0b6b0bbe49b3e0}},
      {22, 3,
       {true, 1, true, 2, 68, 2, 2, 2, 1, 80162162, 0x84b428bde90c9a7e, 0, 26, 26,
        0x8c5ae812101ece18, 0x991f10d0f7926f64}},
      {22, 4,
       {true, 1, true, 2, 37, 2, 6, 1, 1, 81202239, 0xea35f09c187c4d57, 0, 37, 33,
        0x07c4b17c2826c89a, 0x65965f7c652ba47b}},
      {33, 0,
       {true, 2, true, 1, 31, 2, 1, 1, 1, 80180771, 0x807a7783827612c9, 0, 11, 10,
        0xedc2aa27d05b3b6c, 0x538f7244d5fa0191}},
      {33, 1,
       {true, 2, true, 1, 67, 2, 2, 2, 1, 80278709, 0x45aeda56d82a7a7a, 0, 22, 22,
        0xd254635ccc20d7f1, 0x06e60bd7e2f994e2}},
      {33, 2,
       {true, 2, true, 1, 67, 2, 3, 2, 1, 80432938, 0xd596f92d39593e8e, 0, 31, 30,
        0x7a2032b7459a0165, 0xf5131cb34a477c88}},
      {33, 3,
       {true, 1, true, 2, 69, 2, 2, 2, 1, 80320656, 0x89920797cef60dfc, 0, 31, 30,
        0xc96bff8014beddc0, 0xc03441c5c0c9c68d}},
      {33, 4,
       {true, 1, true, 2, 37, 2, 4, 1, 1, 80574717, 0x41db255abfc4c123, 0, 41, 40,
        0xf264ad0554ac2236, 0x259f3640fcbb4f63}},
      {44, 0,
       {true, 2, true, 1, 31, 2, 1, 1, 1, 80176150, 0x1ca0613626680ed0, 0, 11, 11,
        0xedc2aa27d05b3b6c, 0xf02c009eb46b45d1}},
      {44, 1,
       {true, 2, true, 1, 31, 2, 5, 1, 1, 80866019, 0xaaa07f36cfa9a3c3, 0, 23, 20,
        0xb4e805beb6a09525, 0x65e09fde7f4d9213}},
      {44, 2,
       {true, 2, true, 1, 67, 2, 7, 2, 1, 81044100, 0xa278add35474c8e1, 0, 32, 27,
        0xef29ac1f7fce45e3, 0xc79fa86438e1a45a}},
      {44, 3,
       {true, 1, true, 2, 69, 2, 8, 2, 1, 81439050, 0x5f01f4ed2a2592dc, 0, 39, 32,
        0x1e36af7bcc6ba027, 0x03b8bf0aa8ed8ae7}},
      {44, 4,
       {true, 1, true, 2, 68, 2, 10, 2, 1, 81739291, 0x1a0ac6e451a4dcf1, 0, 45, 36,
        0x9bd67cfc1ee5fd9d, 0x49a299ee43706f7f}},
      {55, 0,
       {true, 2, true, 1, 31, 2, 1, 1, 1, 80145554, 0xdcecd493fd6f7cac, 0, 11, 10,
        0xedc2aa27d05b3b6c, 0xcc081c58286b8419}},
      {55, 1,
       {true, 2, true, 1, 67, 2, 1, 2, 1, 80145796, 0x6f690b89b0b439c6, 0, 17, 15,
        0x354f2f6e6f195c83, 0x08cad630fd5ff612}},
      {55, 2,
       {true, 2, true, 1, 67, 2, 4, 2, 1, 80712921, 0xb3ceeb6449d4e786, 0, 28, 26,
        0xab8d1f16a7fa0700, 0x95f7cf2e4e1f81d2}},
      {55, 3,
       {true, 1, true, 2, 68, 2, 4, 2, 1, 80712601, 0x5e10710c408269f7, 0, 33, 32,
        0xf7c999e4a21d3ba0, 0x89317da2014a1b92}},
      {55, 4,
       {true, 1, true, 2, 37, 2, 3, 1, 1, 80475734, 0x65c2bf0705c74f1e, 0, 31, 30,
        0x1328d32220709c6b, 0x8200f6e949295f57}},
  };
  for (const CrashPin& pin : crash) {
    CrashRecoveryFingerprint got = runCrashRecoverPoint(pin.seed, points[pin.point]);
    got.portHash = 0;
    EXPECT_EQ(got, pin.want) << "crash seed " << pin.seed << " at "
                             << controller::crashPointName(points[pin.point]);
  }
}

/// One fully instrumented live update: registry fed by the data-plane and
/// switch collectors plus the transaction's own push-side counters, tracer
/// recording the transaction's span tree. Returns the exported bytes — the
/// observability layer itself must be a pure function of the seed.
std::string runObservedPoint(std::uint64_t seed) {
  const topo::Topology from = topo::makeLine(6);
  const topo::Topology to = topo::makeRing(6);
  const routing::ShortestPathRouting rFrom(from);
  const routing::ShortestPathRouting rTo(to);
  auto plantR = projection::planPlant({&from, &to}, {.numSwitches = 2});
  EXPECT_TRUE(plantR.ok());
  const projection::Plant plant = std::move(plantR).value();
  controller::SdtController ctl(plant);
  auto depR = ctl.deploy(from, rFrom);
  EXPECT_TRUE(depR.ok());
  controller::Deployment dep = std::move(depR).value();

  sim::Simulator sim;
  sim::BuiltNetwork built = sim::buildProjectedNetwork(
      sim, from, dep.projection, plant, dep.switches, {}, {2.0, 1.0}, nullptr);
  sim::TransportManager tm(sim, *built.net, {});

  sim::ControlChannelConfig cfg;
  cfg.dropProb = 0.25;
  cfg.dupProb = 0.15;
  sim::ControlChannel channel(sim, seed, cfg);

  obs::Registry registry;
  obs::Tracer tracer;
  obs::registerNetworkCollector(registry, *built.net);
  obs::registerControlChannelCollector(registry, channel);
  obs::registerSwitchCollector(registry, built.ofSwitches);

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;
  auto planR = ctl.planUpdate(dep, to, rTo, dopt);
  EXPECT_TRUE(planR.ok());
  controller::ReconfigOptions topt;
  topt.metrics = &registry;
  topt.tracer = &tracer;
  controller::ReconfigTransaction tx(sim, channel, dep, std::move(planR).value(),
                                     topt);
  const int hosts = from.numHosts();
  for (int h = 0; h < hosts; ++h) {
    tm.startTcpFlow(h, (h + hosts / 2) % hosts, 64 * 1024, nullptr);
  }
  sim.schedule(usToNs(100.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(80.0));
  EXPECT_TRUE(tx.finished());

  return obs::metricsToJson(registry).dump(2) + "\n" +
         obs::tracerToJson(tracer).dump(2);
}

TEST(Determinism, ExportedTelemetryBitIdenticalSerialVsThreaded) {
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44};

  std::vector<std::string> serial;
  serial.reserve(seeds.size());
  for (const std::uint64_t s : seeds) serial.push_back(runObservedPoint(s));

  const SweepRunner sweep(4);
  const std::vector<std::string> threaded = sweep.run(
      seeds.size(), [&](std::size_t i) { return runObservedPoint(seeds[i]); });

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(threaded[i], serial[i])
        << "telemetry for seed " << seeds[i] << " diverged under threads";
    // The export must actually carry telemetry, not vacuous empty objects.
    EXPECT_NE(serial[i].find("sdt_net_tx_bytes_total"), std::string::npos);
    EXPECT_NE(serial[i].find("sdt_ctrl_msgs_total"), std::string::npos);
    EXPECT_NE(serial[i].find("sdt_of_flow_mods_total"), std::string::npos);
    EXPECT_NE(serial[i].find("\"reconfigure\""), std::string::npos);
  }
  // Different channel seeds must leave different telemetry somewhere.
  EXPECT_NE(serial[0], serial[1]);
}

/// Two tenants on two shared switches, each running a line(4) (the Tenancy
/// fixture of test_tenant.cpp); alice can move to a ring(4).
struct TenantWorld {
  static projection::Plant plant() {
    projection::PlantConfig cfg;
    cfg.numSwitches = 2;
    cfg.spec = projection::openflow64x100G();
    cfg.spec.flowTableCapacity = 8192;
    cfg.hostPortsPerSwitch = 6;
    cfg.interLinksPerPair = 8;
    auto p = projection::buildPlant(cfg);
    EXPECT_TRUE(p.ok());
    return std::move(p).value();
  }
  tenant::TenantSpec spec(const char* name, const topo::Topology& t,
                          const routing::RoutingAlgorithm& r) const {
    tenant::TenantSpec s;
    s.name = name;
    s.topology = &t;
    s.routing = &r;
    s.spareSelfLinksPerSwitch = 1;
    s.deploy.requireDeadlockFree = false;  // ring target: cyclic CDG
    return s;
  }
  TenantWorld() {
    EXPECT_TRUE(mgr.admit(spec("alice", lineA, rLineA)).ok());
    EXPECT_TRUE(mgr.admit(spec("bob", lineB, rLineB)).ok());
  }

  const topo::Topology lineA = topo::makeLine(4);
  const topo::Topology lineB = topo::makeLine(4);
  const topo::Topology ringA = topo::makeRing(4);
  const routing::ShortestPathRouting rLineA{lineA};
  const routing::ShortestPathRouting rLineB{lineB};
  const routing::ShortestPathRouting rRingA{ringA};
  tenant::TenantManager mgr{plant()};
};

/// FNV-1a over one tenant's rules (every switch, table order) and the
/// ingress stamps of its host ports.
std::uint64_t hashTenant(const tenant::TenantManager& mgr, std::uint16_t id) {
  hash::Fnv64 h;
  for (const auto& sw : mgr.switches()) {
    for (const openflow::FlowEntry& e : sw->table().entries()) {
      if (openflow::cookieTenant(e.cookie) != id) continue;
      h.mix(static_cast<std::uint64_t>(e.priority)).mix(e.cookie).bytes(e.match.describe());
      for (const openflow::Action& a : e.actions) {
        h.mix(static_cast<std::uint64_t>(a.type)).mix(static_cast<std::uint64_t>(a.arg));
      }
    }
  }
  const tenant::TenantSlice& s = *mgr.slice(id);
  for (topo::HostId host = 0; host < s.topology->numHosts(); ++host) {
    const projection::PhysPort pp = s.deployment.projection.hostPortOf(host);
    h.mix(static_cast<std::uint64_t>(pp.sw)).mix(static_cast<std::uint64_t>(pp.port));
    h.mix(mgr.switches()[static_cast<std::size_t>(pp.sw)]->portIngressEpoch(pp.port));
  }
  return h.value();
}

/// Alice's scoped line(4) -> ring(4) transaction over a lossy channel, and
/// (when `crash`) the same transaction killed at kPostFlip and rolled
/// forward by a cold-started recovery.
struct TenantControlFingerprint {
  std::vector<int> switches;            ///< the transaction's switch set
  std::vector<std::vector<int>> ports;  ///< flip ports, parallel to switches
  std::uint64_t channelSent = 0;
  std::uint64_t channelDelivered = 0;
  std::uint64_t reportHash = 0;  ///< tx report JSON (recovery report if crash)
  std::uint64_t alice = 0;       ///< hashTenant after the run
  std::uint64_t bob = 0;

  bool operator==(const TenantControlFingerprint&) const = default;
};

TenantControlFingerprint runTenantControlPoint(std::uint64_t seed, bool crash) {
  TenantWorld w;
  controller::MemoryJournalStorage storage;
  controller::Journal journal(storage);
  EXPECT_TRUE(controller::journalDeploy(journal, w.mgr.slice(1)->deployment, 0).ok());

  sim::Simulator sim;
  sim::ControlChannelConfig cfg;
  cfg.dropProb = 0.2;
  cfg.dupProb = 0.15;
  cfg.reorderProb = 0.15;
  sim::ControlChannel channel(sim, seed, cfg);

  auto planR = w.mgr.planSliceUpdate(1, w.ringA, w.rRingA);
  EXPECT_TRUE(planR.ok());
  TenantControlFingerprint fp;
  if (!planR.ok()) return fp;
  const controller::Scope& scope = planR.value().scope;
  fp.switches = scope.switches();
  for (const int sw : fp.switches) fp.ports.push_back(scope.ports(sw));
  controller::ReconfigOptions topt;
  topt.journal = &journal;
  if (crash) topt.crashAt = controller::CrashPoint::kPostFlip;
  controller::ReconfigTransaction tx(sim, channel, w.mgr.mutableSlice(1)->deployment,
                                     std::move(planR).value(), topt);
  sim.schedule(usToNs(10.0), [&]() { tx.start(); });
  sim.runUntil(msToNs(40.0));
  EXPECT_TRUE(tx.finished());
  fp.reportHash = hashBytes(tx.report().toJson().dump());

  if (crash) {
    EXPECT_TRUE(tx.crashed());
    controller::IntentCatalog catalog;
    catalog[w.lineA.name()] = {&w.lineA, &w.rLineA};
    catalog[w.ringA.name()] = {&w.ringA, &w.rRingA};
    auto rplan = controller::planRecovery(*w.mgr.slice(1)->controller, journal, catalog,
                                          w.mgr.slice(1)->deployOptions);
    EXPECT_TRUE(rplan.ok());
    if (!rplan.ok()) return fp;
    controller::RecoveryOptions ropt;
    ropt.journal = &journal;
    ropt.retrySeed = seed;
    controller::RecoveryRun recovery(sim, channel, w.mgr.switches(),
                                     std::move(rplan).value(), ropt);
    recovery.start();
    sim.runUntil(sim.now() + msToNs(100.0));
    EXPECT_TRUE(recovery.finished());
    EXPECT_TRUE(recovery.report().converged);
    fp.reportHash = hashBytes(recovery.report().toJson().dump());
  }
  fp.channelSent = channel.stats().sent;
  fp.channelDelivered = channel.stats().delivered;
  fp.alice = hashTenant(w.mgr, 1);
  fp.bob = hashTenant(w.mgr, 2);
  return fp;
}

void PrintTo(const TenantControlFingerprint& f, std::ostream* os) {
  *os << "{switches={";
  for (const int sw : f.switches) *os << sw << ",";
  *os << "} ports={";
  for (const auto& ports : f.ports) {
    *os << "{";
    for (const int p : ports) *os << p << ",";
    *os << "},";
  }
  *os << "} sent=" << f.channelSent << " delivered=" << f.channelDelivered << std::hex
      << " reportHash=0x" << f.reportHash << " alice=0x" << f.alice << " bob=0x" << f.bob
      << std::dec << "}";
}

// The tenant control plane, pinned like ControlPlaneMatchesRecordedValues:
// a scoped slice transaction, and a crashed one rolled forward by recovery.
// No data plane runs, so nothing here depends on SDT_SHARDS.
TEST(Determinism, TenantControlPlaneMatchesRecordedValues) {
  struct TenantPin {
    std::uint64_t seed;
    bool crash;
    TenantControlFingerprint want;
  };
  const TenantPin pins[] = {
      {11, false,
       {{0}, {{10, 11, 12, 13}}, 10, 10, 0x3d655c4b791351a9, 0xb55e945f36cdcdb1,
        0x05e89085fbc36b11}},
      {22, false,
       {{0}, {{10, 11, 12, 13}}, 8, 8, 0x10e0a22bfead81d6, 0xb55e945f36cdcdb1,
        0x05e89085fbc36b11}},
      {33, false,
       {{0}, {{10, 11, 12, 13}}, 10, 9, 0xea6ccec58f9ec8ba, 0xb55e945f36cdcdb1,
        0x05e89085fbc36b11}},
      {11, true,
       {{0}, {{10, 11, 12, 13}}, 19, 18, 0x3c138fd4c3dd7cde, 0xbb381963f117c393,
        0x05e89085fbc36b11}},
      {22, true,
       {{0}, {{10, 11, 12, 13}}, 19, 19, 0x8fe9b902db6cbc36, 0xbb381963f117c393,
        0x05e89085fbc36b11}},
      {33, true,
       {{0}, {{10, 11, 12, 13}}, 19, 19, 0xdc0a821faa47bb2c, 0xbb381963f117c393,
        0x05e89085fbc36b11}},
  };
  for (const TenantPin& pin : pins) {
    EXPECT_EQ(runTenantControlPoint(pin.seed, pin.crash), pin.want)
        << "tenant seed " << pin.seed << (pin.crash ? " crashed" : "");
  }
}

TEST(Determinism, SerialAndParallelRunnersAgree) {
  // threads=1 takes the inline path; threads=3 the pool path. Same results,
  // same order.
  const SweepRunner one(1);
  const SweepRunner three(3);
  const auto square = [](std::size_t i) { return i * i; };
  EXPECT_EQ(one.run(37, square), three.run(37, square));
}

}  // namespace
}  // namespace sdt::testbed
