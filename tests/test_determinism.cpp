// Determinism regression tests: the engine must be bit-reproducible.
//
// The event arena + pooled packet queues reordered nothing by construction
// (the heap still pops by (when, seq)); these tests pin that down end to
// end: the same seed/configuration run twice — and run through a
// multi-threaded SweepRunner — must produce identical flow-completion
// times, event counts, and per-port counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
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
#include "partition/streaming.hpp"
#include "projection/link_projector.hpp"
#include "routing/routing.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/consistency.hpp"
#include "sim/control_channel.hpp"
#include "sim/transport.hpp"
#include "tenant/tenant.hpp"
#include "testbed/evaluator.hpp"
#include "testbed/sweep.hpp"
#include "topo/generators.hpp"
#include "topo/stream.hpp"
#include "workloads/apps.hpp"
#include "workloads/datacenter.hpp"
#include "workloads/mpi.hpp"

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

/// Folds a rule's set-VC and output into `h` the way the recorded pins were
/// taken: as the (type, arg) pairs of the old action list, set-VC = 2 first,
/// then output = 0.
void mixActions(hash::Fnv64& h, const openflow::FlowEntry& e) {
  if (e.setVc >= 0) h.mix(2).mix(static_cast<std::uint64_t>(e.setVc));
  if (e.outPort >= 0) h.mix(0).mix(static_cast<std::uint64_t>(e.outPort));
}

/// FNV-1a over one tenant's rules (every switch, table order) and the
/// ingress stamps of its host ports.
std::uint64_t hashTenant(const tenant::TenantManager& mgr, std::uint16_t id) {
  hash::Fnv64 h;
  for (const auto& sw : mgr.switches()) {
    for (const openflow::FlowEntry& e : sw->table().entries()) {
      if (openflow::cookieTenant(e.cookie) != id) continue;
      h.mix(static_cast<std::uint64_t>(e.priority)).mix(e.cookie).bytes(e.match.describe());
      mixActions(h, e);
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

// ---- Recorded data-plane values --------------------------------------------
//
// Every fixed latency, transport, DCQCN, TCP, MPI-barrier, admission,
// plant-planning, projection and partitioning constant feeds one of these
// numbers. Each engine is an explicit sim::Simulator(1, 1), as perfbench
// builds them, so the literals hold whatever SDT_SHARDS the suite runs
// under.

using PinValues = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t sumPorts(const sim::Network& net, std::uint64_t sim::PortCounters::*field) {
  std::uint64_t total = 0;
  for (int sw = 0; sw < net.numSwitches(); ++sw) {
    for (int p = 0; p < net.switchPortCount(sw); ++p) {
      total += net.switchPortCounters(sw, p).*field;
    }
  }
  return total;
}

/// IMB Alltoall (8 ranks on hosts 0..7, so it runs barriers) on
/// Dragonfly(4,9,2): on its SDT projection over the fewest 128-port switches
/// it fits (`sdt`, which also pins the plant and the compiled tables), or on
/// the logical network.
void pinAlltoall(bool sdt, PinValues& out) {
  const std::string tag = sdt ? "sdt." : "logical.";
  const topo::Topology topo = topo::makeDragonfly(4, 9, 2);
  auto routing = routing::makeRouting("dragonfly-minimal", topo);
  ASSERT_TRUE(routing.ok());
  const InstanceOptions defaults;
  sim::Simulator engine(1, 1);
  std::optional<projection::Plant> plant;
  std::optional<controller::Deployment> dep;
  sim::BuiltNetwork built;
  if (sdt) {
    for (int n = 2; n <= 8 && !plant; ++n) {
      auto p = projection::planPlant(
          {&topo}, {.numSwitches = n, .spec = projection::openflow128x100G()});
      if (p) plant = std::move(p).value();
    }
    ASSERT_TRUE(plant.has_value());
    auto d = controller::SdtController(*plant).deploy(topo, *routing.value());
    ASSERT_TRUE(d.ok()) << d.error().message;
    dep = std::move(d).value();
    hash::Fnv64 tables;
    for (const auto& sw : dep->switches) {
      for (const openflow::FlowEntry& e : sw->table().entries()) {
        tables.mix(static_cast<std::uint64_t>(e.priority)).mix(e.cookie).bytes(
            e.match.describe());
        mixActions(tables, e);
      }
    }
    out.emplace_back("plant.switches", static_cast<std::uint64_t>(plant->numSwitches()));
    out.emplace_back("plant.self_links", static_cast<std::uint64_t>(plant->selfLinks.size()));
    out.emplace_back("plant.inter_links", static_cast<std::uint64_t>(plant->interLinks.size()));
    out.emplace_back("plant.host_ports", static_cast<std::uint64_t>(plant->hostPorts.size()));
    out.emplace_back("deploy.rules", static_cast<std::uint64_t>(dep->totalFlowEntries));
    out.emplace_back("deploy.tables_fnv", static_cast<std::uint64_t>(tables.value()));
    built = sim::buildProjectedNetwork(engine, topo, dep->projection, *plant, dep->switches,
                                       defaults.network, defaults.crossbar);
  } else {
    built = sim::buildLogicalNetwork(engine, topo, *routing.value(), defaults.network);
  }
  sim::TransportManager transport(engine, *built.net, defaults.transport);
  workloads::MpiRuntime mpi(engine, transport, {0, 1, 2, 3, 4, 5, 6, 7});
  mpi.run(workloads::imbAlltoall(8, 16 * kKiB, 2));
  engine.run();
  ASSERT_TRUE(mpi.finished());
  out.emplace_back(tag + "act", static_cast<std::uint64_t>(mpi.completionTime()));
  out.emplace_back(tag + "events", static_cast<std::uint64_t>(engine.eventsProcessed()));
  out.emplace_back(tag + "fabric_tx_bytes", sumPorts(*built.net, &sim::PortCounters::txBytes));
}

/// RoCE incast on a PFC + ECN star: 15 leaf hosts answer the hub's host.
void pinRoceIncast(PinValues& out) {
  const topo::Topology topo = topo::makeStar(4, {.hostsPerSwitch = 4});
  const routing::ShortestPathRouting routing(topo);
  const InstanceOptions defaults;
  sim::Simulator engine(1, 1);
  sim::BuiltNetwork built =
      sim::buildLogicalNetwork(engine, topo, routing, defaults.network);
  sim::TransportManager transport(engine, *built.net, defaults.transport);
  std::vector<int> hosts(static_cast<std::size_t>(topo.numHosts()));
  std::iota(hosts.begin(), hosts.end(), 0);
  workloads::MpiRuntime mpi(engine, transport, hosts);
  mpi.run(workloads::incast(topo.numHosts(), 128 * kKiB, 2));
  engine.run();
  ASSERT_TRUE(mpi.finished());
  out.emplace_back("roce.act", static_cast<std::uint64_t>(mpi.completionTime()));
  out.emplace_back("roce.cnps", static_cast<std::uint64_t>(transport.cnpsSent()));
  out.emplace_back("roce.ecn_marks", sumPorts(*built.net, &sim::PortCounters::ecnMarks));
  out.emplace_back("roce.pauses", sumPorts(*built.net, &sim::PortCounters::pausesSent));
}

/// Two TCP flows into one host across a lossy star.
void pinTcpIncast(PinValues& out) {
  const topo::Topology topo = topo::makeStar(3);
  const routing::ShortestPathRouting routing(topo);
  InstanceOptions options;
  options.network.pfcEnabled = false;
  sim::Simulator engine(1, 1);
  sim::BuiltNetwork built = sim::buildLogicalNetwork(engine, topo, routing, options.network);
  sim::TransportManager transport(engine, *built.net, options.transport);
  TimeNs done1 = -1;
  TimeNs done2 = -1;
  transport.startTcpFlow(1, 0, 2 * kMiB, [&](sim::Time at) { done1 = at; });
  transport.startTcpFlow(2, 0, 2 * kMiB, [&](sim::Time at) { done2 = at; });
  engine.run();
  out.emplace_back("tcp.done1", static_cast<std::uint64_t>(done1));
  out.emplace_back("tcp.done2", static_cast<std::uint64_t>(done2));
  out.emplace_back("tcp.drops", static_cast<std::uint64_t>(built.net->totalDrops()));
}

/// perfbench's serving mix at 2x saturation on a lossy fat-tree k=4, with
/// admission on.
void pinServing(PinValues& out) {
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  InstanceOptions options;
  options.network.pfcEnabled = false;
  sim::Simulator engine(1, 1);
  sim::BuiltNetwork built = sim::buildLogicalNetwork(engine, topo, routing, options.network);
  sim::TransportManager transport(engine, *built.net, options.transport);
  admission::Policy policy;
  policy.enabled = true;
  admission::AdmissionController adm(engine, *built.net, policy);
  workloads::ServingConfig cfg;
  cfg.duration = msToNs(5.0);
  cfg.seed = 7;
  workloads::ServingRuntime serving(engine, *built.net, transport, cfg);
  serving.setAdmission(&adm);
  workloads::PartitionAggregateSpec pa;
  pa.root = 0;
  pa.workers = {8, 9, 13, 14};
  serving.addPartitionAggregate(pa);
  for (const int aggregator : {4, 10}) {
    workloads::IncastSpec incast;
    incast.aggregator = aggregator;
    for (int h = 0; h < topo.numHosts(); ++h) {
      if (h != aggregator) incast.senders.push_back(h);
    }
    incast.bytesPerFlow = 8 * kKiB;
    incast.meanRoundInterval = usToNs(100.0);
    serving.addIncast(incast);
  }
  workloads::ReplicationSpec repl;
  repl.client = 1;
  repl.primary = 6;
  repl.replicas = {9, 13};
  serving.addReplication(repl);
  workloads::BurstyMixSpec mix;
  for (int h = 0; h < topo.numHosts(); ++h) mix.hosts.push_back(h);
  mix.meanFlowInterval = usToNs(200.0);
  serving.addBurstyMix(mix);
  serving.setRateScale(2.0);
  adm.start(cfg.start + cfg.duration);
  serving.start();
  engine.run();
  out.emplace_back("serving.digest", static_cast<std::uint64_t>(serving.statsDigest()));
  for (const auto cls : {admission::Priority::kGold, admission::Priority::kSilver,
                         admission::Priority::kBronze}) {
    const std::string name = std::string("serving.") + admission::priorityName(cls);
    const auto cc = adm.classCounters(cls);
    out.emplace_back(name + ".admitted", static_cast<std::uint64_t>(cc.admitted));
    out.emplace_back(name + ".deferred", static_cast<std::uint64_t>(cc.deferred));
    out.emplace_back(name + ".shed", static_cast<std::uint64_t>(cc.shed));
  }
}

/// The partition every streaming method streams from fat-tree k=8 into 5
/// parts: its cut, its assignment and its replication factor.
void pinStreamingCuts(PinValues& out) {
  const topo::FatTreeStream stream(8);
  for (const auto method : {partition::PartitionMethod::kLDG, partition::PartitionMethod::kFennel,
                            partition::PartitionMethod::kHDRF, partition::PartitionMethod::kDBH}) {
    auto r = partition::partitionStream(stream, {.method = method, .parts = 5});
    ASSERT_TRUE(r.ok());
    const std::string name = std::string("stream.") + partition::partitionMethodName(method);
    hash::Fnv64 assignment;
    for (const int part : r.value().partition.assignment) {
      assignment.mix(static_cast<std::uint64_t>(part));
    }
    out.emplace_back(name + ".cut", static_cast<std::uint64_t>(r.value().partition.cutWeight));
    out.emplace_back(name + ".assignment_fnv", assignment.value());
    out.emplace_back(name + ".replicas_ppm",
                     static_cast<std::uint64_t>(std::llround(r.value().replicationFactor * 1e6)));
  }
}

TEST(Determinism, DataPlaneMatchesRecordedValues) {
  const PinValues want = {
      {"plant.switches", 2},
      {"plant.self_links", 86},
      {"plant.inter_links", 22},
      {"plant.host_ports", 38},
      {"deploy.rules", 11700},
      {"deploy.tables_fnv", 0xa2b94fc82d119b67},
      {"sdt.act", 452470},
      {"sdt.events", 30900},
      {"sdt.fabric_tx_bytes", 5586048},
      {"logical.act", 452748},
      {"logical.events", 32400},
      {"logical.fabric_tx_bytes", 5606400},
      {"roce.act", 3607784},
      {"roce.cnps", 575},
      {"roce.ecn_marks", 5219},
      {"roce.pauses", 204},
      {"tcp.done1", 4105934},
      {"tcp.done2", 5240105},
      {"tcp.drops", 250},
      {"serving.digest", 0xfd9d34baa8dedcd3},
      {"serving.gold.admitted", 22},
      {"serving.gold.deferred", 7},
      {"serving.gold.shed", 3},
      {"serving.silver.admitted", 1185},
      {"serving.silver.deferred", 21},
      {"serving.silver.shed", 1747},
      {"serving.bronze.admitted", 8},
      {"serving.bronze.deferred", 0},
      {"serving.bronze.shed", 13},
      {"stream.ldg.cut", 104},
      {"stream.ldg.assignment_fnv", 0x065c0e948fb75f42},
      {"stream.ldg.replicas_ppm", 1000000},
      {"stream.fennel.cut", 106},
      {"stream.fennel.assignment_fnv", 0x63c522db759be8e7},
      {"stream.fennel.replicas_ppm", 1000000},
      {"stream.hdrf.cut", 108},
      {"stream.hdrf.assignment_fnv", 0xb5589f88253d1740},
      {"stream.hdrf.replicas_ppm", 1712500},
      {"stream.dbh.cut", 122},
      {"stream.dbh.assignment_fnv", 0x6a4f64a60126e6c6},
      {"stream.dbh.replicas_ppm", 2350000},
  };
  PinValues got;
  pinAlltoall(true, got);
  pinAlltoall(false, got);
  pinRoceIncast(got);
  pinTcpIncast(got);
  pinServing(got);
  pinStreamingCuts(got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second) << want[i].first;
  }
}

// ---- Recorded projections --------------------------------------------------
//
// LinkProjector::project on the plants the benches, perfbench and the
// projection tests use: whether it fits and, when it does, which part count
// and seed won (physical switches used, the link split and an FNV-1a over
// every placement).

void pinProjection(const std::string& name, const topo::Topology& topo,
                   const projection::Plant& plant, PinValues& out) {
  auto proj = projection::LinkProjector::project(topo, plant);
  out.emplace_back(name + ".ok", proj.ok() ? 1 : 0);
  if (!proj) return;
  const projection::Projection& p = proj.value();
  std::vector<char> used(static_cast<std::size_t>(plant.numSwitches()), 0);
  hash::Fnv64 placement;
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    used[static_cast<std::size_t>(p.physSwitchOf(sw))] = 1;
    placement.mix(static_cast<std::uint64_t>(p.physSwitchOf(sw)));
  }
  for (const projection::RealizedLink& rl : p.realizedLinks()) {
    placement.mix(static_cast<std::uint64_t>(rl.logicalLink))
        .mix(rl.interSwitch ? 1 : 0)
        .mix(rl.optical ? 1 : 0)
        .mix(static_cast<std::uint64_t>(rl.physLink));
  }
  const auto mixPort = [&](projection::PhysPort port) {
    placement.mix(static_cast<std::uint64_t>(port.sw)).mix(static_cast<std::uint64_t>(port.port));
  };
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) mixPort(p.hostPortOf(h));
  for (const projection::PhysLink& circuit : p.opticalCircuits()) {
    mixPort(circuit.a);
    mixPort(circuit.b);
  }
  out.emplace_back(name + ".phys_switches",
                   static_cast<std::uint64_t>(std::count(used.begin(), used.end(), 1)));
  out.emplace_back(name + ".inter_switch_links",
                   static_cast<std::uint64_t>(p.interSwitchLinkCount()));
  out.emplace_back(name + ".optical_circuits",
                   static_cast<std::uint64_t>(p.opticalCircuits().size()));
  out.emplace_back(name + ".placement_fnv", placement.value());
}

projection::Plant builtPlant(int switches, projection::PhysicalSwitchSpec spec, int hostPorts,
                             int interLinks) {
  auto plant = projection::buildPlant({.numSwitches = switches,
                                       .spec = std::move(spec),
                                       .hostPortsPerSwitch = hostPorts,
                                       .interLinksPerPair = interLinks});
  EXPECT_TRUE(plant.ok()) << plant.error().message;
  return std::move(plant).value();
}

projection::Plant plannedPlant(const topo::Topology& topo, int switches,
                               projection::PhysicalSwitchSpec spec) {
  auto plant =
      projection::planPlant({&topo}, {.numSwitches = switches, .spec = std::move(spec)});
  EXPECT_TRUE(plant.ok()) << plant.error().message;
  return std::move(plant).value();
}

TEST(Determinism, ProjectionMatchesRecordedValues) {
  const PinValues want = {
      {"df.reroute.ok", 1},
      {"df.reroute.phys_switches", 6},
      {"df.reroute.inter_switch_links", 42},
      {"df.reroute.optical_circuits", 0},
      {"df.reroute.placement_fnv", 0x9b894ff1d5b901e9},
      {"df.microbench.ok", 1},
      {"df.microbench.phys_switches", 3},
      {"df.microbench.inter_switch_links", 27},
      {"df.microbench.optical_circuits", 0},
      {"df.microbench.placement_fnv", 0x6f90eadd5c06183d},
      {"df.fig13.ok", 1},
      {"df.fig13.phys_switches", 2},
      {"df.fig13.inter_switch_links", 20},
      {"df.fig13.optical_circuits", 0},
      {"df.fig13.placement_fnv", 0x85ba77001cabd6fd},
      {"ft4.ok", 1},
      {"ft4.phys_switches", 3},
      {"ft4.inter_switch_links", 12},
      {"ft4.optical_circuits", 0},
      {"ft4.placement_fnv", 0xed0443f502e07961},
      {"ring20.flex.ok", 1},
      {"ring20.flex.phys_switches", 1},
      {"ring20.flex.inter_switch_links", 0},
      {"ring20.flex.optical_circuits", 4},
      {"ring20.flex.placement_fnv", 0x1d70d2ebe39df365},
      {"torus444.no_inter.ok", 0},
      {"mesh10.one_switch.ok", 0},
      {"mesh4.hosts.ok", 1},
      {"mesh4.hosts.phys_switches", 4},
      {"mesh4.hosts.inter_switch_links", 6},
      {"mesh4.hosts.optical_circuits", 0},
      {"mesh4.hosts.placement_fnv", 0x6ff6d2f6eaeeb1d2},
  };
  PinValues got;
  const topo::Topology dragonfly = topo::makeDragonfly(4, 9, 2);
  // perfbench's re-route plant (6 x 64 ports): part counts 1-5 hold too
  // few host ports for the 36 hosts.
  pinProjection("df.reroute", dragonfly,
                plannedPlant(dragonfly, 6, projection::openflow64x100G()), got);
  // The engine microbench's plant and Fig. 13's.
  pinProjection("df.microbench", dragonfly,
                plannedPlant(dragonfly, 3, projection::openflow128x100G()), got);
  pinProjection("df.fig13", dragonfly,
                plannedPlant(dragonfly, 2, projection::openflow128x100G()), got);
  const topo::Topology fatTree = topo::makeFatTree(4);
  pinProjection("ft4", fatTree, plannedPlant(fatTree, 3, projection::openflow64x100G()), got);
  // 20 ring links on 16 fixed self-links plus 10 flex ports.
  const topo::Topology ring = topo::makeRing(20, {.hostsPerSwitch = 0});
  projection::Plant flex = builtPlant(1, projection::openflow64x100G(), 22, 0);
  ASSERT_TRUE(projection::addOpticalFlex(flex, 5).ok());
  pinProjection("ring20.flex", ring, flex, got);
  // test_projection's failures: inter-switch and self-links short.
  pinProjection("torus444.no_inter", topo::makeTorus3D(4, 4, 4),
                builtPlant(2, projection::openflow128x100G(), 32, 0), got);
  pinProjection("mesh10.one_switch", topo::makeFullMesh(10),
                builtPlant(1, projection::openflow64x100G(), 2, 0), got);
  // Part counts 1 and 2 hold too few host ports for 12 hosts; 3 holds
  // exactly 12, but every 3-way split puts 6 hosts on one 4-port switch; 4
  // fits.
  pinProjection("mesh4.hosts", topo::makeFullMesh(4, {.hostsPerSwitch = 3}),
                builtPlant(4, projection::openflow64x100G(), 4, 6), got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second) << want[i].first;
  }
}

// ---- Recorded projected planes ---------------------------------------------
//
// The paths that wire and program a projected plant beyond one topology on
// fixed cables: the tenant manager's shared plane (two slices, then one
// after an eviction), a topology realized partly through optical circuits,
// a degraded repair's recompiled 2-VC tables, and check()'s demand reports.
// Engines are explicit sim::Simulator(1, 1), so the literals hold whatever
// SDT_SHARDS the suite runs under.

/// FNV-1a over every rule of every switch, in table order.
std::uint64_t hashTables(const std::vector<std::shared_ptr<openflow::Switch>>& switches) {
  hash::Fnv64 h;
  for (const auto& sw : switches) {
    for (const openflow::FlowEntry& e : sw->table().entries()) {
      h.mix(static_cast<std::uint64_t>(e.priority)).mix(e.cookie).bytes(e.match.describe());
      mixActions(h, e);
    }
  }
  return h.value();
}

/// One RoCE exchange per slice base (logical hosts 0 <-> 3 of a line(4), at
/// base + h) on the manager's shared plane with a nonzero crossbar model.
void pinTenantExchange(const std::string& tag, const tenant::TenantManager& mgr,
                       const std::vector<std::uint32_t>& bases, PinValues& out) {
  const InstanceOptions defaults;
  sim::Simulator engine(1, 1);
  sim::BuiltNetwork built = mgr.buildNetwork(engine, defaults.network, {2.0, 1.0});
  sim::TransportManager transport(engine, *built.net, defaults.transport);
  std::vector<TimeNs> done(bases.size(), -1);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const int base = static_cast<int>(bases[i]);
    for (const auto& [src, dst] : {std::pair{0, 3}, std::pair{3, 0}}) {
      transport.sendMessage(base + src, base + dst, 64 * kKiB, 0,
                            [&done, i](std::uint64_t, TimeNs at) {
                              done[i] = std::max(done[i], at);
                            });
    }
  }
  engine.run();
  for (std::size_t i = 0; i < bases.size(); ++i) {
    out.emplace_back(tag + ".done" + std::to_string(bases[i]),
                     static_cast<std::uint64_t>(done[i]));
  }
  out.emplace_back(tag + ".events", static_cast<std::uint64_t>(engine.eventsProcessed()));
  out.emplace_back(tag + ".hosts", static_cast<std::uint64_t>(built.net->numHosts()));
  out.emplace_back(tag + ".ports_fnv", hashPorts(*built.net));
}

void pinTenantPlane(PinValues& out) {
  TenantWorld w;
  pinTenantExchange("tenant", w.mgr, {w.mgr.slice(1)->hostBase, w.mgr.slice(2)->hostBase},
                    out);
  // Bob holds the higher host range; his hosts stay as orphans after he goes.
  ASSERT_GT(w.mgr.slice(2)->hostBase, w.mgr.slice(1)->hostBase);
  ASSERT_TRUE(w.mgr.evict(2).ok());
  pinTenantExchange("evicted", w.mgr, {w.mgr.slice(1)->hostBase}, out);
}

/// ring(20) on 16 fixed self-links plus 10 flex ports (the projection pin's
/// plant, with one host per switch), and one message across a circuit.
void pinOpticalPlane(PinValues& out) {
  const topo::Topology ring = topo::makeRing(20);
  const routing::ShortestPathRouting routing(ring);
  projection::Plant plant = builtPlant(1, projection::openflow64x100G(), 22, 0);
  ASSERT_TRUE(projection::addOpticalFlex(plant, 5).ok());
  auto dep = controller::SdtController(plant).deploy(ring, routing,
                                                     {.requireDeadlockFree = false});
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  const projection::Projection& proj = dep.value().projection;
  const auto& realized = proj.realizedLinks();
  const auto circuit = std::find_if(realized.begin(), realized.end(),
                                    [](const projection::RealizedLink& rl) {
                                      return rl.optical;
                                    });
  ASSERT_NE(circuit, realized.end());
  const topo::Link& link = ring.link(circuit->logicalLink);
  const topo::HostId src = ring.hostsOf(link.a.sw).front();
  const topo::HostId dst = ring.hostsOf(link.b.sw).front();

  const InstanceOptions defaults;
  sim::Simulator engine(1, 1);
  sim::BuiltNetwork built =
      sim::buildProjectedNetwork(engine, ring, proj, plant, dep.value().switches,
                                 defaults.network, defaults.crossbar);
  sim::TransportManager transport(engine, *built.net, defaults.transport);
  TimeNs done = -1;
  transport.sendMessage(src, dst, 64 * kKiB, 0, [&done](std::uint64_t, TimeNs at) { done = at; });
  engine.run();
  const projection::PhysPort end = proj.opticalCircuits()[circuit->physLink].a;
  ASSERT_GT(built.net->switchPortCounters(end.sw, end.port).txPackets +
                built.net->switchPortCounters(end.sw, end.port).rxPackets,
            0u)
      << "the message never crossed the circuit";
  out.emplace_back("optical.circuits", static_cast<std::uint64_t>(proj.opticalCircuits().size()));
  out.emplace_back("optical.done", static_cast<std::uint64_t>(done));
  out.emplace_back("optical.events", static_cast<std::uint64_t>(engine.eventsProcessed()));
  out.emplace_back("optical.ports_fnv", hashPorts(*built.net));
}

/// torus-clue (two dateline VCs per dimension) on torus2d-3x3 over one
/// switch with no spare cable; one realized cable is cut, so repair severs
/// it and re-routes with the routing's VC count.
void pinDegradedRepair(PinValues& out) {
  projection::Plant plant;
  plant.switches.push_back(projection::openflow64x100G());
  plant.switches[0].numPorts = 48;
  for (int k = 0; k < 18; ++k) plant.selfLinks.push_back({{0, 2 * k}, {0, 2 * k + 1}});
  for (int h = 0; h < 9; ++h) plant.hostPorts.push_back({0, 36 + h});
  ASSERT_TRUE(plant.validate().ok());
  const topo::Topology torus = topo::makeTorus2D(3, 3);
  auto routing = routing::makeRouting("torus-clue", torus);
  ASSERT_TRUE(routing.ok());
  const controller::SdtController ctl(plant);
  auto dep = ctl.deploy(torus, *routing.value());
  ASSERT_TRUE(dep.ok()) << dep.error().message;
  const projection::RealizedLink rl = dep.value().projection.realizedLinks().front();
  const projection::PhysLink cable = plant.selfLinks[static_cast<std::size_t>(rl.physLink)];
  controller::FailureSet failures;
  failures.ports = {cable.a, cable.b};
  auto rep = ctl.repair(dep.value(), torus, *routing.value(), failures);
  ASSERT_TRUE(rep.ok()) << rep.error().message;
  const controller::RepairReport& r = rep.value();
  out.emplace_back("repair.vcs", static_cast<std::uint64_t>(routing.value()->numVcs()));
  out.emplace_back("repair.severed", static_cast<std::uint64_t>(r.severedLinks.size()));
  out.emplace_back("repair.remapped", static_cast<std::uint64_t>(r.remappedLinks));
  out.emplace_back("repair.unreachable", static_cast<std::uint64_t>(r.unreachablePairs.size()));
  out.emplace_back("repair.removed", static_cast<std::uint64_t>(r.flowModsRemoved));
  out.emplace_back("repair.added", static_cast<std::uint64_t>(r.flowModsAdded));
  out.emplace_back("repair.deadlock_free", r.deadlockFree ? 1 : 0);
  out.emplace_back("repair.tables_fnv", hashTables(dep.value().switches));
}

void pinCheck(const std::string& name, const projection::Plant& plant,
              const std::vector<const topo::Topology*>& topologies, PinValues& out) {
  const controller::CheckReport r = controller::SdtController(plant).check(topologies);
  hash::Fnv64 problems;
  for (const std::string& p : r.problems) problems.bytes(p).mix(p.size());
  out.emplace_back(name + ".ok", r.ok ? 1 : 0);
  out.emplace_back(name + ".max_self", static_cast<std::uint64_t>(r.maxSelfLinksPerSwitch));
  out.emplace_back(name + ".max_inter", static_cast<std::uint64_t>(r.maxInterLinksPerPair));
  out.emplace_back(name + ".max_hosts", static_cast<std::uint64_t>(r.maxHostPortsPerSwitch));
  out.emplace_back(name + ".max_entries",
                   static_cast<std::uint64_t>(r.maxFlowEntriesPerSwitch));
  out.emplace_back(name + ".problems", static_cast<std::uint64_t>(r.problems.size()));
  out.emplace_back(name + ".problems_fnv", problems.value());
}

TEST(Determinism, SharedPlaneMatchesRecordedValues) {
  const PinValues want = {
      {"tenant.done0", 58362},
      {"tenant.done4", 58364},
      {"tenant.events", 5636},
      {"tenant.hosts", 8},
      {"tenant.ports_fnv", 0x6b680716f66cad25},
      {"evicted.done0", 58354},
      {"evicted.events", 2818},
      {"evicted.hosts", 8},
      {"evicted.ports_fnv", 0xb9641c5f8240bd25},
      {"optical.circuits", 4},
      {"optical.done", 57579},
      {"optical.events", 897},
      {"optical.ports_fnv", 0x33ccb6e4957b09a5},
      {"repair.vcs", 4},
      {"repair.severed", 1},
      {"repair.remapped", 0},
      {"repair.unreachable", 0},
      {"repair.removed", 650},
      {"repair.added", 650},
      {"repair.deadlock_free", 0},
      {"repair.tables_fnv", 0x057a9cb2d1a7a392},
      {"check.df.one_switch.ok", 0},
      {"check.df.one_switch.max_self", 0},
      {"check.df.one_switch.max_inter", 0},
      {"check.df.one_switch.max_hosts", 0},
      {"check.df.one_switch.max_entries", 0},
      {"check.df.one_switch.problems", 1},
      {"check.df.one_switch.problems_fnv", 0xa0344d465db6fd66},
      {"check.torus5.one_switch.ok", 0},
      {"check.torus5.one_switch.max_self", 0},
      {"check.torus5.one_switch.max_inter", 0},
      {"check.torus5.one_switch.max_hosts", 0},
      {"check.torus5.one_switch.max_entries", 0},
      {"check.torus5.one_switch.problems", 1},
      {"check.torus5.one_switch.problems_fnv", 0xd79ec96ba2d7328d},
      {"check.df_ring.inter_short.ok", 0},
      {"check.df_ring.inter_short.max_self", 6},
      {"check.df_ring.inter_short.max_inter", 0},
      {"check.df_ring.inter_short.max_hosts", 6},
      {"check.df_ring.inter_short.max_entries", 72},
      {"check.df_ring.inter_short.problems", 3},
      {"check.df_ring.inter_short.problems_fnv", 0xa90a31b21e292fe6},
  };
  PinValues got;
  pinTenantPlane(got);
  pinOpticalPlane(got);
  pinDegradedRepair(got);
  // The dragonfly and torus_5x5 example configs on one 128-port switch (too
  // few self-links for either), and dragonfly with ring(6) on three switches
  // cabled with 2 inter-switch links per pair.
  const topo::Topology dragonfly = topo::makeDragonfly(4, 9, 2);
  const topo::Topology torus = topo::makeTorus2D(5, 5);
  const topo::Topology ring = topo::makeRing(6);
  pinCheck("check.df.one_switch", builtPlant(1, projection::openflow128x100G(), 36, 0),
           {&dragonfly}, got);
  pinCheck("check.torus5.one_switch", builtPlant(1, projection::openflow128x100G(), 36, 0),
           {&torus}, got);
  pinCheck("check.df_ring.inter_short", builtPlant(3, projection::openflow128x100G(), 13, 2),
           {&dragonfly, &ring}, got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second) << want[i].first;
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
