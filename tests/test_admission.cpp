// Tests: the overload-robustness tier — admission::AdmissionController
// (credit buckets, priority classes, SLO-aware shedding), the datacenter
// serving workloads that drive it, the kOverload fault family, and the
// acceptance gate for this subsystem: an incast overload run must stay
// bit-identical between a serial and a K-worker parallel engine at fixed K.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "admission/admission.hpp"
#include "common/hash.hpp"
#include "controller/controller.hpp"
#include "routing/shortest_path.hpp"
#include "sim/faults.hpp"
#include "testbed/evaluator.hpp"
#include "topo/generators.hpp"
#include "workloads/datacenter.hpp"

namespace sdt {
namespace {

using admission::AdmissionController;
using admission::Decision;
using admission::Policy;
using admission::Priority;
using workloads::ServingRuntime;

/// CI overload-soak knob: perturbs the serving-workload RNG so each soak
/// seed exercises a different arrival schedule. Unset => the default seed.
std::uint64_t workloadSeed() {
  const char* env = std::getenv("SDT_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0ULL;
}

TEST(AdmissionPolicy, DefaultValidatesAndOrdersClasses) {
  const Policy p;
  EXPECT_TRUE(p.validate().ok());
  // The whole point of the class table: gold is worth more per credit, has
  // the tightest SLO, and sheds last.
  const auto& gold = p.classes[admission::priorityIndex(Priority::kGold)];
  const auto& silver = p.classes[admission::priorityIndex(Priority::kSilver)];
  const auto& bronze = p.classes[admission::priorityIndex(Priority::kBronze)];
  EXPECT_GT(gold.utilityWeight, silver.utilityWeight);
  EXPECT_GT(silver.utilityWeight, bronze.utilityWeight);
  EXPECT_LT(gold.sloNs, silver.sloNs);
  EXPECT_LT(silver.sloNs, bronze.sloNs);
  EXPECT_GT(gold.shedAtPressure, silver.shedAtPressure);
  EXPECT_GT(silver.shedAtPressure, bronze.shedAtPressure);
}

TEST(AdmissionPolicy, ValidateRejectsEachBadKnob) {
  const auto expectBad = [](Policy p, const char* what) {
    EXPECT_FALSE(p.validate().ok()) << what;
  };
  Policy p;
  p.sampleInterval = 0;
  expectBad(p, "sampleInterval");
  p = {};
  p.queueHighWatermarkBytes = 0;
  expectBad(p, "watermark");
  p = {};
  p.pressureLowWater = 1.0;
  expectBad(p, "lowWater");
  p = {};
  p.creditRateFractionFloor = 0.0;
  expectBad(p, "floor");
  p = {};
  p.pressureSmoothing = 0.0;
  expectBad(p, "smoothing");
  p = {};
  p.pressureSmoothing = 1.5;
  expectBad(p, "smoothing high");
  p = {};
  p.creditBurstBytes = -1;
  expectBad(p, "burst");
  p = {};
  p.deferDelay = 0;
  expectBad(p, "deferDelay");
  p = {};
  p.maxDefers = -1;
  expectBad(p, "maxDefers");
  p = {};
  p.classes[1].utilityWeight = 0.0;
  expectBad(p, "weight");
  p = {};
  p.classes[2].sloNs = 0;
  expectBad(p, "slo");
  p = {};
  p.classes[0].shedAtPressure = 0.0;
  expectBad(p, "shedAt");
}

TEST(AdmissionController, DistributeThroughSdtController) {
  const topo::Topology topo = topo::makeLine(3);
  const routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 2});
  ASSERT_TRUE(plant.ok());
  auto inst = testbed::makeFullTestbed(topo, routing);
  AdmissionController adm(*inst.sim, inst.net());

  const controller::SdtController ctl(plant.value());
  Policy next;
  next.creditBurstBytes = 32 * kKiB;
  EXPECT_TRUE(ctl.distributeAdmissionPolicy(adm, next).ok());
  EXPECT_EQ(adm.policy().creditBurstBytes, 32 * kKiB);

  Policy bad = next;
  bad.classes[0].utilityWeight = -1.0;
  EXPECT_FALSE(ctl.distributeAdmissionPolicy(adm, bad).ok());
  // The invalid policy never reached the live controller.
  EXPECT_EQ(adm.policy().creditBurstBytes, 32 * kKiB);
  EXPECT_GT(adm.policy().classes[0].utilityWeight, 0.0);
}

/// Run `fn` inside host `h`'s shard context (request() asserts this).
template <typename Fn>
void onHostShard(testbed::Instance& inst, int h, Fn fn) {
  inst.sim->scheduleOn(inst.net().hostShard(h), 0, std::move(fn));
  inst.sim->run();
}

TEST(AdmissionController, DisabledPolicyAdmitsEverything) {
  const topo::Topology topo = topo::makeLine(2);
  const routing::ShortestPathRouting routing(topo);
  auto inst = testbed::makeFullTestbed(topo, routing);
  Policy p;
  p.enabled = false;
  AdmissionController adm(*inst.sim, inst.net(), p);
  onHostShard(inst, 0, [&]() {
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(adm.request(0, Priority::kBronze, 1 * kMiB), Decision::kAdmit);
    }
  });
  const auto cc = adm.classCounters(Priority::kBronze);
  EXPECT_EQ(cc.requested, 64u);
  EXPECT_EQ(cc.admitted, 64u);
  EXPECT_EQ(cc.deferred, 0u);
  EXPECT_EQ(cc.shed, 0u);
  EXPECT_EQ(cc.admittedBytes, 64 * kMiB);
}

TEST(AdmissionController, CreditBucketDrainsAndWeightsBuyBytes) {
  const topo::Topology topo = topo::makeLine(3);
  const routing::ShortestPathRouting routing(topo);
  auto inst = testbed::makeFullTestbed(topo, routing);
  AdmissionController adm(*inst.sim, inst.net());  // burst = 64 KiB of credits

  // Silver (weight 2): a 64 KiB flow charges 32 Ki credits -> exactly two
  // admits at t=0, then the bucket is dry and the third defers.
  onHostShard(inst, 0, [&]() {
    EXPECT_EQ(adm.request(0, Priority::kSilver, 64 * kKiB), Decision::kAdmit);
    EXPECT_EQ(adm.request(0, Priority::kSilver, 64 * kKiB), Decision::kAdmit);
    EXPECT_EQ(adm.request(0, Priority::kSilver, 64 * kKiB), Decision::kDefer);
  });
  // Gold (weight 4) buys twice the bytes per credit: four 64 KiB admits from
  // a different host's fresh bucket.
  onHostShard(inst, 1, [&]() {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(adm.request(1, Priority::kGold, 64 * kKiB), Decision::kAdmit) << i;
    }
    EXPECT_EQ(adm.request(1, Priority::kGold, 64 * kKiB), Decision::kDefer);
  });
  EXPECT_EQ(adm.classCounters(Priority::kSilver).admitted, 2u);
  EXPECT_EQ(adm.classCounters(Priority::kSilver).deferred, 1u);
  EXPECT_EQ(adm.classCounters(Priority::kGold).admitted, 4u);
}

TEST(AdmissionController, BucketRefillsOverTime) {
  const topo::Topology topo = topo::makeLine(2);
  const routing::ShortestPathRouting routing(topo);
  auto inst = testbed::makeFullTestbed(topo, routing);
  AdmissionController adm(*inst.sim, inst.net());

  // Drain the bucket at t=0, then come back 100us later: at 100 Gbps line
  // rate the refill (~1.25 MB >> burst cap) restores a full bucket.
  const int shard = inst.net().hostShard(0);
  inst.sim->scheduleOn(shard, 0, [&]() {
    EXPECT_EQ(adm.request(0, Priority::kBronze, 64 * kKiB), Decision::kAdmit);
    EXPECT_EQ(adm.request(0, Priority::kBronze, 64 * kKiB), Decision::kDefer);
  });
  inst.sim->scheduleOn(shard, usToNs(100.0), [&]() {
    EXPECT_EQ(adm.request(0, Priority::kBronze, 64 * kKiB), Decision::kAdmit);
  });
  inst.sim->run();
  EXPECT_EQ(adm.classCounters(Priority::kBronze).admitted, 2u);
}

// ---- Integration: incast overload through the serving runtime -------------

struct OverloadOutcome {
  ServingRuntime::ClassStats totals;
  std::uint64_t drops = 0;
  double peakPressure = 0.0;
  std::uint64_t sheds = 0;       ///< admission-layer shed decisions, all classes
  std::uint64_t samples = 0;
  std::uint64_t statsDigest = 0;
  std::uint64_t events = 0;
};

/// Fat-tree k=4 run lossy (PFC off): 15 hosts incast one aggregator plus a
/// bronze background mix, `scale`x the nominal arrival rate, admission on or
/// off. The knob-free core of both the tests and bench_overload.
OverloadOutcome runIncast(bool admissionOn, double scale) {
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  testbed::InstanceOptions opt;
  opt.network.pfcEnabled = false;  // lossy: overload drops instead of pausing
  auto inst = testbed::makeFullTestbed(topo, routing, opt);

  Policy policy;
  policy.enabled = admissionOn;
  AdmissionController adm(*inst.sim, inst.net(), policy);

  workloads::ServingConfig cfg;
  cfg.duration = msToNs(4.0);
  cfg.seed += 0x9E3779B97F4A7C15ULL * workloadSeed();
  ServingRuntime rt(*inst.sim, inst.net(), *inst.transport, cfg);
  rt.setAdmission(&adm);

  // One round (15 x 8 KiB = 120 KiB) drains the aggregator's 10G edge port
  // in ~98us, so a 100us round interval pins saturation at scale 1.0 and
  // `scale` reads directly as multiples of capacity.
  workloads::IncastSpec incast;
  incast.aggregator = 0;
  for (int h = 1; h < topo.numHosts(); ++h) incast.senders.push_back(h);
  incast.bytesPerFlow = 8 * kKiB;
  incast.meanRoundInterval = usToNs(100.0);
  rt.addIncast(incast);

  workloads::BurstyMixSpec mix;
  for (int h = 0; h < topo.numHosts(); ++h) mix.hosts.push_back(h);
  rt.addBurstyMix(mix);

  rt.setRateScale(scale);
  adm.start(cfg.start + cfg.duration);
  rt.start();
  inst.sim->run();

  OverloadOutcome out;
  out.totals = rt.totalStats();
  out.peakPressure = adm.peakPressure();
  out.samples = adm.samplesTaken();
  out.statsDigest = rt.statsDigest();
  out.events = inst.sim->eventsProcessed();
  for (const Priority cls :
       {Priority::kGold, Priority::kSilver, Priority::kBronze}) {
    out.sheds += adm.classCounters(cls).shed;
  }
  for (int sw = 0; sw < inst.net().numSwitches(); ++sw) {
    for (int p = 0; p < inst.net().switchPortCount(sw); ++p) {
      out.drops += inst.net().switchPortCounters(sw, p).drops;
    }
  }
  return out;
}

TEST(Overload, AccountingBalancesAndSamplersRun) {
  const OverloadOutcome on = runIncast(true, 2.0);
  EXPECT_GT(on.totals.offered, 0u);
  // Every offered unit ends exactly one way.
  EXPECT_EQ(on.totals.offered, on.totals.admitted + on.totals.shed);
  EXPECT_GT(on.samples, 0u);           // samplers ticked on every shard
  EXPECT_GT(on.peakPressure, 0.0);     // an overloaded fabric showed pressure
  EXPECT_GT(on.totals.completed, 0u);
}

TEST(Overload, AdmissionShedsLowClassesUnderPressure) {
  const OverloadOutcome on = runIncast(true, 3.0);
  // 3x a saturating incast must push pressure past bronze's 0.6 threshold
  // and produce real shed decisions.
  EXPECT_GT(on.peakPressure, 0.6);
  EXPECT_GT(on.sheds, 0u);
  EXPECT_GT(on.totals.shed, 0u);
}

TEST(Overload, AdmissionProtectsTheFabric) {
  const OverloadOutcome off = runIncast(false, 3.0);
  const OverloadOutcome on = runIncast(true, 3.0);
  // Open loop with no brake piles bytes into lossy queues; the brake turns
  // fabric drops into edge decisions.
  EXPECT_GT(off.drops, 0u) << "baseline not overloaded; tests prove nothing";
  EXPECT_LT(on.drops, off.drops);
  // Goodput (completed units) must not collapse relative to the unbraked
  // run — the admitted subset actually finishes.
  EXPECT_GE(on.totals.completed * 2, off.totals.completed)
      << "admission destroyed goodput instead of protecting it";
  // And the braked run completes what it admits far more reliably.
  const double onRate = static_cast<double>(on.totals.completed) /
                        static_cast<double>(on.totals.admitted);
  const double offRate = static_cast<double>(off.totals.completed) /
                         static_cast<double>(off.totals.admitted);
  EXPECT_GT(onRate, offRate);
}

// ---- kOverload faults ------------------------------------------------------

TEST(OverloadFaults, StormScalesRatesThroughSink) {
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  testbed::InstanceOptions opt;
  opt.network.pfcEnabled = false;

  const auto offeredWith = [&](bool storm) {
    auto inst = testbed::makeFullTestbed(topo, routing, opt);
    workloads::ServingConfig cfg;
    cfg.duration = msToNs(4.0);
    ServingRuntime rt(*inst.sim, inst.net(), *inst.transport, cfg);
    workloads::IncastSpec incast;
    incast.aggregator = 0;
    for (int h = 1; h < topo.numHosts(); ++h) incast.senders.push_back(h);
    rt.addIncast(incast);
    sim::FaultInjector inj(*inst.sim, inst.net());
    rt.attachOverload(inj);
    if (storm) inj.flashCrowd(msToNs(1.0), msToNs(2.0), 8.0);
    inj.arm();
    // Overload faults are workload-side: they must NOT pin the engine serial.
    EXPECT_FALSE(inst.sim->serialRequired());
    rt.start();
    inst.sim->run();
    if (storm) {
      EXPECT_EQ(inj.trace().size(), 2u);
      if (inj.trace().size() == 2u) {
        EXPECT_EQ(inj.trace()[0].kind, sim::FaultKind::kOverloadStorm);
        EXPECT_DOUBLE_EQ(inj.trace()[0].intensity, 8.0);
        EXPECT_EQ(inj.trace()[1].kind, sim::FaultKind::kOverloadEnd);
      }
    }
    return rt.totalStats().offered;
  };

  const std::uint64_t calm = offeredWith(false);
  const std::uint64_t stormy = offeredWith(true);
  EXPECT_GT(stormy, calm + calm / 2) << "8x flash crowd barely moved load";
}

TEST(OverloadFaults, RogueTenantScalesOnlyItsOwner) {
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto inst = testbed::makeFullTestbed(topo, routing);
  workloads::ServingConfig cfg;
  cfg.duration = msToNs(3.0);
  ServingRuntime rt(*inst.sim, inst.net(), *inst.transport, cfg);
  // Two replication chains with different clients; host 2 goes rogue.
  workloads::ReplicationSpec a;
  a.client = 2;
  a.primary = 5;
  a.replicas = {9, 13};
  rt.addReplication(a);
  workloads::ReplicationSpec b = a;
  b.client = 3;
  b.primary = 6;
  rt.addReplication(b);
  sim::FaultInjector inj(*inst.sim, inst.net());
  rt.attachOverload(inj);
  inj.rogueTenant(0, msToNs(3.0), /*srcHost=*/2, /*intensity=*/6.0);
  inj.arm();
  rt.start();
  inst.sim->run();
  const auto total = rt.totalStats();
  EXPECT_GT(total.offered, 0u);
  ASSERT_EQ(inj.trace().size(), 2u);
  EXPECT_EQ(inj.trace()[0].srcHost, 2);
}

TEST(OverloadFaults, PhysicalFaultsStillPinSerial) {
  const topo::Topology topo = topo::makeLine(3);
  const routing::ShortestPathRouting routing(topo);
  auto inst = testbed::makeFullTestbed(topo, routing);
  sim::FaultInjector inj(*inst.sim, inst.net());
  inj.trafficStorm(usToNs(1.0), 2.0);
  inj.arm();
  EXPECT_FALSE(inst.sim->serialRequired());
  inj.downPort(usToNs(2.0), 0, 0);
  inj.arm();
  EXPECT_TRUE(inst.sim->serialRequired());
  EXPECT_TRUE(sim::faultKindNeedsSerial(sim::FaultKind::kPortDown));
  EXPECT_FALSE(sim::faultKindNeedsSerial(sim::FaultKind::kOverloadStorm));
  EXPECT_FALSE(sim::faultKindNeedsSerial(sim::FaultKind::kOverloadEnd));
}

// ---- The acceptance gate: serial == parallel on the overload path ---------

/// Scoped SDT_SHARDS / SDT_SIM_WORKERS override (same idiom as
/// test_determinism.cpp): geometry is read at Simulator construction.
class ShardEnvGuard {
 public:
  ShardEnvGuard(int shards, int workers) {
    setenv("SDT_SHARDS", std::to_string(shards).c_str(), 1);
    setenv("SDT_SIM_WORKERS", std::to_string(workers).c_str(), 1);
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

/// Everything observable about one overload run, folded to one word.
std::uint64_t overloadFingerprint(const OverloadOutcome& out) {
  return hash::Fnv64()
      .mix(out.statsDigest)
      .mix(out.events)
      .mix(out.drops)
      .mix(out.sheds)
      .mix(out.samples)
      .mix(static_cast<std::uint64_t>(out.peakPressure * 1e9))
      .mix(out.totals.offered)
      .mix(out.totals.completed)
      .mix(out.totals.sloHit)
      .mix(out.totals.sloMiss)
      .mix(out.totals.latencySumNs)
      .value();
}

TEST(OverloadDeterminism, IncastBitIdenticalSerialVsParallelAtSameK) {
  // The whole admission signal path (sampler -> broker -> broadcast) plus
  // the serving workloads' cross-shard completion chains must be exactly as
  // deterministic as the data plane: at fixed K, 1 worker == K workers.
  for (const int k : {2, 4}) {
    std::uint64_t serial = 0;
    std::uint64_t parallel = 0;
    {
      const ShardEnvGuard env(k, 1);
      serial = overloadFingerprint(runIncast(true, 3.0));
    }
    {
      const ShardEnvGuard env(k, k);
      parallel = overloadFingerprint(runIncast(true, 3.0));
    }
    EXPECT_EQ(parallel, serial) << "K=" << k << " overload run diverged";
  }
}

TEST(OverloadDeterminism, ShardedOverloadRunsAreRepeatable) {
  const auto once = []() {
    const ShardEnvGuard env(4, 4);
    return overloadFingerprint(runIncast(true, 2.0));
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
}  // namespace sdt
