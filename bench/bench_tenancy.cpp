// Tenancy robustness: victim SLO-goodput retention and cross-tenant blast
// radius under a rogue-tenant storm, with slice scoping on vs off.
//
// Two tenants share one 2-switch SDT plant. The victim runs a modest serving
// mix (gold partition-aggregate, silver incast, bronze background); the
// rogue runs incast groups whose arrival rate ServingRuntime::scaleRates
// multiplies by 48x mid-run. Two arms:
//   - scoped: TenantManager carves disjoint cable slices and each tenant's
//     AdmissionController watches only its own slice's queues
//     (restrictToPorts) — the storm can only fill cables and credits the
//     rogue owns.
//   - unscoped: both tenants deploy as ONE flat slice over shared cables
//     with ONE shared admission controller — the storm fills the common
//     fabric queues and the shared pressure signal throttles and sheds the
//     victim's traffic along with the rogue's.
// Each arm is normalized against its own calm run (rogue at nominal rate,
// no storm): retention = victim SLO-goodput under storm / calm. Emits
// BENCH_tenancy.json with both retentions and the blast-radius rows the
// README cites (acceptance: scoped >= 95%, unscoped <= 60%).
#include <algorithm>
#include <array>
#include <cstdio>

#include "admission/admission.hpp"
#include "bench_util.hpp"
#include "projection/plant.hpp"
#include "routing/shortest_path.hpp"
#include "sim/transport.hpp"
#include "tenant/tenant.hpp"
#include "topo/generators.hpp"
#include "workloads/datacenter.hpp"

using namespace sdt;

namespace {

constexpr TimeNs kDuration = msToNs(8.0);
constexpr TimeNs kStormStart = msToNs(0.3);
constexpr TimeNs kStormLen = msToNs(7.5);
constexpr double kStormIntensity = 48.0;

struct Score {
  double sloGoodputGbps = 0.0;
  double goodputGbps = 0.0;
  double completionRate = 0.0;
  double goldSloHitRate = 1.0;
  double silverSloHitRate = 1.0;
  double shedFraction = 0.0;
  double victimPeakPressure = 0.0;  ///< pressure at the victim's controller
  std::uint64_t fabricDrops = 0;
};

double sloHitRate(const workloads::ServingRuntime& rt, admission::Priority cls) {
  const auto s = rt.classStats(cls);
  const std::uint64_t scored = s.sloHit + s.sloMiss;
  return scored == 0 ? 1.0
                     : static_cast<double>(s.sloHit) / static_cast<double>(scored);
}

projection::Plant makePlant() {
  projection::PlantConfig cfg;
  cfg.numSwitches = 2;
  cfg.spec = projection::openflow64x100G();
  cfg.hostPortsPerSwitch = 6;
  cfg.interLinksPerPair = 8;
  auto plant = projection::buildPlant(cfg);
  if (!plant.ok()) {
    std::fprintf(stderr, "plant: %s\n", plant.error().message.c_str());
    std::abort();
  }
  return plant.value();
}

void addVictimMix(workloads::ServingRuntime& rt, const std::array<int, 4>& v) {
  // Gold: partition-aggregate queries rooted at the first victim host.
  workloads::PartitionAggregateSpec pa;
  pa.root = v[0];
  pa.workers = {v[1], v[2], v[3]};
  pa.meanQueryInterval = usToNs(300.0);
  rt.addPartitionAggregate(pa);
  // Silver: 3-to-1 incast answering the same front host — every response
  // crosses the fabric cables the rogue storms in the unscoped arm.
  workloads::IncastSpec incast;
  incast.aggregator = v[0];
  incast.senders = {v[1], v[2], v[3]};
  incast.bytesPerFlow = 8 * kKiB;
  incast.meanRoundInterval = usToNs(100.0);
  rt.addIncast(incast);
  // Bronze: light background between all victim hosts.
  workloads::BurstyMixSpec mix;
  mix.hosts = {v[0], v[1], v[2], v[3]};
  mix.meanFlowInterval = usToNs(200.0);
  rt.addBurstyMix(mix);
}

void addRogueMix(workloads::ServingRuntime& rt, const std::array<int, 4>& r) {
  // Two 3-to-1 incast groups pulling in opposite directions along the line;
  // generator ownership sits at the aggregators, which is where the
  // rogue-tenant rate multiplier attaches.
  for (const auto& [agg, s0, s1, s2] :
       {std::array{r[0], r[1], r[2], r[3]}, std::array{r[3], r[0], r[1], r[2]}}) {
    workloads::IncastSpec incast;
    incast.aggregator = agg;
    incast.senders = {s0, s1, s2};
    incast.bytesPerFlow = 32 * kKiB;
    incast.meanRoundInterval = usToNs(200.0);
    rt.addIncast(incast);
  }
}

/// One simulated run. `scoped` selects slice carving + per-tenant admission
/// vs one flat deployment + one shared controller; `storm` scales the
/// rogue's arrival rates. Returns the VICTIM's scores only.
Score runArm(bool scoped, bool storm) {
  sim::Simulator sim;
  tenant::TenantManager mgr(makePlant());

  const topo::Topology victimTopo = topo::makeLine(4);
  const topo::Topology rogueTopo = topo::makeLine(4);
  const topo::Topology sharedTopo = topo::makeLine(4, {.hostsPerSwitch = 2});
  const routing::ShortestPathRouting victimRouting(victimTopo);
  const routing::ShortestPathRouting rogueRouting(rogueTopo);
  const routing::ShortestPathRouting sharedRouting(sharedTopo);

  std::array<int, 4> v{};  // victim hosts, one per line position
  std::array<int, 4> r{};  // rogue hosts, one per line position
  if (scoped) {
    tenant::TenantSpec victim;
    victim.name = "victim";
    victim.topology = &victimTopo;
    victim.routing = &victimRouting;
    victim.deploy.requireDeadlockFree = false;
    if (!mgr.admit(victim).ok()) std::abort();
    tenant::TenantSpec rogue = victim;
    rogue.name = "rogue";
    rogue.topology = &rogueTopo;
    rogue.routing = &rogueRouting;
    if (!mgr.admit(rogue).ok()) std::abort();
    v = {0, 1, 2, 3};  // tenant 1, hostBase 0
    r = {4, 5, 6, 7};  // tenant 2, hostBase 4
  } else {
    // Scoping disabled: everyone in one flat slice. Hosts attach per switch
    // in pairs (sw0: 0,1; sw1: 2,3; ...) — give the victim the first host
    // of each switch so its geometry matches the scoped arm.
    tenant::TenantSpec flat;
    flat.name = "shared";
    flat.topology = &sharedTopo;
    flat.routing = &sharedRouting;
    flat.deploy.requireDeadlockFree = false;
    if (!mgr.admit(flat).ok()) std::abort();
    v = {0, 2, 4, 6};
    r = {1, 3, 5, 7};
  }

  sim::NetworkConfig ncfg;
  ncfg.pfcEnabled = false;  // lossy fabric: a storm drops, it does not pause
  auto built = mgr.buildNetwork(sim, ncfg, {2.0, 1.0});
  sim::TransportManager transport(sim, *built.net, {});

  admission::Policy policy;
  admission::AdmissionController victimAdm(sim, *built.net, policy);
  admission::AdmissionController rogueAdm(sim, *built.net, policy);
  if (scoped) {
    victimAdm.restrictToPorts(mgr.slice(1)->watchPorts);
    rogueAdm.restrictToPorts(mgr.slice(2)->watchPorts);
  }
  // Unscoped: victimAdm samples every queue and gates BOTH tenants — the
  // rogue's storm pressure drains the victim's credits too.
  admission::AdmissionController& sharedAdm = victimAdm;

  workloads::ServingConfig vcfg;
  vcfg.duration = kDuration;
  vcfg.seed = 0x5D7C0FFEEULL;
  workloads::ServingRuntime victimRt(sim, *built.net, transport, vcfg);
  victimRt.setAdmission(scoped ? &victimAdm : &sharedAdm);
  addVictimMix(victimRt, v);

  workloads::ServingConfig rcfg;
  rcfg.duration = kDuration;
  rcfg.seed = 0xB10CB10CULL;
  workloads::ServingRuntime rogueRt(sim, *built.net, transport, rcfg);
  rogueRt.setAdmission(scoped ? &rogueAdm : &sharedAdm);
  addRogueMix(rogueRt, r);

  if (storm) {
    rogueRt.scaleRates(kStormStart, kStormStart + kStormLen, r[0], kStormIntensity);
    rogueRt.scaleRates(kStormStart, kStormStart + kStormLen, r[3], kStormIntensity);
  }

  victimAdm.start(kDuration);
  if (scoped) rogueAdm.start(kDuration);
  victimRt.start();
  rogueRt.start();
  sim.run();

  const auto total = victimRt.totalStats();
  Score s;
  // Rate over the FIXED generation window, not the drain tail: the rogue's
  // storm backlog can take several windows to drain, and dividing the
  // victim's on-time bytes by that tail would charge the victim for sim
  // time it never used. Late victim work is already discounted by the SLO
  // scoring (it lands in completedBytes but not sloGoodBytes).
  const double seconds = static_cast<double>(kDuration) * 1e-9;
  s.goodputGbps =
      static_cast<double>(total.completedBytes) * 8.0 / seconds * 1e-9;
  s.sloGoodputGbps =
      static_cast<double>(total.sloGoodBytes) * 8.0 / seconds * 1e-9;
  s.completionRate = total.offered == 0
                         ? 0.0
                         : static_cast<double>(total.completed) /
                               static_cast<double>(total.offered);
  s.goldSloHitRate = sloHitRate(victimRt, admission::Priority::kGold);
  s.silverSloHitRate = sloHitRate(victimRt, admission::Priority::kSilver);
  s.shedFraction = total.offered == 0
                       ? 0.0
                       : static_cast<double>(total.shed) /
                             static_cast<double>(total.offered);
  s.victimPeakPressure = victimAdm.peakPressure();
  for (int sw = 0; sw < built.net->numSwitches(); ++sw) {
    for (int port = 0; port < built.net->switchPortCount(sw); ++port) {
      s.fabricDrops += built.net->switchPortCounters(sw, port).drops;
    }
  }
  return s;
}

void reportArm(bench::JsonReport& report, const char* arm, const char* phase,
               const Score& s) {
  std::printf("%-9s %-6s %13.3f %12.3f %9.1f%% %8.1f%% %10.1f%% %6.1f%% %8.3f %8llu\n",
              arm, phase, s.sloGoodputGbps, s.goodputGbps,
              s.completionRate * 100.0, s.goldSloHitRate * 100.0,
              s.silverSloHitRate * 100.0, s.shedFraction * 100.0,
              s.victimPeakPressure,
              static_cast<unsigned long long>(s.fabricDrops));
  report.row(arm, {{"phase", phase},
                   {"victim_slo_goodput_gbps", s.sloGoodputGbps},
                   {"victim_goodput_gbps", s.goodputGbps},
                   {"victim_completion_rate", s.completionRate},
                   {"victim_gold_slo_hit_rate", s.goldSloHitRate},
                   {"victim_silver_slo_hit_rate", s.silverSloHitRate},
                   {"victim_shed_fraction", s.shedFraction},
                   {"victim_peak_pressure", s.victimPeakPressure},
                   {"fabric_drops", static_cast<std::int64_t>(s.fabricDrops)}});
}

}  // namespace

int main() {
  bench::JsonReport report("tenancy");
  std::printf("# tenancy blast radius: 2-switch plant, victim serving mix vs 48x rogue storm\n");
  std::printf("%-9s %-6s %13s %12s %10s %9s %11s %7s %8s %8s\n", "arm",
              "phase", "slo-gput Gb/s", "goodput Gb/s", "complete%",
              "gold-slo", "silver-slo", "shed%", "pressure", "drops");

  const Score scopedCalm = runArm(/*scoped=*/true, /*storm=*/false);
  const Score scopedStorm = runArm(/*scoped=*/true, /*storm=*/true);
  const Score flatCalm = runArm(/*scoped=*/false, /*storm=*/false);
  const Score flatStorm = runArm(/*scoped=*/false, /*storm=*/true);
  reportArm(report, "scoped", "calm", scopedCalm);
  reportArm(report, "scoped", "storm", scopedStorm);
  reportArm(report, "unscoped", "calm", flatCalm);
  reportArm(report, "unscoped", "storm", flatStorm);

  const auto retention = [](const Score& storm, const Score& calm) {
    return calm.sloGoodputGbps > 0.0
               ? storm.sloGoodputGbps / calm.sloGoodputGbps
               : 0.0;
  };
  const double scopedRetention = retention(scopedStorm, scopedCalm);
  const double flatRetention = retention(flatStorm, flatCalm);
  std::printf("# victim SLO-goodput retention: scoped %.1f%%, unscoped %.1f%%\n",
              scopedRetention * 100.0, flatRetention * 100.0);
  std::printf("# cross-tenant blast radius (1 - retention): scoped %.1f%%, unscoped %.1f%%\n",
              (1.0 - scopedRetention) * 100.0, (1.0 - flatRetention) * 100.0);
  report.set("victim_slo_retention_scoped", scopedRetention);
  report.set("victim_slo_retention_unscoped", flatRetention);
  report.set("blast_radius_scoped", 1.0 - scopedRetention);
  report.set("blast_radius_unscoped", 1.0 - flatRetention);
  report.set("storm_intensity", kStormIntensity);
  report.write();
  return 0;
}
