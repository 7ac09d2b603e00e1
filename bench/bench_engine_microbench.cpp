// Engine microbenchmarks: event loop throughput, flow-table lookup,
// partitioning, projection, deploy, deadlock analysis, and end-to-end packet
// forwarding. These bound how large an experiment the substrate can carry
// (events/second is the simulator's currency).
//
// One harness times them all: each rate is the best of three timed trials,
// printed and recorded in BENCH_engine_microbench.json so the perf
// trajectory stays comparable across changes. The binary then runs the
// shard-scaling sweep into BENCH_engine_shards.json.
#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench_util.hpp"
#include "controller/controller.hpp"
#include "partition/partitioner.hpp"
#include "projection/link_projector.hpp"
#include "routing/deadlock.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/transport.hpp"
#include "topo/generators.hpp"
#include "workloads/apps.hpp"

namespace {

using namespace sdt;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Start of the measured part of one trial; set-up before start() is free.
struct Timer {
  std::chrono::steady_clock::time_point begin = std::chrono::steady_clock::now();
  void start() { begin = std::chrono::steady_clock::now(); }
};

/// The harness: best of three trials, in items per second. `trial(timer)`
/// calls timer.start() where its measured part begins and returns the items
/// it processed; each trial counts results it computed (hits, successful
/// runs), so the optimizer cannot drop the work.
template <typename Trial>
double bestRate(const char* label, Trial trial) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    const double items = trial(timer);
    best = std::max(best, items / secondsSince(timer.begin));
  }
  std::printf("%-34s %14.0f /s\n", label, best);
  return best;
}

/// events/sec, steady state: 64 self-rescheduling event chains — the shape
/// of a running simulation (bounded pending set, every event schedules its
/// successor), where the arena's zero-allocation path is exercised.
double measureEventsPerSec() {
  return bestRate("events (steady state)", [](Timer& timer) {
    sim::Simulator sim;
    const long target = 200000;
    long done = 0;
    struct Hop {
      sim::Simulator* sim;
      long* done;
      long target;
      void operator()() const {
        if (++*done >= target) return;
        sim->schedule(10, Hop{sim, done, target});
      }
    };
    for (int c = 0; c < 64; ++c) sim.schedule(c, Hop{&sim, &done, target});
    timer.start();
    sim.run();
    return static_cast<double>(done);
  });
}

/// events/sec, bulk: schedule 200k closures up front, then drain — stresses
/// deep-heap push/pop rather than the steady-state arena path.
double measureBulkEventsPerSec() {
  return bestRate("events (bulk schedule + drain)", [](Timer& timer) {
    sim::Simulator sim;
    const int n = 200000;
    timer.start();
    for (int i = 0; i < n; ++i) sim.schedule(i % 1000, [] {});
    sim.run();
    return static_cast<double>(sim.eventsProcessed());
  });
}

/// packets/sec: end-to-end line-4 forwarding, counted at switch tx ports.
double measurePacketsPerSec() {
  const topo::Topology topo = topo::makeLine(4);
  routing::ShortestPathRouting routing(topo);
  return bestRate("packets (line-4 forwarding)", [&](Timer& timer) {
    sim::Simulator sim;
    auto built = sim::buildLogicalNetwork(sim, topo, routing, {});
    sim::TransportManager transport(sim, *built.net, {});
    timer.start();
    for (int m = 0; m < 20; ++m) {
      transport.sendMessage(0, 3, 256 * 1024, 0, {});
      transport.sendMessage(3, 0, 256 * 1024, 0, {});
      sim.run();
    }
    std::uint64_t txPackets = 0;
    for (int sw = 0; sw < built.net->numSwitches(); ++sw) {
      for (int p = 0; p < built.net->switchPortCount(sw); ++p) {
        txPackets += built.net->switchPortCounters(sw, p).txPackets;
      }
    }
    return static_cast<double>(txPackets);
  });
}

openflow::FlowTable makeProjectorShapedTable(int entries) {
  openflow::FlowTable table(4096);
  for (int i = 0; i < entries; ++i) {
    openflow::FlowEntry e;
    e.priority = 100;
    e.match.inPort = i % 48;
    e.match.dstAddr = static_cast<std::uint32_t>(i);
    e.outPort = i % 48;
    (void)table.add(std::move(e));
  }
  return table;
}

/// flow-lookups/sec against a LinkProjector-shaped table of `entries` rows.
double measureLookupsPerSec(int entries) {
  openflow::FlowTable table = makeProjectorShapedTable(entries);
  openflow::PacketHeader h;
  h.inPort = (entries - 1) % 48;
  h.dstAddr = static_cast<std::uint32_t>(entries - 1);
  const std::string label = "flow lookups (" + std::to_string(entries) + " entries)";
  return bestRate(label.c_str(), [&](Timer& timer) {
    const int n = 2000000;
    timer.start();
    int hits = 0;
    for (int i = 0; i < n; ++i) hits += table.lookupAndCount(h) != nullptr ? 1 : 0;
    return static_cast<double>(hits);
  });
}

/// Runs `op` (returns success) `n` times per trial: successful runs/sec.
template <typename Op>
double measureOpsPerSec(const char* label, int n, Op op) {
  return bestRate(label, [&](Timer& timer) {
    timer.start();
    int ok = 0;
    for (int i = 0; i < n; ++i) ok += op() ? 1 : 0;
    return static_cast<double>(ok);
  });
}

// -- Shard-scaling sweep for BENCH_engine_shards.json ------------------------

/// One sharded run of an IMB Alltoall on a full-testbed instance (the fig13
/// "simulator" side). Engine geometry is injected through SDT_SHARDS /
/// SDT_SIM_WORKERS, the same knobs users have, so the sweep measures exactly
/// what an env-configured run gets.
struct ShardPoint {
  double wallSeconds = 0.0;
  double eventsPerSec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t barrierWindows = 0;
  double avgWindowNs = 0.0;
  std::uint64_t crossShardEvents = 0;
  TimeNs act = 0;
};

ShardPoint runShardPoint(const topo::Topology& topo,
                         const routing::RoutingAlgorithm& routing, int nodes,
                         int shards, int workers) {
  setenv("SDT_SHARDS", std::to_string(shards).c_str(), 1);
  setenv("SDT_SIM_WORKERS", std::to_string(workers).c_str(), 1);
  ShardPoint best;
  for (int rep = 0; rep < 3; ++rep) {
    auto inst = testbed::makeFullTestbed(topo, routing, {});
    const workloads::Workload w = workloads::imbAlltoall(nodes, 32 * 1024, 2);
    const std::vector<int> rankMap = bench::selectHosts(topo.numHosts(), nodes);
    const testbed::RunResult run = testbed::runWorkload(inst, w, rankMap);
    if (rep == 0 || run.wallSeconds < best.wallSeconds) {
      best.wallSeconds = run.wallSeconds;
      best.events = run.events;
      best.eventsPerSec = static_cast<double>(run.events) / run.wallSeconds;
      best.barrierWindows = inst.sim->barrierWindows();
      best.avgWindowNs = inst.sim->avgWindowNs();
      best.crossShardEvents = inst.sim->crossShardEvents();
      best.act = run.act;
    }
  }
  unsetenv("SDT_SHARDS");
  unsetenv("SDT_SIM_WORKERS");
  return best;
}

void writeShardScalingReport() {
  std::printf("\n== shard scaling: IMB Alltoall on Dragonfly(4,9,2) ==\n");
  const topo::Topology topo = topo::makeDragonfly(4, 9, 2);
  auto algo = routing::makeRouting("dragonfly-minimal", topo);
  if (!algo.ok()) {
    std::fprintf(stderr, "WARN: routing failed, skipping shard sweep\n");
    return;
  }
  bench::JsonReport report("engine_shards");
  std::printf("%6s %7s %12s %14s %10s %12s %12s\n", "nodes", "shards",
              "events/s", "speedup vs 1", "windows", "avg win ns", "cross-ev");
  bench::printRule(80);
  for (const int nodes : {8, 32}) {
    double base = 0.0;
    for (const int k : {1, 2, 4, 8}) {
      const ShardPoint p = runShardPoint(topo, *algo.value(), nodes, k, k);
      if (k == 1) base = p.eventsPerSec;
      const double speedup = base > 0.0 ? p.eventsPerSec / base : 0.0;
      std::printf("%6d %7d %12.0f %14.2f %10llu %12.0f %12llu\n", nodes, k,
                  p.eventsPerSec, speedup,
                  static_cast<unsigned long long>(p.barrierWindows), p.avgWindowNs,
                  static_cast<unsigned long long>(p.crossShardEvents));
      report.row("points",
                 {{"nodes", nodes},
                  {"shards", k},
                  {"workers", k},
                  {"events", static_cast<std::int64_t>(p.events)},
                  {"wall_seconds", p.wallSeconds},
                  {"events_per_sec", p.eventsPerSec},
                  {"speedup_vs_1shard", speedup},
                  {"barrier_windows", static_cast<std::int64_t>(p.barrierWindows)},
                  {"avg_window_ns", p.avgWindowNs},
                  {"cross_shard_events", static_cast<std::int64_t>(p.crossShardEvents)},
                  {"act_ns", static_cast<std::int64_t>(p.act)}});
    }
  }
  report.write();
}

void writeHeadlineReport() {
  std::printf("== engine microbenchmarks (best of 3) ==\n");
  bench::JsonReport report("engine_microbench");
  report.set("events_per_sec", measureEventsPerSec());
  report.set("bulk_events_per_sec", measureBulkEventsPerSec());
  report.set("packets_per_sec", measurePacketsPerSec());
  for (const int entries : {64, 512, 2048}) {
    report.row("flow_lookups", {{"entries", entries},
                                {"lookups_per_sec", measureLookupsPerSec(entries)}});
  }

  const topo::Topology dragonfly = topo::makeDragonfly(4, 9, 2);
  const topo::Graph graph = dragonfly.switchGraph();
  for (const int parts : {2, 3}) {
    const std::string label = "dragonfly partitions (" + std::to_string(parts) + " parts)";
    const double rate = measureOpsPerSec(label.c_str(), 200, [&]() {
      return partition::partitionGraph(graph, {.parts = parts}).ok();
    });
    report.row("dragonfly_partitions", {{"parts", parts}, {"partitions_per_sec", rate}});
  }
  auto dfPlant = projection::planPlant(
      {&dragonfly}, {.numSwitches = 3, .spec = projection::openflow128x100G()});
  if (dfPlant.ok()) {
    report.set("link_projections_per_sec",
               measureOpsPerSec("dragonfly link projections", 50, [&]() {
                 return projection::LinkProjector::project(dragonfly, dfPlant.value()).ok();
               }));
  }
  const topo::Topology fatTree = topo::makeFatTree(4);
  const routing::ShortestPathRouting ftRouting(fatTree);
  auto ftPlant = projection::planPlant(
      {&fatTree}, {.numSwitches = 2, .spec = projection::openflow128x100G()});
  if (ftPlant.ok()) {
    const controller::SdtController ctl(ftPlant.value());
    report.set("deploys_per_sec", measureOpsPerSec("fat-tree k=4 deploys", 50, [&]() {
                 return ctl.deploy(fatTree, ftRouting, {.requireDeadlockFree = false}).ok();
               }));
  }
  const topo::Topology torus = topo::makeTorus3D(4, 4, 4);
  auto torusRouting = routing::makeRouting("torus-clue", torus);
  if (torusRouting.ok()) {
    report.set("deadlock_analyses_per_sec",
               measureOpsPerSec("torus 4x4x4 deadlock analyses", 20, [&]() {
                 return routing::analyzeDeadlock(torus, *torusRouting.value()).deadlockFree;
               }));
  }
  report.write();
}

}  // namespace

int main() {
  writeHeadlineReport();
  writeShardScalingReport();
  return 0;
}
