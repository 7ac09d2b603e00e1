// The benchmark's four workloads. Each op builds its inputs from the seed
// the workload was made with, calls the library only through its public
// entry points, and checks its own outputs.
//
// Why these four (measurements behind each choice are in README.md):
//   alltoall-df-sdt  Fig. 13's Alltoall on the SDT data plane: deploy, then
//                    every hop an openflow::Switch lookup. Serial engine.
//   alltoall-df-k2   The same Alltoall on the logical Dragonfly, the
//                    "simulator" column of Fig. 13, on 2 shards x 2 workers:
//                    the parallel engine's workload. No openflow, no
//                    controller.
//   serving-ft4      Open-loop serving mix at 2x saturation on a lossy
//                    fat-tree with admission on: many short flows and drops
//                    instead of PAUSE. Serial engine, because at 2 workers
//                    its windows hold too few events to pay.
//   reroute-df-sdt   Live ECMP re-route of a deployed Dragonfly through a
//                    two-phase transaction over a lossy control channel: the
//                    controller's write path, with almost no simulation.
#include <algorithm>
#include <ctime>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "controller/transaction.hpp"
#include "projection/link_projector.hpp"
#include "projection/plant.hpp"
#include "routing/deadlock.hpp"
#include "routing/routing.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/control_channel.hpp"
#include "sim/transport.hpp"
#include "testbed/evaluator.hpp"
#include "topo/generators.hpp"
#include "workloads/apps.hpp"
#include "workloads/datacenter.hpp"
#include "workloads/mpi.hpp"

namespace perfbench {
namespace {

using namespace sdt;
using Layers = std::map<std::string, double>;

/// Independent stream `stream` of the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ULL);
  return detail::splitmix64(state);
}

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Simulator::run() with the wall and simulated time it took. Traced runs
/// also record the engine's counters.
void runEngine(sim::Simulator& engine, obs::Tracer* tracer, obs::SpanId parent,
               OpResult& r) {
  const std::uint64_t eventsBefore = engine.eventsProcessed();
  const double simBefore = static_cast<double>(engine.now());
  const double cpuBefore = tracer != nullptr ? cpuSeconds() : 0.0;
  Scope span(tracer, "engine.run", parent);
  engine.run();
  r.engineSeconds = span.stop();
  const double cpu = tracer != nullptr ? cpuSeconds() - cpuBefore : 0.0;
  r.simNs = static_cast<double>(engine.now()) - simBefore;
  const std::uint64_t events = engine.eventsProcessed() - eventsBefore;
  r.fingerprint.emplace_back("events", static_cast<std::int64_t>(events));
  r.fingerprint.emplace_back("sim_end_ns", static_cast<std::int64_t>(engine.now()));
  if (tracer == nullptr) return;

  Layers& l = r.layers;
  const double wall = r.engineSeconds;
  l["engine.events"] = static_cast<double>(events);
  l["engine.ns_per_event"] = events == 0 ? 0.0 : wall * 1e9 / static_cast<double>(events);
  l["engine.pending_peak"] = static_cast<double>(engine.arenaCapacity());
  l["engine.cpu_per_wall"] = wall > 0.0 ? cpu / wall : 0.0;
  const auto windows = static_cast<double>(engine.barrierWindows());
  l["engine.windows"] = windows;
  l["engine.events_per_window"] = windows > 0 ? static_cast<double>(events) / windows : 0.0;
  l["engine.cross_shard_events"] = static_cast<double>(engine.crossShardEvents());
  double most = 0.0;
  double total = 0.0;
  for (int s = 0; s < engine.numShards(); ++s) {
    const auto n = static_cast<double>(engine.shardEvents(s));
    most = std::max(most, n);
    total += n;
  }
  l["engine.shard_skew"] =
      total > 0.0 ? most * static_cast<double>(engine.numShards()) / total : 0.0;
}

/// Port counters summed over every switch port.
void readNetwork(const sim::Network& net, Layers& l) {
  double tx = 0.0;
  double pauses = 0.0;
  double marks = 0.0;
  for (int sw = 0; sw < net.numSwitches(); ++sw) {
    for (int p = 0; p < net.switchPortCount(sw); ++p) {
      const sim::PortCounters& c = net.switchPortCounters(sw, p);
      tx += static_cast<double>(c.txPackets);
      pauses += static_cast<double>(c.pausesSent);
      marks += static_cast<double>(c.ecnMarks);
    }
  }
  l["network.tx_packets"] = tx;
  l["network.pauses"] = pauses;
  l["network.ecn_marks"] = marks;
  l["network.drops"] = static_cast<double>(net.totalDrops());
  l["network.peak_queue_bytes"] = static_cast<double>(net.peakQueueBytes());
}

void readTransport(const sim::TransportManager& tm, int hosts, Layers& l) {
  double delivered = 0.0;
  for (int h = 0; h < hosts; ++h) delivered += static_cast<double>(tm.rdmaDeliveredBytes(h));
  l["transport.cnps"] = static_cast<double>(tm.cnpsSent());
  l["transport.delivered_bytes"] = delivered;
}

/// The header a packet matching `e` would carry.
openflow::PacketHeader headerFor(const openflow::FlowEntry& e) {
  openflow::PacketHeader h;
  h.inPort = e.match.inPort.value_or(0);
  h.dstAddr = e.match.dstAddr.value_or(0);
  h.trafficClass = e.match.trafficClass.value_or(0);
  h.epoch = openflow::cookieEpoch(e.cookie);
  return h;
}

/// Replays one FlowTable::lookup per installed rule; returns the mean ns per
/// lookup, or an error when some rule's own header misses.
std::optional<std::string> replayLookups(
    const std::vector<std::shared_ptr<openflow::Switch>>& switches, obs::Tracer* tracer,
    obs::SpanId parent, Layers& l) {
  std::vector<std::vector<openflow::PacketHeader>> headers;
  std::size_t n = 0;
  for (const auto& ofs : switches) {
    auto& hs = headers.emplace_back();
    for (const openflow::FlowEntry& e : ofs->table().entries()) hs.push_back(headerFor(e));
    n += hs.size();
  }
  std::size_t misses = 0;
  Scope span(tracer, "openflow.lookup", parent);
  for (std::size_t sw = 0; sw < switches.size(); ++sw) {
    const openflow::FlowTable& table = switches[sw]->table();
    table.buildIndex();
    for (const openflow::PacketHeader& h : headers[sw]) {
      if (table.lookup(h) == nullptr) ++misses;
    }
  }
  const double seconds = span.stop();
  l["openflow.lookup_ns"] = n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n);
  if (misses != 0) return std::to_string(misses) + " rules miss their own header";
  return std::nullopt;
}

/// Pinned to the paper's Fig. 13 experiment: IMB Alltoall, 32 ranks,
/// 32 KiB messages, 2 iterations, on Dragonfly(4,9,2).
constexpr int kRanks = 32;
constexpr std::int64_t kAlltoallBytes = 32 * kKiB;
constexpr int kAlltoallIterations = 2;

topo::Topology makeDragonfly() { return topo::makeDragonfly(4, 9, 2); }

/// Stops a set-up step's span; traced builds also keep its wall ms under the
/// per-layer metric name.
void note(Scope& step, const char* metric, obs::Tracer* tracer, Layers& ms) {
  const double seconds = step.stop();
  if (tracer != nullptr) ms[metric] = seconds * 1e3;
}

/// What one Alltoall op runs on, built from the workload's inputs. Members
/// are declared in dependency order, so teardown runs in reverse.
struct AlltoallFabric {
  topo::Topology topo;
  std::unique_ptr<routing::RoutingAlgorithm> routing;
  std::optional<projection::Plant> plant;            ///< SDT plane only
  std::optional<controller::Deployment> deployment;  ///< SDT plane only
  std::unique_ptr<sim::Simulator> engine;
  sim::BuiltNetwork built;
  std::unique_ptr<sim::TransportManager> transport;
  Layers ms;          ///< wall ms per step (traced builds)
  std::string error;  ///< non-empty: the fabric is not runnable
};

/// Alltoall on the SDT data plane (`sdtPlane`) or on the logical network.
class AlltoallWorkload final : public Workload {
 public:
  AlltoallWorkload(std::uint64_t seed, bool sdtPlane, int shards, int workers)
      : sdtPlane_(sdtPlane),
        shards_(shards),
        workers_(workers),
        program_(workloads::imbAlltoall(kRanks, kAlltoallBytes, kAlltoallIterations)) {
    // The seed picks which hosts the ranks run on and in what order.
    std::vector<int> hosts(static_cast<std::size_t>(makeDragonfly().numHosts()));
    std::iota(hosts.begin(), hosts.end(), 0);
    Rng rng(derive(seed, 1));
    rng.shuffle(hosts);
    hosts.resize(kRanks);
    placement_ = std::move(hosts);
  }

  [[nodiscard]] int warmupOps() const override { return workers_ > 1 ? 4 : 1; }
  [[nodiscard]] int shards() const override { return shards_; }
  [[nodiscard]] int workers() const override { return workers_; }

  OpResult op(int /*index*/, bool reference, obs::Tracer* tracer) override {
    // The reference op runs the K-shard serial merge; the others run the
    // workload's worker count and must match it bit for bit.
    const int workers = reference ? 1 : workers_;
    // An untimed rehearsal first: the timed set-up then starts from the
    // allocator state a set-up leaves, not from whatever the previous op's
    // teardown left, which moved logical-network set-ups between ~75 and
    // ~110 us from one op to the next.
    (void)build(nullptr, obs::kNoSpan, workers);

    OpResult r;
    Scope opSpan(tracer, "op");
    const obs::SpanId root = opSpan.id();
    Scope setup(tracer, "setup", root);
    const std::unique_ptr<AlltoallFabric> f = build(tracer, setup.id(), workers);
    r.setupSeconds = setup.stop();
    if (!f->error.empty()) {
      r.error = f->error;
      return r;
    }

    Scope run(tracer, "run", root);
    workloads::MpiRuntime mpi(*f->engine, *f->transport, placement_);
    mpi.run(program_);
    runEngine(*f->engine, tracer, run.id(), r);
    run.stop();
    if (tracer == nullptr) r.opSeconds = opSpan.stop();

    const std::uint64_t drops = f->built.net->totalDrops();
    r.fingerprint.emplace_back("act_ns", mpi.completionTime());
    r.fingerprint.emplace_back("drops", static_cast<std::int64_t>(drops));
    r.fingerprint.emplace_back("messages", mpi.messagesSent());
    if (!mpi.finished()) r.error = "not every rank finished";
    if (drops != 0) r.error = std::to_string(drops) + " drops on a lossless fabric";
    if (tracer == nullptr) return r;

    // Traced only: read every count, split the deploy, replay the tables.
    Layers& l = r.layers;
    l.insert(f->ms.begin(), f->ms.end());
    l["mpi.act_ns"] = static_cast<double>(mpi.completionTime());
    l["mpi.injected_bytes"] = static_cast<double>(program_.totalSendBytes());
    {
      Scope readback(tracer, "readback", root);
      readNetwork(*f->built.net, l);
      readTransport(*f->transport, f->topo.numHosts(), l);
    }
    if (sdtPlane_) {
      const controller::Deployment& dep = *f->deployment;
      l["controller.flow_mods"] = dep.totalFlowEntries;
      l["openflow.rules"] = dep.totalFlowEntries;
      int inter = 0;
      for (const auto& rl : dep.projection.realizedLinks()) inter += rl.interSwitch ? 1 : 0;
      l["projection.inter_switch_links"] = inter;
      {
        Scope split(tracer, "deploy.split", root);
        Scope dl(tracer, "routing.deadlock", split.id());
        (void)routing::analyzeDeadlock(f->topo, *f->routing);
        l["routing.deadlock_ms"] = dl.stop() * 1e3;
        Scope pj(tracer, "projection.project", split.id());
        (void)projection::LinkProjector::project(f->topo, *f->plant);
        l["projection.project_ms"] = pj.stop() * 1e3;
      }
      double lookups = 0.0;
      for (const auto& ofs : dep.switches) {
        for (const openflow::FlowEntry& e : ofs->table().entries()) {
          lookups += static_cast<double>(e.packetCount);
        }
      }
      l["openflow.lookups"] = lookups;
      Scope replay(tracer, "openflow.replay", root);
      if (auto err = replayLookups(dep.switches, tracer, replay.id(), l)) r.error = *err;
      // Deploy installs into empty tables; replay exactly that.
      Scope install(tracer, "openflow.install", replay.id());
      for (std::size_t sw = 0; sw < dep.switches.size(); ++sw) {
        openflow::FlowTable table(f->plant->switches[sw].flowTableCapacity);
        for (const openflow::FlowEntry& e : dep.switches[sw]->table().entries()) {
          if (!table.add(e)) r.error = "replayed install rejected a rule";
        }
      }
      l["openflow.install_ms"] = install.stop() * 1e3;
    }
    r.opSeconds = opSpan.stop();
    return r;
  }

 private:
  /// From the inputs to a runnable fabric: topology, routing, plant and
  /// deploy (SDT plane), then the network and transport build.
  [[nodiscard]] std::unique_ptr<AlltoallFabric> build(obs::Tracer* tracer,
                                                      obs::SpanId parent,
                                                      int workers) const {
    auto f = std::make_unique<AlltoallFabric>();
    Scope topoSpan(tracer, "topo.generate", parent);
    f->topo = makeDragonfly();
    note(topoSpan, "topo.generate_ms", tracer, f->ms);
    Scope routingSpan(tracer, "routing.build", parent);
    auto routingR = routing::makeRouting("dragonfly-minimal", f->topo);
    note(routingSpan, "routing.build_ms", tracer, f->ms);
    if (!routingR) {
      f->error = "routing: " + routingR.error().message;
      return f;
    }
    f->routing = std::move(routingR).value();

    if (sdtPlane_) {
      // Fig. 13's own plant: the fewest 128-port switches the topology fits.
      Scope plantSpan(tracer, "projection.plan_plant", parent);
      for (int n = 2; n <= 8 && !f->plant; ++n) {
        auto p = projection::planPlant(
            {&f->topo}, {.numSwitches = n, .spec = projection::openflow128x100G()});
        if (p) f->plant = std::move(p).value();
      }
      note(plantSpan, "projection.plan_plant_ms", tracer, f->ms);
      if (!f->plant) {
        f->error = "no plant fits the Dragonfly";
        return f;
      }
      Scope deploySpan(tracer, "controller.deploy", parent);
      auto dep = controller::SdtController(*f->plant).deploy(f->topo, *f->routing);
      note(deploySpan, "controller.deploy_ms", tracer, f->ms);
      if (!dep) {
        f->error = "deploy: " + dep.error().message;
        return f;
      }
      f->deployment = std::move(dep).value();
    }

    Scope buildSpan(tracer, "sim.build", parent);
    const testbed::InstanceOptions defaults;
    f->engine = std::make_unique<sim::Simulator>(shards_, workers);
    f->built = sdtPlane_
                   ? sim::buildProjectedNetwork(*f->engine, f->topo, f->deployment->projection,
                                                *f->plant, f->deployment->switches,
                                                defaults.network, defaults.crossbar)
                   : sim::buildLogicalNetwork(*f->engine, f->topo, *f->routing,
                                              defaults.network);
    f->transport =
        std::make_unique<sim::TransportManager>(*f->engine, *f->built.net, defaults.transport);
    note(buildSpan, "sim.build_ms", tracer, f->ms);
    return f;
  }

  bool sdtPlane_;
  int shards_;
  int workers_;
  workloads::Workload program_;
  std::vector<int> placement_;
};

/// bench_overload's calibrated serving mix on fat-tree k=4.
constexpr double kServingLoad = 2.0;  ///< x saturation
/// Generation horizon: ~12k flows per op, short enough that a 25 s run
/// holds ~100 ops and op_p90_ms has ten samples beyond it.
constexpr TimeNs kServingWindow = msToNs(20.0);

/// What one serving op runs on; members in dependency order.
struct ServingFabric {
  topo::Topology topo;
  std::unique_ptr<routing::RoutingAlgorithm> routing;
  std::unique_ptr<sim::Simulator> engine;
  sim::BuiltNetwork built;
  std::unique_ptr<sim::TransportManager> transport;
  std::unique_ptr<admission::AdmissionController> admission;
  std::unique_ptr<workloads::ServingRuntime> serving;
  Layers ms;  ///< wall ms per step (traced builds)
};

class ServingWorkload final : public Workload {
 public:
  /// Generator seeds per round: arrivals differ by ~4 % in event count from
  /// seed to seed, so each run cycles through several and its median does
  /// not hang on one draw.
  static constexpr int kSeeds = 4;

  explicit ServingWorkload(std::uint64_t seed) {
    for (int k = 0; k < kSeeds; ++k) seeds_.push_back(derive(seed, 200 + k));
  }

  [[nodiscard]] int roundOps() const override { return kSeeds; }

  OpResult op(int index, bool /*reference*/, obs::Tracer* tracer) override {
    const std::uint64_t seed = seeds_[static_cast<std::size_t>(index % kSeeds)];
    (void)build(seed, nullptr, obs::kNoSpan);  // rehearsal, as in AlltoallWorkload

    OpResult r;
    Scope opSpan(tracer, "op");
    const obs::SpanId root = opSpan.id();
    Scope setup(tracer, "setup", root);
    const std::unique_ptr<ServingFabric> f = build(seed, tracer, setup.id());
    r.setupSeconds = setup.stop();

    Scope run(tracer, "run", root);
    runEngine(*f->engine, tracer, run.id(), r);
    run.stop();
    if (tracer == nullptr) r.opSeconds = opSpan.stop();

    const auto total = f->serving->totalStats();
    r.fingerprint.emplace_back("stats_digest",
                               static_cast<std::int64_t>(f->serving->statsDigest()));
    r.fingerprint.emplace_back("drops", static_cast<std::int64_t>(f->built.net->totalDrops()));
    r.fingerprint.emplace_back("completed", static_cast<std::int64_t>(total.completed));
    if (total.completed == 0) r.error = "no serving unit completed";
    if (tracer == nullptr) return r;

    Layers& l = r.layers;
    Scope readback(tracer, "readback", root);
    l.insert(f->ms.begin(), f->ms.end());
    readNetwork(*f->built.net, l);
    readTransport(*f->transport, f->topo.numHosts(), l);
    l["serving.offered"] = static_cast<double>(total.offered);
    l["serving.completed"] = static_cast<double>(total.completed);
    l["serving.shed"] = static_cast<double>(total.shed);
    l["serving.slo_hit"] = static_cast<double>(total.sloHit);
    double deferred = 0.0;
    for (const auto cls : {admission::Priority::kGold, admission::Priority::kSilver,
                           admission::Priority::kBronze}) {
      deferred += static_cast<double>(f->admission->classCounters(cls).deferred);
    }
    l["admission.deferred"] = deferred;
    l["admission.peak_pressure"] = f->admission->peakPressure();
    readback.stop();
    r.opSeconds = opSpan.stop();
    return r;
  }

 private:
  /// From the inputs to an armed fabric: topology, routing, the lossy
  /// network and transport, then admission and the serving generators.
  [[nodiscard]] static std::unique_ptr<ServingFabric> build(std::uint64_t seed,
                                                            obs::Tracer* tracer,
                                                            obs::SpanId parent) {
    auto f = std::make_unique<ServingFabric>();
    Scope topoSpan(tracer, "topo.generate", parent);
    f->topo = topo::makeFatTree(4);
    note(topoSpan, "topo.generate_ms", tracer, f->ms);
    Scope routingSpan(tracer, "routing.build", parent);
    f->routing = std::make_unique<routing::ShortestPathRouting>(f->topo);
    note(routingSpan, "routing.build_ms", tracer, f->ms);

    Scope buildSpan(tracer, "sim.build", parent);
    testbed::InstanceOptions options;
    options.network.pfcEnabled = false;  // lossy: overload drops, not pauses
    f->engine = std::make_unique<sim::Simulator>(1, 1);
    f->built = sim::buildLogicalNetwork(*f->engine, f->topo, *f->routing, options.network);
    f->transport =
        std::make_unique<sim::TransportManager>(*f->engine, *f->built.net, options.transport);
    note(buildSpan, "sim.build_ms", tracer, f->ms);

    Scope armSpan(tracer, "workloads.arm", parent);
    admission::Policy policy;
    policy.enabled = true;
    f->admission = std::make_unique<admission::AdmissionController>(*f->engine,
                                                                    *f->built.net, policy);
    workloads::ServingConfig cfg;
    cfg.duration = kServingWindow;
    cfg.seed = seed;
    f->serving = std::make_unique<workloads::ServingRuntime>(*f->engine, *f->built.net,
                                                             *f->transport, cfg);
    f->serving->setAdmission(f->admission.get());
    addServingMix(*f->serving, f->topo.numHosts());
    f->serving->setRateScale(kServingLoad);
    f->admission->start(cfg.start + cfg.duration);
    f->serving->start();
    armSpan.stop();
    return f;
  }

  /// Gold partition-aggregate queries, silver incast and replication, bronze
  /// bursty background; one incast round drains in ~98 us, so a 100 us round
  /// interval is saturation at rate scale 1.0.
  static void addServingMix(workloads::ServingRuntime& serving, int hosts) {
    workloads::PartitionAggregateSpec pa;
    pa.root = 0;
    pa.workers = {8, 9, 13, 14};
    serving.addPartitionAggregate(pa);
    for (const int aggregator : {4, 10}) {
      workloads::IncastSpec incast;
      incast.aggregator = aggregator;
      for (int h = 0; h < hosts; ++h) {
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
    for (int h = 0; h < hosts; ++h) mix.hosts.push_back(h);
    mix.meanFlowInterval = usToNs(200.0);
    serving.addBurstyMix(mix);
  }

  std::vector<std::uint64_t> seeds_;
};

/// Live re-route of a deployed Dragonfly: each op moves the deployment to
/// the next ECMP salt through a two-phase transaction.
class RerouteWorkload final : public Workload {
 public:
  /// Salts cycle with this period, so op i repeats reference op i % kSalts.
  static constexpr int kSalts = 8;
  /// Set-ups per run; setup_s is their median.
  static constexpr int kSetups = 9;
  /// Install/barrier attempts per switch. At 10 % drop each way an attempt
  /// fails ~19 % of the time; the library default of 4 rolled back ~2 % of
  /// ops, 12 leaves a rollback at ~3e-8 per op.
  static constexpr int kInstallAttempts = 12;

  explicit RerouteWorkload(std::uint64_t seed) : seed_(seed) {
    for (int k = 0; k < kSalts; ++k) salts_.push_back(derive(seed, 100 + k));
    for (int i = 0; i < kSetups; ++i) setUp();
  }

  [[nodiscard]] int roundOps() const override { return kSalts; }
  [[nodiscard]] std::vector<double> setupSamples() const override { return setupSeconds_; }

  OpResult op(int index, bool /*reference*/, obs::Tracer* tracer) override {
    OpResult r;
    Layers& l = r.layers;
    if (!error_.empty()) {
      r.error = error_;
      return r;
    }
    const bool traced = tracer != nullptr;
    Scope opSpan(tracer, "op");
    const obs::SpanId root = opSpan.id();

    Scope planSpan(tracer, "controller.plan", root);
    controller::DeployOptions options;
    options.ecmpSalt = salts_[static_cast<std::size_t>((index + 1) % kSalts)];
    auto planR = ctl_->planUpdate(*deployment_, *topo_, *routing_, options);
    const double planS = planSpan.stop();
    if (!planR) {
      r.error = "planUpdate: " + planR.error().message;
      return r;
    }

    // Traced only: keep what the replay needs before the transaction
    // consumes the plan and rewrites the tables.
    std::vector<std::vector<openflow::FlowEntry>> planTables;
    std::vector<openflow::FlowTable> liveTables;
    if (traced) {
      Scope snap(tracer, "openflow.snapshot", root);
      planTables = planR.value().tables;
      for (const auto& ofs : deployment_->switches) liveTables.push_back(ofs->table());
    }
    const std::uint32_t fromEpoch = planR.value().fromEpoch;
    const int planned = planR.value().totalEntries;

    Scope txSpan(tracer, "controller.tx", root);
    sim::Simulator engine(1, 1);
    sim::ControlChannelConfig channelCfg;
    channelCfg.dropProb = 0.10;
    channelCfg.dupProb = 0.05;
    channelCfg.reorderProb = 0.05;
    sim::ControlChannel channel(engine, derive(seed_, 1000 + static_cast<std::uint64_t>(index)),
                                channelCfg);
    controller::ReconfigOptions txOptions;
    txOptions.retry.maxAttempts = kInstallAttempts;
    controller::ReconfigTransaction tx(engine, channel, *deployment_,
                                       std::move(planR).value(), txOptions);
    tx.start();
    runEngine(engine, tracer, txSpan.id(), r);
    const double txS = txSpan.stop();
    if (!traced) r.opSeconds = opSpan.stop();

    const controller::ReconfigReport& report = tx.report();
    r.rolledBack = report.rolledBack;
    // Replaces runEngine's event count and end time, which follow the
    // channel's draws: those, like the retries, differ op to op by design.
    r.fingerprint = {{"committed", report.committed ? 1 : 0},
                     {"pure", report.pureStateVerified ? 1 : 0},
                     {"planned", planned},
                     {"installed", report.flowModsInstalled},
                     {"garbage_collected", report.flowModsGarbageCollected},
                     {"rolled_back", report.flowModsRolledBack}};
    if (!tx.finished()) {
      r.error = "transaction did not finish";
    } else if (!report.committed && !report.rolledBack) {
      r.error = "transaction ended neither committed nor rolled back";
    } else if (!report.pureStateVerified) {
      r.error = "transaction left mixed-epoch tables";
    }
    if (!traced) return r;

    l.insert(setupLayers_.begin(), setupLayers_.end());
    l["controller.plan_ms"] = planS * 1e3;
    l["controller.tx_ms"] = txS * 1e3;
    l["controller.flow_mods"] = report.flowModsInstalled + report.flowModsGarbageCollected +
                                report.flowModsRolledBack;
    l["controller.retries"] = report.retriesTotal;
    l["controller.rollbacks"] = report.rolledBack ? 1.0 : 0.0;
    l["controller.update_window_us"] = static_cast<double>(report.updateWindow()) * 1e-3;
    l["openflow.rules"] = planned;
    {
      Scope split(tracer, "plan.split", root);
      Scope dl(tracer, "routing.deadlock", split.id());
      (void)routing::analyzeDeadlock(*topo_, *routing_);
      l["routing.deadlock_ms"] = dl.stop() * 1e3;
      Scope pj(tracer, "projection.project", split.id());
      (void)projection::LinkProjector::project(*topo_, *plant_);
      l["projection.project_ms"] = pj.stop() * 1e3;
    }
    Scope replay(tracer, "openflow.replay", root);
    if (auto err = replayLookups(deployment_->switches, tracer, replay.id(), l)) {
      r.error = *err;
    }
    // The transaction's table writes on a copy of the pre-op tables:
    // install the plan's rules next to the live ones, then GC the old epoch.
    Scope install(tracer, "openflow.install", replay.id());
    for (std::size_t sw = 0; sw < liveTables.size(); ++sw) {
      for (const openflow::FlowEntry& e : planTables[sw]) {
        if (!liveTables[sw].add(e)) r.error = "replayed install rejected a rule";
      }
      liveTables[sw].removeByEpoch(fromEpoch);
    }
    l["openflow.install_ms"] = install.stop() * 1e3;
    replay.stop();
    r.opSeconds = opSpan.stop();
    return r;
  }

 private:
  /// Inputs to a deployed fabric: topology, routing, plant and deploy. Each
  /// call starts over; the last one is the fabric the ops re-route.
  void setUp() {
    const std::int64_t start = wallNs();
    std::int64_t t = start;
    auto lap = [&t]() {
      const std::int64_t now = wallNs();
      const double ms = static_cast<double>(now - t) * 1e-6;
      t = now;
      return ms;
    };
    topo_ = std::make_unique<topo::Topology>(makeDragonfly());
    setupLayers_["topo.generate_ms"] = lap();
    auto routingR = routing::makeRouting("dragonfly-adaptive", *topo_);
    setupLayers_["routing.build_ms"] = lap();
    if (!routingR) {
      error_ = "routing: " + routingR.error().message;
      return;
    }
    routing_ = std::move(routingR).value();
    // The planner's default switch model: 64-port OpenFlow switches.
    auto plantR = projection::planPlant({topo_.get()}, {.numSwitches = 6});
    setupLayers_["projection.plan_plant_ms"] = lap();
    if (!plantR) {
      error_ = "plant: " + plantR.error().message;
      return;
    }
    plant_ = std::make_unique<projection::Plant>(std::move(plantR).value());
    ctl_ = std::make_unique<controller::SdtController>(*plant_);
    controller::DeployOptions options;
    options.ecmpSalt = salts_.front();
    auto dep = ctl_->deploy(*topo_, *routing_, options);
    setupLayers_["controller.deploy_ms"] = lap();
    if (!dep) {
      error_ = "deploy: " + dep.error().message;
      return;
    }
    deployment_ = std::make_unique<controller::Deployment>(std::move(dep).value());
    int inter = 0;
    for (const auto& rl : deployment_->projection.realizedLinks()) inter += rl.interSwitch ? 1 : 0;
    setupLayers_["projection.inter_switch_links"] = inter;
    setupSeconds_.push_back(static_cast<double>(wallNs() - start) * 1e-9);
  }

  std::uint64_t seed_;
  std::vector<std::uint64_t> salts_;
  std::unique_ptr<topo::Topology> topo_;
  std::unique_ptr<routing::RoutingAlgorithm> routing_;
  std::unique_ptr<projection::Plant> plant_;
  std::unique_ptr<controller::SdtController> ctl_;
  std::unique_ptr<controller::Deployment> deployment_;
  std::vector<double> setupSeconds_;
  Layers setupLayers_;  ///< from the last set-up
  std::string error_;   ///< set-up failure; every op reports it
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"alltoall-df-sdt", "alltoall-df-k2",
                                              "serving-ft4", "reroute-df-sdt"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed,
                                       bool traceRun) {
  if (name == "alltoall-df-sdt") return std::make_unique<AlltoallWorkload>(seed, true, 1, 1);
  if (name == "alltoall-df-k2") {
    return std::make_unique<AlltoallWorkload>(seed, false, 2, traceRun ? 2 : 1);
  }
  if (name == "serving-ft4") return std::make_unique<ServingWorkload>(seed);
  if (name == "reroute-df-sdt") return std::make_unique<RerouteWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
