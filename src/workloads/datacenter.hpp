// Datacenter overload workloads: open-loop serving traffic with per-flow
// latency SLOs.
//
// The HPC workloads (apps.hpp) are closed loops — every rank waits for its
// collective, so offered load self-limits at fabric capacity. Overload needs
// the opposite: open-loop sources that keep injecting regardless of fabric
// state, the regime where goodput collapses without an admission layer. This
// module models the classic datacenter mixes:
//   - incast: N senders answer one aggregator in synchronized rounds (the
//     TCP-incast / partition-aggregate leaf pattern);
//   - partition-aggregate: a root fans a query to workers and waits for all
//     responses — completion is the *query*, the canonical tail-latency SLO;
//   - storage replication: client write -> primary -> R replicas -> acks ->
//     commit, write-latency SLO over the full chain;
//   - bursty uniform mix: on/off background traffic between random pairs.
//
// Every source is an event-driven generator homed on shard 0 drawing from
// its own seeded RNG; flow starts are dispatched to the source host's shard
// (lookahead-padded), where the optional AdmissionController is consulted —
// admit sends on the RoCE transport, defer retries after
// admission::kDeferDelay up to admission::kMaxDefers, then the flow is shed. Completions are scored
// against the priority class SLO where they land (receiver shard), into
// per-shard stats merged at read time — the whole pipeline stays
// bit-identical serial vs K-shard parallel at fixed K.
//
// scaleRates() storms the fabric: it multiplies arrival rates fabric-wide
// (a flash crowd) or for one rogue source owner over a window.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "admission/admission.hpp"
#include "common/rng.hpp"
#include "sim/transport.hpp"
#include "workloads/mpi.hpp"

namespace sdt::workloads {

using admission::Priority;

/// N senders -> one aggregator, all firing each round (synchronized incast).
struct IncastSpec {
  std::vector<int> senders;  ///< source hosts (must exclude `aggregator`)
  int aggregator = -1;
  std::int64_t bytesPerFlow = 32 * kKiB;
  TimeNs meanRoundInterval = usToNs(200.0);  ///< exponential round spacing
  Priority priority = Priority::kSilver;
};

/// Root fans `requestBytes` to each worker; each worker answers with
/// `responseBytes`; the query completes when the last response lands.
struct PartitionAggregateSpec {
  int root = -1;
  std::vector<int> workers;  ///< must exclude `root`
  std::int64_t requestBytes = 2 * kKiB;
  std::int64_t responseBytes = 16 * kKiB;
  TimeNs meanQueryInterval = usToNs(300.0);
  Priority priority = Priority::kGold;
};

/// Client write replicated primary -> replicas; commit ack closes the chain.
struct ReplicationSpec {
  int client = -1;
  int primary = -1;
  std::vector<int> replicas;  ///< must exclude `client` and `primary`
  std::int64_t writeBytes = 64 * kKiB;
  TimeNs meanWriteInterval = usToNs(500.0);
  Priority priority = Priority::kSilver;
};

/// On/off background mix between random distinct pairs of `hosts`.
struct BurstyMixSpec {
  std::vector<int> hosts;  ///< at least 2
  std::int64_t bytesPerFlow = 16 * kKiB;
  TimeNs meanFlowInterval = usToNs(50.0);  ///< during a burst
  TimeNs meanBurstLen = msToNs(1.0);
  TimeNs meanOffLen = msToNs(1.0);
  Priority priority = Priority::kBronze;
};

struct ServingConfig {
  TimeNs start = 0;
  TimeNs duration = msToNs(20.0);  ///< generation horizon (open loop stops)
  std::uint64_t seed = 0xD47AC347ULL;
};

class ServingRuntime {
 public:
  ServingRuntime(sim::Simulator& sim, sim::Network& net,
                 sim::TransportManager& transport, ServingConfig config);

  /// Gate every flow start through `adm` (nullptr = open loop, no brake).
  /// Completions score against admission::kClasses' SLOs either way.
  void setAdmission(admission::AdmissionController* adm) { admission_ = adm; }

  void addIncast(IncastSpec spec);
  void addPartitionAggregate(PartitionAggregateSpec spec);
  void addReplication(ReplicationSpec spec);
  void addBurstyMix(BurstyMixSpec spec);

  /// Global offered-load multiplier (call pre-run or from shard 0).
  void setRateScale(double scale) { globalScale_ = scale; }
  /// Multiply the arrival rate of the sources `host` owns (every source
  /// when host < 0) by `scale` from `from` until `until`, then return it to
  /// 1: a rogue tenant, or fabric-wide a flash crowd. Schedules two events
  /// on shard 0, where the generators read the scales (call pre-run or from
  /// shard 0).
  void scaleRates(TimeNs from, TimeNs until, int host, double scale);

  /// Arm the generators (call once, before Simulator::run()).
  void start();

  // -- Merged statistics (read post-run or from a serial context) -----------
  struct ClassStats {
    std::uint64_t offered = 0;        ///< flow/query starts attempted
    std::uint64_t admitted = 0;       ///< entered the fabric
    std::uint64_t deferRetries = 0;   ///< defer decisions absorbed
    std::uint64_t shed = 0;           ///< rejected outright or after defers
    std::uint64_t completed = 0;
    std::uint64_t sloHit = 0;
    std::uint64_t sloMiss = 0;
    std::int64_t completedBytes = 0;  ///< application bytes of completed units
    std::int64_t sloGoodBytes = 0;    ///< completed bytes that met the class SLO
    std::uint64_t latencySumNs = 0;
    TimeNs maxLatencyNs = 0;

    ClassStats& operator+=(const ClassStats& o);
  };
  [[nodiscard]] ClassStats classStats(Priority cls) const;
  [[nodiscard]] ClassStats totalStats() const;
  /// FNV-1a digest over every per-class merged counter — the fingerprint the
  /// determinism suite compares across serial/parallel runs.
  [[nodiscard]] std::uint64_t statsDigest() const;

 private:
  enum class SourceKind : std::uint8_t { kIncast, kPartAgg, kReplication, kBursty };

  struct Source {
    SourceKind kind;
    int owner = -1;  ///< rate-scale key: aggregator/root/client (-1 = none)
    IncastSpec incast;
    PartitionAggregateSpec partAgg;
    ReplicationSpec repl;
    BurstyMixSpec bursty;
    Rng rng{0};
    bool inBurst = false;   ///< bursty only
    TimeNs burstEndsAt = 0; ///< bursty only
  };

  struct alignas(64) ShardStats {
    std::array<ClassStats, admission::kNumPriorities> perClass{};
  };

  [[nodiscard]] double scaleFor(const Source& src) const;  ///< shard 0 only
  [[nodiscard]] TimeNs deadline() const { return config_.start + config_.duration; }
  [[nodiscard]] int maxDefers() const;
  void sourceTick(std::size_t idx);       ///< shard 0
  void fireIncast(Source& src);
  void firePartAgg(Source& src);
  void fireReplication(Source& src);
  void fireBurstyFlow(Source& src);
  /// Dispatch one admission *unit* (flow, query, or replicated write) onto
  /// `srcHost`'s shard: count it offered, gate it through admission
  /// (charging `chargeBytes`), and on admit run `admitAction(bornAt)` in
  /// that shard's context. Defers retry in place; exhausted defers shed.
  void launchUnit(int srcHost, Priority cls, std::int64_t chargeBytes,
                  std::function<void(TimeNs)> admitAction);
  void tryStart(int srcHost, Priority cls, std::int64_t chargeBytes,
                int defersLeft, TimeNs bornAt,
                std::function<void(TimeNs)> admitAction);
  /// Raw transport send, no admission gate (sub-flows of an admitted unit).
  /// Must run on `srcHost`'s shard; `onDone(at)` fires on `dstHost`'s shard.
  void sendUngated(int srcHost, int dstHost, std::int64_t bytes,
                   std::function<void(TimeNs)> onDone);
  void recordCompletion(Priority cls, TimeNs bornAt, TimeNs completedAt,
                        std::int64_t bytes);
  [[nodiscard]] ClassStats& statsHere(Priority cls);
  [[nodiscard]] TimeNs sloFor(Priority cls) const;

  sim::Simulator* sim_;
  sim::Network* net_;
  sim::TransportManager* transport_;
  ServingConfig config_;
  admission::AdmissionController* admission_ = nullptr;
  std::vector<Source> sources_;
  std::vector<ShardStats> shardStats_;  ///< one per shard
  // Rate scaling; shard-0-owned (the generators and scaleRates' events run
  // there).
  double globalScale_ = 1.0;
  std::vector<double> hostScale_;
  /// Small control payload for replication acks/commits.
  static constexpr std::int64_t kCtrlBytes = 256;
};

// ---- MPI-style closed-loop equivalents (sdtctl demo configs) --------------

/// Rank 0 aggregates: each round, every other rank sends `bytesPerFlow` to
/// rank 0, barrier between rounds. The closed-loop cousin of IncastSpec.
Workload incast(int ranks, std::int64_t bytesPerFlow, int rounds);

/// Rank 0 is the root: per query it requests every worker and collects all
/// responses, barrier between queries.
Workload partitionAggregate(int ranks, std::int64_t requestBytes,
                            std::int64_t responseBytes, int queries);

}  // namespace sdt::workloads
