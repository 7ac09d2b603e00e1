#include "workloads/datacenter.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "common/hash.hpp"

namespace sdt::workloads {

ServingRuntime::ServingRuntime(sim::Simulator& sim, sim::Network& net,
                               sim::TransportManager& transport,
                               ServingConfig config)
    : sim_(&sim), net_(&net), transport_(&transport), config_(config) {
  assert(config_.duration > 0);
  shardStats_.resize(static_cast<std::size_t>(sim.numShards()));
  hostScale_.assign(static_cast<std::size_t>(net.numHosts()), 1.0);
}

void ServingRuntime::addIncast(IncastSpec spec) {
  assert(spec.aggregator >= 0 && !spec.senders.empty());
  Source src;
  src.kind = SourceKind::kIncast;
  src.owner = spec.aggregator;
  src.incast = std::move(spec);
  src.rng = Rng(detail::mixSeed(config_.seed, sources_.size()));
  sources_.push_back(std::move(src));
}

void ServingRuntime::addPartitionAggregate(PartitionAggregateSpec spec) {
  assert(spec.root >= 0 && !spec.workers.empty());
  Source src;
  src.kind = SourceKind::kPartAgg;
  src.owner = spec.root;
  src.partAgg = std::move(spec);
  src.rng = Rng(detail::mixSeed(config_.seed, sources_.size()));
  sources_.push_back(std::move(src));
}

void ServingRuntime::addReplication(ReplicationSpec spec) {
  assert(spec.client >= 0 && spec.primary >= 0 && spec.client != spec.primary);
  Source src;
  src.kind = SourceKind::kReplication;
  src.owner = spec.client;
  src.repl = std::move(spec);
  src.rng = Rng(detail::mixSeed(config_.seed, sources_.size()));
  sources_.push_back(std::move(src));
}

void ServingRuntime::addBurstyMix(BurstyMixSpec spec) {
  assert(spec.hosts.size() >= 2);
  Source src;
  src.kind = SourceKind::kBursty;
  src.owner = -1;
  src.bursty = std::move(spec);
  src.rng = Rng(detail::mixSeed(config_.seed, sources_.size()));
  sources_.push_back(std::move(src));
}

void ServingRuntime::scaleRates(TimeNs from, TimeNs until, int host, double scale) {
  assert(host < static_cast<int>(hostScale_.size()));
  const auto set = [this, host](double value) {
    (host < 0 ? globalScale_ : hostScale_[static_cast<std::size_t>(host)]) = value;
  };
  sim_->scheduleAtOn(0, from, [set, scale]() { set(scale); });
  sim_->scheduleAtOn(0, until, [set]() { set(1.0); });
}

double ServingRuntime::scaleFor(const Source& src) const {
  double scale = globalScale_;
  if (src.owner >= 0) scale *= hostScale_[static_cast<std::size_t>(src.owner)];
  return scale > 0.0 ? scale : 1e-9;
}

int ServingRuntime::maxDefers() const {
  return admission_ != nullptr ? admission::kMaxDefers : 0;
}

TimeNs ServingRuntime::sloFor(Priority cls) const {
  return admission::kClasses[static_cast<std::size_t>(priorityIndex(cls))].sloNs;
}

ServingRuntime::ClassStats& ServingRuntime::statsHere(Priority cls) {
  return shardStats_[static_cast<std::size_t>(sim_->currentShard())]
      .perClass[static_cast<std::size_t>(priorityIndex(cls))];
}

void ServingRuntime::start() {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    Source& src = sources_[i];
    // Stagger first arrivals with each source's own stream so sources do
    // not fire in lockstep at t = start.
    const TimeNs mean = src.kind == SourceKind::kIncast ? src.incast.meanRoundInterval
                        : src.kind == SourceKind::kPartAgg
                            ? src.partAgg.meanQueryInterval
                        : src.kind == SourceKind::kReplication
                            ? src.repl.meanWriteInterval
                            : src.bursty.meanFlowInterval;
    const auto first = std::max<TimeNs>(
        1, static_cast<TimeNs>(src.rng.exponential(static_cast<double>(mean))));
    sim_->scheduleOn(0, config_.start + first, [this, i]() { sourceTick(i); });
  }
}

void ServingRuntime::sourceTick(std::size_t idx) {
  if (sim_->now() >= deadline()) return;
  Source& src = sources_[idx];
  const double scale = scaleFor(src);
  TimeNs next = 0;
  switch (src.kind) {
    case SourceKind::kIncast:
      fireIncast(src);
      next = static_cast<TimeNs>(src.rng.exponential(
          static_cast<double>(src.incast.meanRoundInterval) / scale));
      break;
    case SourceKind::kPartAgg:
      firePartAgg(src);
      next = static_cast<TimeNs>(src.rng.exponential(
          static_cast<double>(src.partAgg.meanQueryInterval) / scale));
      break;
    case SourceKind::kReplication:
      fireReplication(src);
      next = static_cast<TimeNs>(src.rng.exponential(
          static_cast<double>(src.repl.meanWriteInterval) / scale));
      break;
    case SourceKind::kBursty: {
      if (!src.inBurst) {
        src.inBurst = true;
        src.burstEndsAt =
            sim_->now() + std::max<TimeNs>(1, static_cast<TimeNs>(src.rng.exponential(
                              static_cast<double>(src.bursty.meanBurstLen))));
      }
      if (sim_->now() < src.burstEndsAt) {
        fireBurstyFlow(src);
        next = static_cast<TimeNs>(src.rng.exponential(
            static_cast<double>(src.bursty.meanFlowInterval) / scale));
      } else {
        src.inBurst = false;
        next = static_cast<TimeNs>(
            src.rng.exponential(static_cast<double>(src.bursty.meanOffLen)));
      }
      break;
    }
  }
  next = std::max<TimeNs>(1, next);
  sim_->scheduleOn(0, next, [this, idx]() { sourceTick(idx); });
}

void ServingRuntime::fireIncast(Source& src) {
  const IncastSpec& spec = src.incast;
  for (const int sender : spec.senders) {
    const int dst = spec.aggregator;
    const std::int64_t bytes = spec.bytesPerFlow;
    const Priority cls = spec.priority;
    launchUnit(sender, cls, bytes, [this, sender, dst, bytes, cls](TimeNs bornAt) {
      transport_->sendMessage(sender, dst, bytes, 0,
                              [this, cls, bornAt, bytes](std::uint64_t, sim::Time at) {
                                recordCompletion(cls, bornAt, at, bytes);
                              });
    });
  }
}

void ServingRuntime::firePartAgg(Source& src) {
  // One query = root requests every worker, every worker responds; the
  // whole fan is admitted (and charged) as a single unit at the root.
  const PartitionAggregateSpec spec = src.partAgg;
  const auto workers = static_cast<std::int64_t>(spec.workers.size());
  const std::int64_t unitBytes = workers * (spec.requestBytes + spec.responseBytes);
  const Priority cls = spec.priority;
  launchUnit(spec.root, cls, unitBytes, [this, spec, unitBytes, cls](TimeNs bornAt) {
    auto remaining = std::make_shared<int>(static_cast<int>(spec.workers.size()));
    for (const int worker : spec.workers) {
      sendUngated(spec.root, worker, spec.requestBytes,
                  [this, spec, worker, remaining, bornAt, unitBytes, cls](TimeNs) {
                    // Worker shard: answer the root.
                    sendUngated(worker, spec.root, spec.responseBytes,
                                [this, remaining, bornAt, unitBytes, cls](TimeNs at) {
                                  // Root shard: last response closes the query.
                                  if (--*remaining == 0) {
                                    recordCompletion(cls, bornAt, at, unitBytes);
                                  }
                                });
                  });
    }
  });
}

void ServingRuntime::fireReplication(Source& src) {
  const ReplicationSpec spec = src.repl;
  const auto replicas = static_cast<std::int64_t>(spec.replicas.size());
  const std::int64_t unitBytes = spec.writeBytes * (1 + replicas);
  const Priority cls = spec.priority;
  launchUnit(spec.client, cls, unitBytes, [this, spec, unitBytes, cls](TimeNs bornAt) {
    sendUngated(spec.client, spec.primary, spec.writeBytes,
                [this, spec, unitBytes, cls, bornAt](TimeNs at) {
                  // Primary shard: replicate, gather acks, then commit.
                  auto commit = [this, spec, unitBytes, cls, bornAt]() {
                    sendUngated(spec.primary, spec.client, kCtrlBytes,
                                [this, unitBytes, cls, bornAt](TimeNs doneAt) {
                                  recordCompletion(cls, bornAt, doneAt, unitBytes);
                                });
                  };
                  if (spec.replicas.empty()) {
                    (void)at;
                    commit();
                    return;
                  }
                  auto acks = std::make_shared<int>(static_cast<int>(spec.replicas.size()));
                  for (const int replica : spec.replicas) {
                    sendUngated(spec.primary, replica, spec.writeBytes,
                                [this, spec, replica, acks, commit](TimeNs) {
                                  // Replica shard: ack the primary.
                                  sendUngated(replica, spec.primary, kCtrlBytes,
                                              [acks, commit](TimeNs) {
                                                if (--*acks == 0) commit();
                                              });
                                });
                  }
                });
  });
}

void ServingRuntime::fireBurstyFlow(Source& src) {
  const BurstyMixSpec& spec = src.bursty;
  const auto n = spec.hosts.size();
  const auto si = static_cast<std::size_t>(src.rng.below(n));
  auto di = static_cast<std::size_t>(src.rng.below(n - 1));
  if (di >= si) ++di;  // uniform over the n-1 hosts != src
  const int sender = spec.hosts[si];
  const int dst = spec.hosts[di];
  const std::int64_t bytes = spec.bytesPerFlow;
  const Priority cls = spec.priority;
  launchUnit(sender, cls, bytes, [this, sender, dst, bytes, cls](TimeNs bornAt) {
    transport_->sendMessage(sender, dst, bytes, 0,
                            [this, cls, bornAt, bytes](std::uint64_t, sim::Time at) {
                              recordCompletion(cls, bornAt, at, bytes);
                            });
  });
}

void ServingRuntime::launchUnit(int srcHost, Priority cls, std::int64_t chargeBytes,
                                std::function<void(TimeNs)> admitAction) {
  const int shard = net_->hostShard(srcHost);
  sim_->scheduleOn(shard, sim_->crossDelay(shard, 0),
                   [this, srcHost, cls, chargeBytes,
                    admitAction = std::move(admitAction)]() mutable {
                     ++statsHere(cls).offered;
                     tryStart(srcHost, cls, chargeBytes, maxDefers(), sim_->now(),
                              std::move(admitAction));
                   });
}

void ServingRuntime::tryStart(int srcHost, Priority cls, std::int64_t chargeBytes,
                              int defersLeft, TimeNs bornAt,
                              std::function<void(TimeNs)> admitAction) {
  if (admission_ != nullptr) {
    switch (admission_->request(srcHost, cls, chargeBytes)) {
      case admission::Decision::kShed:
        ++statsHere(cls).shed;
        return;
      case admission::Decision::kDefer:
        if (defersLeft > 0) {
          ++statsHere(cls).deferRetries;
          sim_->schedule(admission::kDeferDelay,
                         [this, srcHost, cls, chargeBytes, defersLeft, bornAt,
                          admitAction = std::move(admitAction)]() mutable {
                           tryStart(srcHost, cls, chargeBytes, defersLeft - 1, bornAt,
                                    std::move(admitAction));
                         });
        } else {
          ++statsHere(cls).shed;
        }
        return;
      case admission::Decision::kAdmit:
        break;
    }
  }
  ++statsHere(cls).admitted;
  admitAction(bornAt);
}

void ServingRuntime::sendUngated(int srcHost, int dstHost, std::int64_t bytes,
                                 std::function<void(TimeNs)> onDone) {
  transport_->sendMessage(srcHost, dstHost, bytes, 0,
                          [onDone = std::move(onDone)](std::uint64_t, sim::Time at) {
                            onDone(at);
                          });
}

void ServingRuntime::recordCompletion(Priority cls, TimeNs bornAt, TimeNs completedAt,
                                      std::int64_t bytes) {
  ClassStats& stats = statsHere(cls);
  const TimeNs latency = completedAt - bornAt;
  ++stats.completed;
  stats.completedBytes += bytes;
  stats.latencySumNs += static_cast<std::uint64_t>(latency);
  stats.maxLatencyNs = std::max(stats.maxLatencyNs, latency);
  if (latency <= sloFor(cls)) {
    ++stats.sloHit;
    stats.sloGoodBytes += bytes;
  } else {
    ++stats.sloMiss;
  }
}

ServingRuntime::ClassStats& ServingRuntime::ClassStats::operator+=(const ClassStats& o) {
  offered += o.offered;
  admitted += o.admitted;
  deferRetries += o.deferRetries;
  shed += o.shed;
  completed += o.completed;
  sloHit += o.sloHit;
  sloMiss += o.sloMiss;
  completedBytes += o.completedBytes;
  sloGoodBytes += o.sloGoodBytes;
  latencySumNs += o.latencySumNs;
  maxLatencyNs = std::max(maxLatencyNs, o.maxLatencyNs);
  return *this;
}

ServingRuntime::ClassStats ServingRuntime::classStats(Priority cls) const {
  const auto ci = static_cast<std::size_t>(priorityIndex(cls));
  ClassStats out;
  for (const ShardStats& shard : shardStats_) out += shard.perClass[ci];
  return out;
}

ServingRuntime::ClassStats ServingRuntime::totalStats() const {
  ClassStats out;
  for (int c = 0; c < admission::kNumPriorities; ++c) {
    out += classStats(static_cast<Priority>(c));
  }
  return out;
}

std::uint64_t ServingRuntime::statsDigest() const {
  hash::Fnv64 h;
  for (int c = 0; c < admission::kNumPriorities; ++c) {
    const ClassStats s = classStats(static_cast<Priority>(c));
    h.mix(s.offered)
        .mix(s.admitted)
        .mix(s.deferRetries)
        .mix(s.shed)
        .mix(s.completed)
        .mix(s.sloHit)
        .mix(s.sloMiss)
        .mix(static_cast<std::uint64_t>(s.completedBytes))
        .mix(static_cast<std::uint64_t>(s.sloGoodBytes))
        .mix(s.latencySumNs)
        .mix(static_cast<std::uint64_t>(s.maxLatencyNs));
  }
  return h.value();
}

// ---- MPI-style closed-loop equivalents ------------------------------------

Workload incast(int ranks, std::int64_t bytesPerFlow, int rounds) {
  assert(ranks >= 2);
  Workload w;
  w.name = "incast";
  w.perRank.resize(static_cast<std::size_t>(ranks));
  int tag = 1;
  for (int round = 0; round < rounds; ++round) {
    for (int r = 1; r < ranks; ++r) {
      w.perRank[static_cast<std::size_t>(r)].push_back(
          Op::send(0, bytesPerFlow, tag));
      w.perRank[0].push_back(Op::recv(r, tag));
    }
    ++tag;
    for (auto& program : w.perRank) program.push_back(Op::barrier());
  }
  return w;
}

Workload partitionAggregate(int ranks, std::int64_t requestBytes,
                            std::int64_t responseBytes, int queries) {
  assert(ranks >= 2);
  Workload w;
  w.name = "partagg";
  w.perRank.resize(static_cast<std::size_t>(ranks));
  int tag = 1;
  for (int q = 0; q < queries; ++q) {
    for (int r = 1; r < ranks; ++r) {
      w.perRank[0].push_back(Op::send(r, requestBytes, tag));
      w.perRank[static_cast<std::size_t>(r)].push_back(Op::recv(0, tag));
      w.perRank[static_cast<std::size_t>(r)].push_back(
          Op::send(0, responseBytes, tag + 1));
    }
    for (int r = 1; r < ranks; ++r) {
      w.perRank[0].push_back(Op::recv(r, tag + 1));
    }
    tag += 2;
    for (auto& program : w.perRank) program.push_back(Op::barrier());
  }
  return w;
}

}  // namespace sdt::workloads
