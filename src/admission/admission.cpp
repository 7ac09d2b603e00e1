#include "admission/admission.hpp"

#include <algorithm>
#include <cassert>

namespace sdt::admission {

namespace {

/// Queue-depth sampling period per shard.
constexpr TimeNs kSampleInterval = usToNs(100.0);
/// Egress occupancy that counts as pressure 1.0. Sits below the lossy drop
/// cap so admission reacts before the fabric starts dropping.
constexpr std::int64_t kQueueHighWatermarkBytes = 128 * kKiB;
/// Pressure below which hosts refill at full line rate.
constexpr double kPressureLowWater = 0.25;
/// EWMA weight the broker gives each new global sample: the broadcast
/// pressure is smoothed = alpha * sample + (1 - alpha) * smoothed. A
/// synchronized incast round fills a queue for a few microseconds and
/// drains; without smoothing one unlucky sample reads as sustained overload
/// and sheds traffic a healthy fabric could carry.
constexpr double kPressureSmoothing = 0.35;
/// Refill-rate fraction reached at pressure 1.0 (never throttle to zero: a
/// trickle keeps gold traffic moving and the signal loop alive).
constexpr double kCreditRateFractionFloor = 0.05;
/// Bucket capacity (burst allowance) in credit units (~bytes at weight 1).
constexpr std::int64_t kCreditBurstBytes = 64 * kKiB;
/// Modeled propagation of a pressure signal leg (sampler->broker and
/// broker->shard). Padded up to the engine lookahead when crossing shards.
constexpr TimeNs kSignalDelay = usToNs(1.0);

}  // namespace

const char* priorityName(Priority cls) {
  switch (cls) {
    case Priority::kGold: return "gold";
    case Priority::kSilver: return "silver";
    case Priority::kBronze: return "bronze";
  }
  return "?";
}

AdmissionController::AdmissionController(sim::Simulator& sim, sim::Network& net,
                                         Policy policy)
    : sim_(&sim), net_(&net), enabled_(policy.enabled) {
  lanes_.resize(static_cast<std::size_t>(sim.numShards()));
  brokerShardFill_.assign(static_cast<std::size_t>(sim.numShards()), 0.0);
  buckets_.resize(static_cast<std::size_t>(net.numHosts()));
  for (HostBucket& b : buckets_) {
    b.credits = static_cast<double>(kCreditBurstBytes);
  }
}

void AdmissionController::start(TimeNs until) {
  const TimeNs first = std::min<TimeNs>(kSampleInterval, until);
  for (int s = 0; s < sim_->numShards(); ++s) {
    // Top-level scheduleOn adopts the destination shard as sender, so the
    // arm itself is shard-local and needs no lookahead padding.
    sim_->scheduleOn(s, first, [this, s, until]() { sampleShard(s, until); });
  }
}

double AdmissionController::pressure() const {
  return lanes_[static_cast<std::size_t>(sim_->currentShard())].pressure;
}

double AdmissionController::rateFraction(double pressure) const {
  if (pressure <= kPressureLowWater) return 1.0;
  if (pressure >= 1.0) return kCreditRateFractionFloor;
  const double span = 1.0 - kPressureLowWater;
  const double t = (pressure - kPressureLowWater) / span;
  return 1.0 - t * (1.0 - kCreditRateFractionFloor);
}

void AdmissionController::settle(HostBucket& bucket, double pressure, int host) {
  const TimeNs now = sim_->now();
  if (now > bucket.settledAt) {
    const double refill =
        net_->hostLinkSpeed(host).bytesIn(now - bucket.settledAt) *
        rateFraction(pressure);
    bucket.credits = std::min(bucket.credits + refill,
                              static_cast<double>(kCreditBurstBytes));
  }
  bucket.settledAt = now;
}

Decision AdmissionController::request(int srcHost, Priority cls, std::int64_t bytes) {
  assert(srcHost >= 0 && srcHost < net_->numHosts());
  assert(bytes > 0);
  const int shard = net_->hostShard(srcHost);
  assert(sim_->currentShard() == shard &&
         "admission request must run on the source host's shard");
  ShardLane& lane = lanes_[static_cast<std::size_t>(shard)];
  const auto ci = static_cast<std::size_t>(priorityIndex(cls));
  ClassCounters& cc = lane.counters[ci];
  ++cc.requested;

  Decision decision = Decision::kAdmit;
  if (enabled_) {
    const ClassPolicy& cp = kClasses[ci];
    if (lane.pressure >= cp.shedAtPressure) {
      decision = Decision::kShed;
    } else {
      HostBucket& bucket = buckets_[static_cast<std::size_t>(srcHost)];
      settle(bucket, lane.pressure, srcHost);
      const double charge = static_cast<double>(bytes) / cp.utilityWeight;
      if (bucket.credits >= charge) {
        bucket.credits -= charge;
      } else {
        decision = Decision::kDefer;
      }
    }
  }

  switch (decision) {
    case Decision::kAdmit:
      ++cc.admitted;
      cc.admittedBytes += bytes;
      break;
    case Decision::kDefer:
      ++cc.deferred;
      break;
    case Decision::kShed:
      ++cc.shed;
      cc.shedBytes += bytes;
      break;
  }
  return decision;
}

void AdmissionController::sampleShard(int shard, TimeNs until) {
  ShardLane& lane = lanes_[static_cast<std::size_t>(shard)];
  ++lane.samples;
  std::int64_t maxBytes = 0;
  if (!watchPorts_.empty()) {
    // Tenant-scoped sampling: only the slice's own queues feed pressure, so
    // a co-tenant's congestion never throttles this controller's hosts.
    for (const auto& [sw, p] : watchPorts_) {
      if (net_->switchShard(sw) != shard) continue;
      maxBytes = std::max(maxBytes, net_->switchEgressBytes(sw, p));
    }
  } else {
    for (int sw = 0; sw < net_->numSwitches(); ++sw) {
      if (net_->switchShard(sw) != shard) continue;
      const int ports = net_->switchPortCount(sw);
      for (int p = 0; p < ports; ++p) {
        maxBytes = std::max(maxBytes, net_->switchEgressBytes(sw, p));
      }
    }
  }
  const double fill = static_cast<double>(maxBytes) /
                      static_cast<double>(kQueueHighWatermarkBytes);
  sim_->scheduleOn(0, sim_->crossDelay(0, kSignalDelay),
                   [this, shard, fill]() { brokerUpdate(shard, fill); });
  if (sim_->now() + kSampleInterval <= until) {
    sim_->scheduleOn(shard, kSampleInterval,
                     [this, shard, until]() { sampleShard(shard, until); });
  }
}

void AdmissionController::brokerUpdate(int shard, double fill) {
  assert(sim_->currentShard() == 0);
  brokerShardFill_[static_cast<std::size_t>(shard)] = fill;
  const double raw =
      *std::max_element(brokerShardFill_.begin(), brokerShardFill_.end());
  smoothedPressure_ =
      kPressureSmoothing * raw + (1.0 - kPressureSmoothing) * smoothedPressure_;
  const double global = smoothedPressure_;
  peakPressure_ = std::max(peakPressure_, global);
  for (int d = 0; d < sim_->numShards(); ++d) {
    sim_->scheduleOn(d, sim_->crossDelay(d, kSignalDelay), [this, d, global]() {
      lanes_[static_cast<std::size_t>(d)].pressure = global;
    });
  }
}

AdmissionController::ClassCounters AdmissionController::classCounters(
    Priority cls) const {
  const auto ci = static_cast<std::size_t>(priorityIndex(cls));
  ClassCounters out;
  for (const ShardLane& lane : lanes_) {
    const ClassCounters& cc = lane.counters[ci];
    out.requested += cc.requested;
    out.admitted += cc.admitted;
    out.deferred += cc.deferred;
    out.shed += cc.shed;
    out.admittedBytes += cc.admittedBytes;
    out.shedBytes += cc.shedBytes;
  }
  return out;
}

std::uint64_t AdmissionController::samplesTaken() const {
  std::uint64_t n = 0;
  for (const ShardLane& lane : lanes_) n += lane.samples;
  return n;
}

}  // namespace sdt::admission
