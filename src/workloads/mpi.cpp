#include "workloads/mpi.hpp"

#include <cassert>

namespace sdt::workloads {

namespace {

/// Fixed cost of a barrier release (models the tree sync latency).
constexpr TimeNs kBarrierLatency = usToNs(1.0);

}  // namespace

std::int64_t Workload::totalSendBytes() const {
  std::int64_t sum = 0;
  for (const Program& p : perRank) {
    for (const Op& op : p) {
      if (op.kind == Op::Kind::kSend) sum += op.bytesOrNs;
    }
  }
  return sum;
}

std::int64_t Workload::totalComputeNs() const {
  std::int64_t sum = 0;
  for (const Program& p : perRank) {
    for (const Op& op : p) {
      if (op.kind == Op::Kind::kCompute) sum += op.bytesOrNs;
    }
  }
  return sum;
}

MpiRuntime::MpiRuntime(sim::Simulator& sim, sim::TransportManager& transport,
                       std::vector<int> rankToHost, int vc)
    : sim_(&sim), transport_(&transport), rankToHost_(std::move(rankToHost)), vc_(vc) {}

void MpiRuntime::run(Workload workload) {
  workload_ = std::move(workload);
  assert(workload_.numRanks() == numRanks());
  states_.assign(static_cast<std::size_t>(numRanks()), RankState{});
  finishedRanks_ = 0;
  barrierWaiting_ = 0;
  for (int r = 0; r < numRanks(); ++r) {
    // Each rank's program executes entirely on its host's shard.
    sim_->scheduleOn(rankShard(r), 0, [this, r]() { advance(r); });
  }
}

int MpiRuntime::rankShard(int rank) const {
  return transport_->network().hostShard(rankToHost_[rank]);
}

void MpiRuntime::noteFinished(TimeNs rankFinishTime) {
  ++finishedRanks_;
  completionTime_ = std::max(completionTime_, rankFinishTime);
  if (finishedRanks_ == numRanks() && onFinished_) onFinished_();
}

void MpiRuntime::noteBarrier() {
  ++barrierWaiting_;
  if (barrierWaiting_ == numRanks()) releaseBarrier();
}

void MpiRuntime::advance(int rank) {
  RankState& st = states_[rank];
  const Program& program = workload_.perRank[rank];
  while (!st.done) {
    if (st.pc >= program.size()) {
      st.done = true;
      const TimeNs t = sim_->now();
      if (sim_->numShards() == 1 || sim_->currentShard() == 0) {
        noteFinished(t);
      } else {
        sim_->scheduleOn(0, sim_->crossDelay(0, 0), [this, t]() { noteFinished(t); });
      }
      return;
    }
    const Op& op = program[st.pc];
    switch (op.kind) {
      case Op::Kind::kCompute: {
        ++st.pc;
        if (op.bytesOrNs > 0) {
          sim_->schedule(op.bytesOrNs, [this, rank]() { advance(rank); });
          return;
        }
        break;  // zero-cost compute: fall through to next op
      }
      case Op::Kind::kSend: {
        ++st.pc;
        const int dst = op.peer;
        const int tag = op.tag;
        assert(dst >= 0 && dst < numRanks() && dst != rank);
        messagesSent_.fetch_add(1, std::memory_order_relaxed);
        transport_->sendMessage(
            rankToHost_[rank], rankToHost_[dst], op.bytesOrNs, vc_,
            [this, dst, rank, tag](std::uint64_t, TimeNs) {
              onMessageArrived(dst, rank, tag);
            });
        break;  // eager send: keep executing
      }
      case Op::Kind::kRecv: {
        // Match against the mailbox (exact src or wildcard).
        auto& mailbox = st.mailbox;
        auto matchIt = mailbox.end();
        if (op.peer >= 0) {
          matchIt = mailbox.find({op.peer, op.tag});
          if (matchIt != mailbox.end() && matchIt->second == 0) matchIt = mailbox.end();
        } else {
          for (auto it = mailbox.begin(); it != mailbox.end(); ++it) {
            if (it->first.second == op.tag && it->second > 0) {
              matchIt = it;
              break;
            }
          }
        }
        if (matchIt != mailbox.end()) {
          --matchIt->second;
          ++st.pc;
          break;
        }
        st.blockedOnRecv = true;
        st.wantSrc = op.peer;
        st.wantTag = op.tag;
        return;
      }
      case Op::Kind::kBarrier: {
        st.inBarrier = true;
        if (sim_->numShards() == 1 || sim_->currentShard() == 0) {
          noteBarrier();
        } else {
          sim_->scheduleOn(0, sim_->crossDelay(0, 0), [this]() { noteBarrier(); });
        }
        return;
      }
    }
  }
}

void MpiRuntime::onMessageArrived(int dstRank, int srcRank, int tag) {
  RankState& st = states_[dstRank];
  if (st.blockedOnRecv && (st.wantSrc < 0 || st.wantSrc == srcRank) && st.wantTag == tag) {
    st.blockedOnRecv = false;
    ++st.pc;
    advance(dstRank);
    return;
  }
  ++st.mailbox[{srcRank, tag}];
}

void MpiRuntime::releaseBarrier() {
  barrierWaiting_ = 0;
  if (sim_->numShards() == 1) {
    // Legacy schedule: one release event advancing every rank in order.
    sim_->schedule(kBarrierLatency, [this]() {
      for (int r = 0; r < numRanks(); ++r) {
        RankState& st = states_[r];
        if (st.inBarrier) {
          st.inBarrier = false;
          ++st.pc;
          advance(r);
        }
      }
    });
    return;
  }
  // Sharded: fan one release event out to each rank's own shard. Every rank
  // is quiescent inside the barrier (its notification to shard 0 happened
  // before this), so touching its state from the release event is safe.
  for (int r = 0; r < numRanks(); ++r) {
    const int shard = rankShard(r);
    sim_->scheduleOn(shard, sim_->crossDelay(shard, kBarrierLatency), [this, r]() {
      RankState& st = states_[r];
      if (st.inBarrier) {
        st.inBarrier = false;
        ++st.pc;
        advance(r);
      }
    });
  }
}

}  // namespace sdt::workloads
