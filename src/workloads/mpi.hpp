// MPI-like rank runtime over the simulated fabric.
//
// The paper drives its testbed with real MPI applications (HPCG, HPL,
// miniGhost, miniFE, IMB) and feeds its simulator with traces collected from
// them (§VI-A2). We model an application as one Program per rank — a list of
// compute / send / recv / barrier ops — and interpret the programs
// event-driven on top of the RoCE transport (workloads/apps.hpp generates
// the paper's applications as Programs).
//
// Semantics (deliberately simple but sufficient for collective patterns):
//  - kSend is non-blocking (eager); message completion is receiver-side.
//  - kRecv blocks until a matching message (srcRank, tag) has arrived.
//  - kBarrier blocks until every rank reaches it (small fixed sync cost).
//  - kCompute advances the rank's clock without touching the network.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/transport.hpp"

namespace sdt::workloads {

struct Op {
  enum class Kind : std::uint8_t { kCompute, kSend, kRecv, kBarrier };
  Kind kind = Kind::kCompute;
  std::int64_t bytesOrNs = 0;  ///< kCompute: ns; kSend: bytes
  int peer = -1;               ///< kSend: dst rank; kRecv: src rank (-1 = any)
  int tag = 0;

  static Op compute(std::int64_t ns) { return {Kind::kCompute, ns, -1, 0}; }
  static Op send(int dst, std::int64_t bytes, int tag = 0) {
    return {Kind::kSend, bytes, dst, tag};
  }
  static Op recv(int src, int tag = 0) { return {Kind::kRecv, 0, src, tag}; }
  static Op barrier() { return {Kind::kBarrier, 0, -1, 0}; }
};

using Program = std::vector<Op>;

struct Workload {
  std::string name;
  std::vector<Program> perRank;

  [[nodiscard]] int numRanks() const { return static_cast<int>(perRank.size()); }
  /// Total bytes the workload will inject (all sends).
  [[nodiscard]] std::int64_t totalSendBytes() const;
  [[nodiscard]] std::int64_t totalComputeNs() const;
};

class MpiRuntime {
 public:
  /// `rankToHost[r]` is the sim host running rank r (hosts must be distinct).
  MpiRuntime(sim::Simulator& sim, sim::TransportManager& transport,
             std::vector<int> rankToHost, int vc = 0);

  /// Schedule the workload (call once, then Simulator::run()). The runtime
  /// keeps its own copy, so temporaries are fine.
  void run(Workload workload);

  [[nodiscard]] bool finished() const { return finishedRanks_ == numRanks(); }
  /// Simulated completion time (max over ranks); valid once finished().
  [[nodiscard]] TimeNs completionTime() const { return completionTime_; }
  [[nodiscard]] int numRanks() const { return static_cast<int>(rankToHost_.size()); }
  [[nodiscard]] std::int64_t messagesSent() const {
    return messagesSent_.load(std::memory_order_relaxed);
  }

  /// Invoked once when the last rank finishes — e.g. to stop a periodic
  /// NetworkMonitor so Simulator::run() can drain.
  void setOnFinished(std::function<void()> fn) { onFinished_ = std::move(fn); }

 private:
  struct RankState {
    std::size_t pc = 0;
    bool blockedOnRecv = false;
    int wantSrc = -1;
    int wantTag = 0;
    bool inBarrier = false;
    bool done = false;
    /// Arrived-but-unmatched messages: (srcRank, tag) -> count.
    std::map<std::pair<int, int>, int> mailbox;
  };

  void advance(int rank);
  void onMessageArrived(int dstRank, int srcRank, int tag);
  void releaseBarrier();
  // Sharded runs home all cross-rank coordination (finish counting, barrier
  // counting) on shard 0: rank shards send notification events there instead
  // of mutating shared counters. With one shard the notifications collapse to
  // direct calls, preserving the legacy event schedule exactly.
  void noteFinished(TimeNs rankFinishTime);
  void noteBarrier();
  [[nodiscard]] int rankShard(int rank) const;

  sim::Simulator* sim_;
  sim::TransportManager* transport_;
  std::vector<int> rankToHost_;
  int vc_;
  Workload workload_;
  std::vector<RankState> states_;
  int finishedRanks_ = 0;
  int barrierWaiting_ = 0;
  TimeNs completionTime_ = 0;
  std::atomic<std::int64_t> messagesSent_{0};
  std::function<void()> onFinished_;
};

}  // namespace sdt::workloads
