// Tests: discrete-event core, including the sharded parallel engine.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace sdt::sim {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&]() { order.push_back(3); });
  sim.schedule(10, [&]() { order.push_back(1); });
  sim.schedule(20, [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.eventsProcessed(), 3u);
}

TEST(Simulator, FifoForSameTimestamp) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(7, [&, i]() { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  Time innerTime = -1;
  sim.schedule(5, [&]() {
    sim.schedule(10, [&]() { innerTime = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(innerTime, 15);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&]() { ++fired; });
  sim.schedule(100, [&]() { ++fired; });
  sim.runUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ZeroDelayRunsNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule(0, [&]() { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, KeyPackingBoundary) {
  // K=1 collapses to the legacy seq<<kSlotBits|slot layout, bit for bit.
  static_assert(Simulator::packKey(0, 1, 0) == (1ULL << Simulator::kSlotBits));
  static_assert(Simulator::packKey(0, 5, 7) == ((5ULL << Simulator::kSlotBits) | 7));
  // Round-trip at the field maxima — the seq boundary the overflow check guards.
  constexpr std::uint64_t maxSeq = Simulator::kMaxSeqPerShard - 1;
  constexpr auto maxSlot = static_cast<std::uint32_t>(Simulator::kSlotMask);
  constexpr int maxShard = Simulator::kMaxShards - 1;
  constexpr std::uint64_t key = Simulator::packKey(maxShard, maxSeq, maxSlot);
  static_assert(Simulator::keyShard(key) == maxShard);
  static_assert(Simulator::keySeq(key) == maxSeq);
  static_assert(Simulator::keySlot(key) == maxSlot);
  // Field dominance: seq outranks slot, shard outranks seq — so the packed
  // word compares as (shard, seq) and slot bits never decide an ordering.
  static_assert(Simulator::packKey(0, 1, 0) > Simulator::packKey(0, 0, maxSlot));
  static_assert(Simulator::packKey(1, 0, 0) > Simulator::packKey(0, maxSeq, maxSlot));
}

TEST(SimulatorDeathTest, SeqOverflowAbortsWithClearMessage) {
  Simulator sim;
  sim.debugSetNextSeq(0, Simulator::kMaxSeqPerShard - 1);
  sim.schedule(1, []() {});  // consumes the final sequence number — still fine
  EXPECT_DEATH(sim.schedule(1, []() {}), "exhausted its 34-bit event sequence space");
}

TEST(Simulator, ScheduleOnRunsOnTargetShard) {
  Simulator sim(4, 1);
  std::vector<int> shards;
  for (int s = 3; s >= 0; --s) {
    sim.scheduleOn(s, 10, [&, s]() {
      EXPECT_EQ(sim.currentShard(), s);
      shards.push_back(s);
    });
  }
  sim.run();
  // Same-time events run in global (shard, seq) order, not submission order.
  EXPECT_EQ(shards, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.eventsProcessed(), 4u);
}

TEST(Simulator, CrossShardSameTimestampGlobalOrder) {
  Simulator sim(3, 1);
  std::vector<int> order;
  sim.scheduleOn(2, 5, [&]() { order.push_back(20); });
  sim.scheduleOn(0, 5, [&]() { order.push_back(0); });
  sim.scheduleOn(2, 5, [&]() { order.push_back(21); });
  sim.scheduleOn(1, 5, [&]() { order.push_back(10); });
  sim.run();
  // Shard is the primary same-time tie-break, per-shard FIFO the secondary.
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 21}));
}

TEST(Simulator, ZeroLookaheadFallsBackToLockstep) {
  // A zero-latency cross-shard link collapses the safe horizon to nothing;
  // the engine must degrade to the serial merge loop, not deadlock.
  Simulator sim(4, 4);
  sim.setLookahead(0);
  int hops = 0;
  std::function<void(int)> hop = [&](int shard) {
    ++hops;
    if (hops >= 64) return;
    const int next = (shard + 1) % 4;
    sim.scheduleOn(next, sim.crossDelay(next, 0), [&, next]() { hop(next); });
  };
  sim.scheduleOn(0, 0, [&]() { hop(0); });
  sim.run();
  EXPECT_EQ(hops, 64);
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.barrierWindows(), 0u);  // no parallel windows ran
}

TEST(Simulator, EventExactlyOnBarrierBoundaryRunsNextWindow) {
  // An event landing exactly at the horizon (gmin + lookahead) belongs to
  // the *next* window (the in-window test is strictly `when < horizon`) and
  // must never be lost or run early.
  Simulator sim(2, 2);
  const Time la = sim.lookahead();
  std::vector<Time> fired;  // only shard 1 appends — no cross-thread access
  sim.scheduleOn(0, 0, [&]() {
    sim.scheduleOn(1, sim.crossDelay(1, la), [&]() { fired.push_back(sim.now()); });
  });
  sim.scheduleOn(1, 0, [&]() { fired.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 0);
  EXPECT_EQ(fired[1], la);
  EXPECT_EQ(sim.barrierWindows(), 2u);
  EXPECT_EQ(sim.crossShardEvents(), 1u);
}

TEST(Simulator, ParallelMatchesSerialPerShardTraces) {
  // A deterministic branching cascade across 4 shards, run on the serial
  // merge loop and again with 4 workers: each shard's ordered execution
  // trace must be identical (the global interleaving across shards is
  // unordered by design; per-shard order and all state are the contract).
  constexpr int kShards = 4;
  using Trace = std::vector<std::pair<Time, std::uint64_t>>;
  const auto runTrace = [](int workers) {
    Simulator sim(kShards, workers);
    std::array<Trace, kShards> perShard;  // each touched only by its shard
    std::function<void(std::uint64_t, int)> node = [&](std::uint64_t id, int depth) {
      perShard[static_cast<std::size_t>(sim.currentShard())].emplace_back(sim.now(), id);
      if (depth >= 6) return;
      for (std::uint64_t c = 0; c < 2; ++c) {
        const std::uint64_t childId = id * 2 + c + 1;
        const int dest = static_cast<int>(childId % kShards);
        const Time delay = sim.crossDelay(dest, static_cast<Time>(childId % 3) * 100);
        sim.scheduleOn(dest, delay, [&, childId, depth]() { node(childId, depth + 1); });
      }
    };
    sim.scheduleOn(0, 0, [&]() { node(0, 0); });
    sim.run();
    EXPECT_EQ(sim.eventsProcessed(), (1u << 7) - 1);  // full binary tree, depth 6
    return perShard;
  };
  const auto serial = runTrace(1);
  const auto parallel = runTrace(kShards);
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(parallel[s], serial[s]) << "shard " << s << " diverged";
    EXPECT_FALSE(serial[s].empty());
  }
}

}  // namespace
}  // namespace sdt::sim
