// Tests: discrete-event core, including the sharded parallel engine.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
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

// -- The event queue against a reference ordered by (when, shard, seq) -------

/// A seeded workload of event chains. Chain c starts on a top-level schedule
/// and runs `rounds` steps; each step schedules its successor with a delay
/// and target shard drawn from a hash of (seed, chain, round), so every run
/// schedules the same events whatever order the engine runs them in. Most
/// steps keep the Alltoall's lockstep period, so about `chains` events share
/// each timestamp; the rest are delay-0 chains, short jitter and jumps of up
/// to 2^40 ns, half of them scheduled at an absolute time.
struct ChainWorkload {
  std::uint64_t seed = 1;
  int shards = 1;
  int chains = 1000;
  int rounds = 12;
  /// Pad cross-shard delays with crossDelay() (parallel windows need it);
  /// unpadded, other shards push events at exactly a shard's `now`.
  bool padCross = false;

  struct Next {
    int shard;
    Time delay;
    bool absolute;
  };
  [[nodiscard]] Next next(int chain, int round, int shard) const {
    const std::uint64_t h = detail::mixSeed(seed, static_cast<std::uint64_t>(chain * 1024 + round));
    const std::uint64_t kind = h % 20;
    Time delay = 6500;  // the lockstep period
    if (kind < 3) delay = 0;
    if (kind >= 3 && kind < 6) delay = 1 + static_cast<Time>((h >> 8) % 100);
    if (kind == 6) delay = static_cast<Time>((h >> 8) & ((1ULL << ((h >> 50) % 41)) - 1));
    const auto k = static_cast<std::uint64_t>(shards);
    const int target = (h >> 5) % 4 == 0 ? static_cast<int>((h >> 12) % k) : shard;
    return {target, delay, ((h >> 7) & 1) != 0};
  }
  [[nodiscard]] int rootShard(int chain) const { return chain % shards; }
  [[nodiscard]] Time rootTime(int chain) const { return chain % 5 == 0 ? 0 : 4000; }
};

/// One executed event: (time, shard, chain, round).
using Fired = std::tuple<Time, int, int, int>;

/// Run the workload on the engine. `global` gets the execution order on a
/// serial engine; `perShard[s]` gets shard s's order either way.
void runChains(const ChainWorkload& w, int workers, std::vector<Fired>* global,
               std::vector<std::vector<Fired>>& perShard) {
  Simulator sim(w.shards, workers);
  perShard.assign(static_cast<std::size_t>(w.shards), {});
  std::function<void(int, int)> step = [&](int chain, int round) {
    const int shard = sim.currentShard();
    const Fired fired{sim.now(), shard, chain, round};
    perShard[static_cast<std::size_t>(shard)].push_back(fired);
    if (global != nullptr) global->push_back(fired);
    if (round + 1 >= w.rounds) return;
    const ChainWorkload::Next n = w.next(chain, round, shard);
    const Time delay = w.padCross ? sim.crossDelay(n.shard, n.delay) : n.delay;
    auto fn = [&step, chain, round]() { step(chain, round + 1); };
    if (n.absolute) {
      sim.scheduleAtOn(n.shard, sim.now() + delay, fn);
    } else {
      sim.scheduleOn(n.shard, delay, fn);
    }
  };
  for (int c = 0; c < w.chains; ++c) {
    sim.scheduleAtOn(w.rootShard(c), w.rootTime(c), [&step, c]() { step(c, 0); });
  }
  sim.run();
  EXPECT_TRUE(sim.empty());
}

/// The same workload on a reference queue: a std::set ordered by (when,
/// sender shard, sender seq), where the sender is the shard whose event
/// scheduled it (a top-level schedule adopts its target) and its seq counts
/// that shard's schedule calls.
std::vector<Fired> referenceChains(const ChainWorkload& w, Time lookahead) {
  struct Pending {
    Time when;
    int sender;
    std::uint64_t seq;
    int shard;
    int chain;
    int round;
    bool operator<(const Pending& o) const {
      return std::tie(when, sender, seq) < std::tie(o.when, o.sender, o.seq);
    }
  };
  std::set<Pending> queue;
  std::vector<std::uint64_t> nextSeq(static_cast<std::size_t>(w.shards), 0);
  const auto push = [&](Time when, int sender, int shard, int chain, int round) {
    queue.insert({when, sender, nextSeq[static_cast<std::size_t>(sender)]++, shard, chain, round});
  };
  for (int c = 0; c < w.chains; ++c) push(w.rootTime(c), w.rootShard(c), w.rootShard(c), c, 0);
  std::vector<Fired> order;
  while (!queue.empty()) {
    const Pending e = *queue.begin();
    queue.erase(queue.begin());
    order.emplace_back(e.when, e.shard, e.chain, e.round);
    if (e.round + 1 >= w.rounds) continue;
    const ChainWorkload::Next n = w.next(e.chain, e.round, e.shard);
    Time delay = n.delay;
    if (w.padCross && n.shard != e.shard && delay < lookahead) delay = lookahead;
    push(e.when + delay, e.shard, n.shard, e.chain, e.round + 1);
  }
  return order;
}

TEST(SimulatorQueue, SerialOrderMatchesReference) {
  // K = 1 pops in (when, seq) order; K = 2 and 4 merge the shards, and with
  // unpadded cross-shard delays several senders push same-time events onto
  // one shard, so refills arrive out of key order and pushes at exactly a
  // shard's `now` insert into its ready run.
  for (const int shards : {1, 2, 4}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      const ChainWorkload w{.seed = seed, .shards = shards};
      std::vector<Fired> order;
      std::vector<std::vector<Fired>> perShard;
      runChains(w, 1, &order, perShard);
      ASSERT_EQ(order.size(), static_cast<std::size_t>(w.chains * w.rounds));
      EXPECT_TRUE(order == referenceChains(w, 0)) << "K=" << shards << " seed " << seed;
    }
  }
}

TEST(SimulatorQueue, ParallelShardOrderMatchesReference) {
  // 4 shards on 4 workers, cross-shard hops padded by crossDelay(): each
  // shard's own order is the reference order restricted to that shard.
  const ChainWorkload w{.seed = 7, .shards = 4, .chains = 600, .padCross = true};
  const std::vector<Fired> reference = referenceChains(w, Simulator::kDefaultLookahead);
  std::vector<std::vector<Fired>> expected(4);
  for (const Fired& f : reference) expected[static_cast<std::size_t>(std::get<1>(f))].push_back(f);
  std::vector<Fired> serial;
  std::vector<std::vector<Fired>> perShard;
  runChains(w, 1, &serial, perShard);
  EXPECT_TRUE(serial == reference);
  runChains(w, 4, nullptr, perShard);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(perShard[s] == expected[s]) << "shard " << s << " diverged";
  }
}

TEST(SimulatorQueue, TopLevelScheduleAfterRunUntil) {
  for (const Time last : {Time{95}, Time{100}}) {  // the deadline ran an event, or not
    Simulator sim;
    std::vector<std::pair<int, Time>> fired;
    sim.schedule(last, [&]() { fired.emplace_back(0, sim.now()); });
    sim.schedule(101, [&]() { fired.emplace_back(1, sim.now()); });
    sim.schedule(5000, [&]() { fired.emplace_back(2, sim.now()); });
    sim.runUntil(100);
    ASSERT_EQ(sim.now(), 100);
    sim.schedule(1, [&]() { fired.emplace_back(3, sim.now()); });  // same time as 1, later seq
    sim.schedule(0, [&]() { fired.emplace_back(4, sim.now()); });
    sim.scheduleAtOn(0, 100, [&]() { fired.emplace_back(5, sim.now()); });
    sim.run();
    EXPECT_EQ(fired, (std::vector<std::pair<int, Time>>{
                         {0, last}, {4, 100}, {5, 100}, {1, 101}, {3, 101}, {2, 5000}}));
  }
}

TEST(SimulatorQueue, DestroyingPendingClosuresReleasesEachOnce) {
  // Closures too big for a slot's inline buffer live on the heap, so a lost
  // or doubly destroyed pending event shows as a leak or a double free
  // (ASan) and as a wrong use count here.
  const auto token = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> token;
    std::array<char, 256> pad{};
    void operator()() const {}
  };
  {
    Simulator sim;
    sim.schedule(100, Big{token});
    sim.runUntil(100);
    sim.schedule(0, Big{token});       // the ready run
    sim.schedule(0, Big{token});
    sim.schedule(7, Big{token});       // a low bucket
    sim.schedule(1 << 30, Big{token});  // a high bucket
    EXPECT_EQ(token.use_count(), 5);
  }
  EXPECT_EQ(token.use_count(), 1);
  {
    // Parallel: events mailed across shards beyond the deadline are drained
    // into their shard's buckets before the run returns.
    Simulator sim(2, 2);
    for (int s = 0; s < 2; ++s) {
      sim.scheduleOn(s, 0, [&sim, s, token]() {
        sim.scheduleOn(1 - s, sim.crossDelay(1 - s, 5000), Big{token});
        sim.scheduleOn(s, 3000, Big{token});
      });
    }
    sim.runUntil(1000);
    EXPECT_EQ(sim.crossShardEvents(), 2u);
    EXPECT_FALSE(sim.empty());
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorDeathTest, SchedulingBeforeTheShardsLastEventAborts) {
  Simulator sim;
  sim.schedule(100, []() {});
  sim.run();
  EXPECT_DEATH(sim.scheduleAtOn(0, 40, []() {}),
               "event scheduled at 40 ns, before the shard's last event at 100 ns");
}

}  // namespace
}  // namespace sdt::sim
