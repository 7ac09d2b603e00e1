#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

namespace sdt::sim {

namespace {
constexpr Time kInfTime = std::numeric_limits<Time>::max();

int envInt(const char* name, int fallback, int lo, int hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const long v = std::strtol(raw, nullptr, 10);
  if (v < lo) return lo;
  if (v > hi) return hi;
  return static_cast<int>(v);
}
}  // namespace

int Simulator::envShards() { return envInt("SDT_SHARDS", 1, 1, kMaxShards); }
int Simulator::envWorkers() { return envInt("SDT_SIM_WORKERS", 1, 1, kMaxShards); }

Simulator::Simulator() : Simulator(envShards(), envWorkers()) {}

Simulator::Simulator(int shards, int workers) {
  if (shards < 1) shards = 1;
  if (shards > kMaxShards) shards = kMaxShards;
  workers_ = std::min(std::max(workers, 1), shards);
  shards_.resize(static_cast<std::size_t>(shards));
  for (Shard& s : shards_) s.outbox.resize(static_cast<std::size_t>(shards));
}

Simulator::~Simulator() {
  // Destroy pending closures without running them — heap entries and any
  // mail still in an outbox alike.
  for (Shard& shard : shards_) {
    for (const HeapItem& item : shard.heap) {
      Slot& s = shard.slotAt(item.slot());
      s.dispatch(s, SlotOp::kDestroyOnly, nullptr);
    }
    for (std::deque<Mail>& box : shard.outbox) {
      for (Mail& mail : box) mail.slot.dispatch(mail.slot, SlotOp::kDestroyOnly, nullptr);
    }
  }
}

Simulator::ExecCtx& Simulator::tlsCtx() {
  static thread_local ExecCtx ctx;
  return ctx;
}

void Simulator::seqOverflow(int shard) {
  std::fprintf(stderr,
               "FATAL: sim shard %d exhausted its %u-bit event sequence space "
               "(2^%u schedule calls). Shard the run wider (SDT_SHARDS) or "
               "split the experiment into shorter runs.\n",
               shard, kSeqBits, kSeqBits);
  std::abort();
}

std::uint32_t Simulator::acquireSlot(Shard& shard) {
  if (shard.freeHead == kNoSlot) {
    const auto base = static_cast<std::uint32_t>(shard.chunks.size() * kChunkSlots);
    assert(base + kChunkSlots <= kSlotMask + 1 && "event arena exhausted");
    shard.chunks.push_back(std::make_unique<Slot[]>(kChunkSlots));
    Slot* chunk = shard.chunks.back().get();
    for (std::uint32_t i = 0; i < kChunkSlots; ++i) {
      chunk[i].nextFree = i + 1 < kChunkSlots ? base + i + 1 : kNoSlot;
    }
    shard.freeHead = base;
  }
  const std::uint32_t idx = shard.freeHead;
  shard.freeHead = shard.slotAt(idx).nextFree;
  return idx;
}

void Simulator::releaseSlot(Shard& shard, std::uint32_t idx) {
  Slot& s = shard.slotAt(idx);
  s.nextFree = shard.freeHead;
  shard.freeHead = idx;
}

void Simulator::push(Shard& shard, Time when, std::uint64_t seqSlot) {
  const HeapItem item{when, seqSlot};
  std::vector<HeapItem>& heap = shard.heap;
  heap.push_back(item);
  // Sift up, moving holes instead of swapping (one store per level).
  std::size_t i = heap.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap[parent], item)) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = item;
}

Simulator::HeapItem Simulator::popTop(Shard& shard) {
  std::vector<HeapItem>& heap = shard.heap;
  const HeapItem top = heap.front();
  const HeapItem last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n == 0) return top;
  // Bottom-up deletion: walk the hole down the min-child path all the way to
  // a leaf (one comparison per level), then bubble the displaced last
  // element back up (O(1) expected, since it usually belongs near a leaf).
  // Roughly halves the comparisons of a textbook sift-down.
  std::size_t hole = 0;
  std::size_t child = 1;
  while (child < n) {
    // Min-child select as arithmetic, not a branch: which child wins is a
    // coin flip the predictor can't learn.
    if (child + 1 < n) {
      child += static_cast<std::size_t>(later(heap[child], heap[child + 1]));
    }
    heap[hole] = heap[child];
    hole = child;
    child = 2 * hole + 1;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!later(heap[parent], last)) break;
    heap[hole] = heap[parent];
    hole = parent;
  }
  heap[hole] = last;
  return top;
}

void Simulator::dispatchItem(Shard& shard, int shardIdx, const HeapItem& top) {
  shard.now = top.when;
  ++shard.processed;
  ExecCtx& ctx = tlsCtx();
  ctx.sim = this;
  ctx.shard = shardIdx;
  // The slot stays acquired while the closure executes, so nested schedule()
  // calls can never recycle the buffer under the running closure.
  Slot& s = shard.slotAt(top.slot());
  s.dispatch(s, SlotOp::kRunAndDestroy, nullptr);
  releaseSlot(shard, top.slot());
}

void Simulator::drainInbox(int shard) {
  Shard& dst = shards_[shard];
  for (Shard& src : shards_) {
    std::deque<Mail>& box = src.outbox[shard];
    for (Mail& mail : box) {
      const std::uint32_t idx = acquireSlot(dst);
      mail.slot.dispatch(mail.slot, SlotOp::kMoveTo, &dst.slotAt(idx));
      push(dst, mail.when, mail.keyHi | idx);
    }
    box.clear();
  }
}

Time Simulator::runSerial(Time deadline) {
  ExecCtx& ctx = tlsCtx();
  const ExecCtx saved = ctx;
  const int k = numShards();
  if (k == 1) {
    // Legacy fast path: one shard, no merge scan.
    Shard& sh = shards_[0];
    while (!sh.heap.empty() && sh.heap.front().when <= deadline) {
      const HeapItem top = popTop(sh);
      dispatchItem(sh, 0, top);
    }
  } else {
    // K-way merge in global (when, shard, seq) order — the canonical
    // serial-K ordering the parallel windows must reproduce.
    for (;;) {
      int best = -1;
      for (int s = 0; s < k; ++s) {
        if (shards_[s].heap.empty()) continue;
        if (best < 0 || later(shards_[best].heap.front(), shards_[s].heap.front())) {
          best = s;
        }
      }
      if (best < 0 || shards_[best].heap.front().when > deadline) break;
      Shard& sh = shards_[best];
      const HeapItem top = popTop(sh);
      dispatchItem(sh, best, top);
    }
  }
  ctx = saved;
  Time maxNow = globalNow_;
  for (const Shard& s : shards_) maxNow = std::max(maxNow, s.now);
  globalNow_ = maxNow;
  return globalNow_;
}

void Simulator::workerLoop(int shard, Time deadline, std::barrier<>& barrier) {
  ExecCtx& ctx = tlsCtx();
  const ExecCtx saved = ctx;
  ctx.sim = this;
  ctx.shard = shard;
  Shard& sh = shards_[shard];
  const int k = numShards();
  for (;;) {
    drainInbox(shard);
    shardMin_[shard] = sh.heap.empty() ? kInfTime : sh.heap.front().when;
    barrier.arrive_and_wait();  // publish barrier: all mins visible
    Time gmin = kInfTime;
    for (int s = 0; s < k; ++s) gmin = std::min(gmin, shardMin_[s]);
    // Every worker evaluates the same exit condition from the same data, so
    // they all leave on the same iteration.
    if (gmin == kInfTime || gmin > deadline) break;
    Time horizon = gmin + lookahead_;
    if (deadline != kInfTime) horizon = std::min(horizon, deadline + 1);
    windowEnd_.store(horizon, std::memory_order_relaxed);
    if (shard == 0) {
      ++windows_;
      windowWidthTotal_ += static_cast<std::uint64_t>(horizon - gmin);
    }
    while (!sh.heap.empty() && sh.heap.front().when < horizon) {
      const HeapItem top = popTop(sh);
      dispatchItem(sh, shard, top);
      // dispatchItem rewrites the tls ctx; within a worker it is already
      // ours, so this is a cheap idempotent store.
    }
    barrier.arrive_and_wait();  // window-end barrier: outboxes now stable
  }
  ctx = saved;
}

Time Simulator::runParallel(Time deadline) {
  const int k = numShards();
  parallelActive_ = true;
  shardMin_.assign(static_cast<std::size_t>(k), kInfTime);
  std::barrier<> barrier(k);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(k - 1));
  for (int s = 1; s < k; ++s) {
    threads.emplace_back([this, s, deadline, &barrier]() { workerLoop(s, deadline, barrier); });
  }
  workerLoop(0, deadline, barrier);
  for (std::thread& t : threads) t.join();
  parallelActive_ = false;
  Time maxNow = globalNow_;
  for (const Shard& s : shards_) maxNow = std::max(maxNow, s.now);
  globalNow_ = maxNow;
  return globalNow_;
}

Time Simulator::run() {
  if (workers_ > 1 && numShards() > 1 && lookahead_ > 0 && !serialOnly_) {
    return runParallel(kInfTime);
  }
  return runSerial(kInfTime);
}

Time Simulator::runUntil(Time deadline) {
  if (workers_ > 1 && numShards() > 1 && lookahead_ > 0 && !serialOnly_) {
    runParallel(deadline);
  } else {
    runSerial(deadline);
  }
  if (globalNow_ < deadline) globalNow_ = deadline;
  return globalNow_;
}

std::uint64_t Simulator::eventsProcessed() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.processed;
  return total;
}

std::uint64_t Simulator::crossShardEvents() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.mailed;
  return total;
}

bool Simulator::empty() const {
  for (const Shard& s : shards_) {
    if (!s.heap.empty()) return false;
    for (const std::deque<Mail>& box : s.outbox) {
      if (!box.empty()) return false;
    }
  }
  return true;
}

std::size_t Simulator::arenaCapacity() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.chunks.size() * kChunkSlots;
  return total;
}

}  // namespace sdt::sim
