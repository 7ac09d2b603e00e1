#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
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

/// The radix bucket of a pending event at `when` > `base` >= 0: the highest
/// bit in which the two times differ.
int bucketOf(Time when, Time base) {
  return std::bit_width(static_cast<std::uint64_t>(when ^ base)) - 1;
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
  // Destroy pending closures without running them — queued events and any
  // mail still in an outbox alike.
  for (Shard& shard : shards_) {
    const auto destroyList = [&shard](std::uint32_t idx) {
      for (; idx != kNoSlot; idx = shard.nodes[idx].next) {
        Slot& s = shard.slotAt(idx);
        s.dispatch(s, SlotOp::kDestroyOnly, nullptr);
      }
    };
    destroyList(shard.ready.head);
    for (std::uint64_t m = shard.occupied; m != 0; m &= m - 1) {
      destroyList(shard.buckets[std::countr_zero(m)].list.head);
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

void Simulator::pastEvent(int shard, Time when, Time last) {
  std::fprintf(stderr,
               "FATAL: sim shard %d: event scheduled at %lld ns, before the "
               "shard's last event at %lld ns.\n",
               shard, static_cast<long long>(when), static_cast<long long>(last));
  std::abort();
}

std::uint32_t Simulator::acquireSlot(Shard& shard) {
  if (shard.freeHead == kNoSlot) {
    const auto base = static_cast<std::uint32_t>(shard.chunks.size() * kChunkSlots);
    assert(base + kChunkSlots <= kSlotMask + 1 && "event arena exhausted");
    shard.chunks.push_back(std::make_unique<Slot[]>(kChunkSlots));
    shard.nodes.resize(shard.chunks.size() * kChunkSlots);
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

void Simulator::push(Shard& shard, Time when, std::uint64_t key) {
  if (when < shard.now) [[unlikely]] {
    pastEvent(static_cast<int>(&shard - shards_.data()), when, shard.now);
  }
  const Event ev{when, key};
  const std::uint32_t idx = keySlot(key);
  Node& node = shard.nodes[idx];
  node.ev = ev;
  List& ready = shard.ready;
  if (when != shard.now) {
    append(shard, bucketOf(when, shard.now), idx, ev);
  } else if (ready.head == kNoSlot || shard.nodes[ready.tail].ev.key < key) {
    pushBack(shard, ready, idx);
  } else {
    // A lower key than the run's last can only come from another sender;
    // it goes to its place in key order.
    std::uint32_t* link = &ready.head;
    while (shard.nodes[*link].ev.key < key) link = &shard.nodes[*link].next;
    node.next = *link;
    *link = idx;
  }
}

void Simulator::pushBack(Shard& shard, List& list, std::uint32_t idx) {
  shard.nodes[idx].next = kNoSlot;
  if (list.head == kNoSlot) {
    list.head = idx;
  } else {
    shard.nodes[list.tail].next = idx;
  }
  list.tail = idx;
}

void Simulator::append(Shard& shard, int b, std::uint32_t idx, const Event& ev) {
  Bucket& bucket = shard.buckets[b];
  if (bucket.list.head == kNoSlot) {
    shard.occupied |= 1ULL << b;
    bucket.min = ev;
  } else if (later(bucket.min, ev)) {
    bucket.min = ev;
  }
  pushBack(shard, bucket.list, idx);
}

void Simulator::refill(Shard& shard) {
  const int b = std::countr_zero(shard.occupied);
  Bucket& bucket = shard.buckets[b];
  const Time base = bucket.min.when;
  std::uint32_t idx = bucket.list.head;
  bucket.list = List{};
  shard.occupied &= shard.occupied - 1;
  shard.now = base;
  // Every other event in the bucket shares its bits above b with `base`, so
  // it lands in a strictly lower bucket. The ones at `base` arrive in push
  // order, which is key order whenever one sender shard pushed them all.
  List& ready = shard.ready;
  bool sorted = true;
  std::uint64_t lastKey = 0;
  while (idx != kNoSlot) {
    const Node node = shard.nodes[idx];
    if (node.ev.when != base) {
      append(shard, bucketOf(node.ev.when, base), idx, node.ev);
    } else {
      sorted = sorted && lastKey <= node.ev.key;
      lastKey = node.ev.key;
      pushBack(shard, ready, idx);
    }
    idx = node.next;
  }
  if (sorted) return;
  std::vector<std::uint64_t>& keys = shard.sortKeys;
  keys.clear();
  for (idx = ready.head; idx != kNoSlot; idx = shard.nodes[idx].next) {
    keys.push_back(shard.nodes[idx].ev.key);
  }
  std::sort(keys.begin(), keys.end());
  ready = List{};
  for (const std::uint64_t key : keys) pushBack(shard, ready, keySlot(key));
}

const Simulator::Event* Simulator::peek(const Shard& shard) {
  if (shard.ready.head != kNoSlot) return &shard.nodes[shard.ready.head].ev;
  if (shard.occupied == 0) return nullptr;
  return &shard.buckets[std::countr_zero(shard.occupied)].min;
}

Simulator::Event Simulator::pop(Shard& shard) {
  if (shard.ready.head == kNoSlot) refill(shard);
  const Node& node = shard.nodes[shard.ready.head];
  shard.ready.head = node.next;
  return node.ev;
}

void Simulator::dispatchItem(Shard& shard, int shardIdx, const Event& top) {
  // pop() already advanced shard.now to top.when.
  ++shard.processed;
  ExecCtx& ctx = tlsCtx();
  ctx.sim = this;
  ctx.shard = shardIdx;
  // The slot stays acquired while the closure executes, so nested schedule()
  // calls can never recycle the buffer under the running closure.
  const std::uint32_t idx = keySlot(top.key);
  Slot& s = shard.slotAt(idx);
  s.dispatch(s, SlotOp::kRunAndDestroy, nullptr);
  releaseSlot(shard, idx);
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
    for (const Event* top; (top = peek(sh)) != nullptr && top->when <= deadline;) {
      dispatchItem(sh, 0, pop(sh));
    }
  } else {
    // K-way merge in global (when, shard, seq) order — the canonical
    // serial-K ordering the parallel windows must reproduce.
    for (;;) {
      int best = -1;
      const Event* bestTop = nullptr;
      for (int s = 0; s < k; ++s) {
        const Event* top = peek(shards_[s]);
        if (top != nullptr && (bestTop == nullptr || later(*bestTop, *top))) {
          best = s;
          bestTop = top;
        }
      }
      if (bestTop == nullptr || bestTop->when > deadline) break;
      Shard& sh = shards_[best];
      dispatchItem(sh, best, pop(sh));
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
    const Event* next = peek(sh);
    shardMin_[shard] = next == nullptr ? kInfTime : next->when;
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
    for (const Event* top; (top = peek(sh)) != nullptr && top->when < horizon;) {
      dispatchItem(sh, shard, pop(sh));
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
    if (s.ready.head != kNoSlot || s.occupied != 0) return false;
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
