// Discrete-event simulation core, sharded.
//
// The paper's evaluation baseline is a self-built event-driven simulator
// combining BookSim and SST/Macro features (§VI-A2); this is our equivalent.
// Historically single-threaded; it now supports conservative (YAWNS-style)
// parallelism *inside* one run: model objects are partitioned into shards,
// each shard owns a private slot arena + monotone radix queue + FIFO
// sequence space, and shards execute concurrently in barrier-synchronized
// windows whose width is the engine lookahead (the minimum cross-shard
// latency the model guarantees — see crossDelay()). Cross-shard events
// travel through per-shard-pair mailboxes drained at window boundaries.
//
// Determinism contract (the whole point of the design):
//   - Every event carries the key (when, senderShard, senderSeq), where the
//     sender is the shard whose event scheduled it (top-level schedules
//     adopt the destination shard) and senderSeq is a per-shard monotone
//     counter bumped on *every* schedule call from that shard. Keys are
//     totally ordered and assigned identically no matter how many worker
//     threads run, because each shard replays its own events in key order.
//   - Serial mode (workers == 1) executes the global key order via a K-way
//     merge over the shard queues. Parallel mode (workers > 1) executes each
//     shard's local key order inside lookahead windows; with model state
//     disjoint per shard and cross-shard delays >= lookahead, the two modes
//     are bit-identical at fixed K. With K == 1 the key layout collapses to
//     the legacy (when, seq) engine exactly, bit for bit.
//   - lookahead == 0 (a degenerate horizon, e.g. zero-latency cross-shard
//     links) disables windows: the run falls back to the serial merge loop
//     (lockstep), never deadlocks.
//
// Hot-path layout per shard: an index-stable chunked slot arena with
// free-list reuse and small-buffer-optimized inline closures, and a monotone
// radix queue (Ahuja, Mehlhorn, Orlin and Tarjan's radix heap) over it. The
// queue's base is the shard's `now`; a pending event sits in bucket b when
// bit b is the highest bit in which its time differs from `now`, and the
// events at exactly `now` wait in a key-ordered FIFO run that pops in O(1).
// Its lists are threaded through one record per arena slot, so its storage
// grows with the arena and never with the spread of pending times.
// Steady-state scheduling does zero heap allocations. The default-constructed
// engine reads SDT_SHARDS / SDT_SIM_WORKERS so existing call sites (testbed,
// tests, benches) opt into sharding without code changes;
// testbed::SweepRunner still parallelizes across engines as before — the two
// compose.
#pragma once

#include <array>
#include <atomic>
#include <barrier>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace sdt::sim {

using Time = TimeNs;

class Simulator {
 public:
  // -- Event-key bit budget (explicit: per-shard seq spaces shrank it) ------
  /// Low bits of a key word address the destination arena slot.
  static constexpr unsigned kSlotBits = 24;
  /// Middle bits: per-sender-shard FIFO sequence number. 2^34 schedule calls
  /// per shard per engine instance (~30 min of one shard sustaining 10M
  /// schedules/s) — checked at every push, not assumed.
  static constexpr unsigned kSeqBits = 34;
  /// High bits: the sender shard id.
  static constexpr unsigned kShardBits = 6;
  static_assert(kSlotBits + kSeqBits + kShardBits == 64, "key must fill one word");
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeqPerShard = 1ULL << kSeqBits;
  static constexpr int kMaxShards = 1 << kShardBits;

  /// Canonical event-ordering key: (when, shard, seq) compares as (when,
  /// packKey) because shard occupies the high bits. Slot bits never decide
  /// an ordering ((shard, seq) is unique), they just ride along. With
  /// shard == 0 this is exactly the legacy seq<<kSlotBits|slot layout.
  [[nodiscard]] static constexpr std::uint64_t packKey(int shard, std::uint64_t seq,
                                                       std::uint32_t slot) {
    return (static_cast<std::uint64_t>(shard) << (kSeqBits + kSlotBits)) |
           (seq << kSlotBits) | slot;
  }
  [[nodiscard]] static constexpr int keyShard(std::uint64_t key) {
    return static_cast<int>(key >> (kSeqBits + kSlotBits));
  }
  [[nodiscard]] static constexpr std::uint64_t keySeq(std::uint64_t key) {
    return (key >> kSlotBits) & (kMaxSeqPerShard - 1);
  }
  [[nodiscard]] static constexpr std::uint32_t keySlot(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }

  /// Shard/worker counts from SDT_SHARDS / SDT_SIM_WORKERS (both default 1).
  Simulator();
  /// Explicit topology-independent configuration: `shards` event domains,
  /// run by `workers` threads (workers > 1 means one thread per shard;
  /// workers <= 1 means the deterministic serial merge loop).
  explicit Simulator(int shards, int workers = 1);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Environment defaults used by the default constructor (bench reporting).
  [[nodiscard]] static int envShards();
  [[nodiscard]] static int envWorkers();

  [[nodiscard]] Time now() const {
    const ExecCtx& ctx = tlsCtx();
    return ctx.sim == this ? shards_[ctx.shard].now : globalNow_;
  }
  [[nodiscard]] int numShards() const { return static_cast<int>(shards_.size()); }
  /// Shard of the currently executing event (0 outside any event — the
  /// pre-run/top-level context is treated as shard 0).
  [[nodiscard]] int currentShard() const {
    const ExecCtx& ctx = tlsCtx();
    return ctx.sim == this ? ctx.shard : 0;
  }

  /// Conservative horizon: every cross-shard event must be scheduled at
  /// least this far in the future (crossDelay() enforces it model-side).
  /// 0 disables parallel windows (serial lockstep fallback).
  void setLookahead(Time lookahead) {
    assert(lookahead >= 0);
    lookahead_ = lookahead;
  }
  [[nodiscard]] Time lookahead() const { return lookahead_; }

  /// Pad `delay` so an event sent from the current shard to `destShard`
  /// respects the lookahead horizon. Same-shard delays pass through
  /// untouched, so a 1-shard engine is unaffected. The padding is a pure
  /// function of (currentShard, destShard, delay): serial and parallel runs
  /// of the same K apply it identically, which is what keeps them
  /// bit-identical.
  [[nodiscard]] Time crossDelay(int destShard, Time delay) const {
    if (destShard == currentShard()) return delay;
    return delay < lookahead_ ? lookahead_ : delay;
  }

  /// Schedule `fn` at now() + delay (delay >= 0) on the current shard.
  template <typename F>
  void schedule(Time delay, F&& fn) {
    const int shard = currentShard();
    scheduleAtOn(shard, now() + delay, std::forward<F>(fn));
  }

  /// Schedule onto a specific shard. Cross-shard calls during a parallel
  /// window must land at or beyond the window end — schedule through
  /// crossDelay() to guarantee it.
  template <typename F>
  void scheduleOn(int shard, Time delay, F&& fn) {
    scheduleAtOn(shard, now() + delay, std::forward<F>(fn));
  }

  /// Schedule onto `shard` at absolute time `when`. A time before that
  /// shard's last event aborts the run, in every build: the queue's buckets
  /// are relative to it.
  template <typename F>
  void scheduleAtOn(int shard, Time when, F&& fn) {
    assert(shard >= 0 && shard < numShards());
    const ExecCtx& ctx = tlsCtx();
    const int sender = ctx.sim == this ? ctx.shard : shard;
    Shard& src = shards_[sender];
    if (src.nextSeq >= kMaxSeqPerShard) seqOverflow(sender);
    const std::uint64_t keyHi = packKey(sender, src.nextSeq++, 0);
    if (shard != sender) ++src.mailed;
    if (parallelActive_ && shard != sender) {
      assert(when >= windowEnd_.load(std::memory_order_relaxed) &&
             "cross-shard event inside the lookahead window (missing crossDelay?)");
      Mail& mail = src.outbox[shard].emplace_back();
      mail.when = when;
      mail.keyHi = keyHi;
      constructClosure(mail.slot, std::forward<F>(fn));
    } else {
      Shard& dst = shards_[shard];
      const std::uint32_t idx = acquireSlot(dst);
      constructClosure(dst.slotAt(idx), std::forward<F>(fn));
      push(dst, when, keyHi | idx);
    }
  }

  /// Permanently pin this engine to the serial merge loop, even when
  /// `workers > 1`. Called by control-plane components (ControlChannel,
  /// FaultInjector) whose handlers mutate state owned by other shards —
  /// the K-shard key space (and thus determinism at fixed K) is unchanged,
  /// only the worker threads are disabled.
  void requireSerial() { serialOnly_ = true; }
  [[nodiscard]] bool serialRequired() const { return serialOnly_; }

  /// Run until the queue drains. Returns final time.
  Time run();

  /// Run until simulated time `deadline` (events at exactly `deadline` run).
  Time runUntil(Time deadline);

  [[nodiscard]] std::uint64_t eventsProcessed() const;
  /// Events executed by one shard (perf introspection / obs collector).
  [[nodiscard]] std::uint64_t shardEvents(int shard) const {
    return shards_[shard].processed;
  }
  [[nodiscard]] bool empty() const;

  /// Arena capacity high-water mark (slots ever allocated, summed over
  /// shards); perf introspection.
  [[nodiscard]] std::size_t arenaCapacity() const;

  // -- Parallel-run statistics ----------------------------------------------
  /// Barrier windows executed by parallel runs (0 for serial runs).
  [[nodiscard]] std::uint64_t barrierWindows() const { return windows_; }
  /// Mean lookahead-window width in ns (0 when no window ran).
  [[nodiscard]] double avgWindowNs() const {
    return windows_ == 0 ? 0.0
                         : static_cast<double>(windowWidthTotal_) /
                               static_cast<double>(windows_);
  }
  /// Events that crossed a shard boundary through the mailboxes.
  [[nodiscard]] std::uint64_t crossShardEvents() const;

  /// Test-only: forge a shard's next sequence number to exercise the
  /// overflow boundary without scheduling 2^34 events.
  void debugSetNextSeq(int shard, std::uint64_t seq) { shards_[shard].nextSeq = seq; }

 private:
  /// Inline closure storage. Sized so the data plane's largest closure
  /// (a Packet by value + `this` + port ids, 96 bytes today) stays off the
  /// heap while a Slot fills exactly two cache lines.
  static constexpr std::size_t kInlineBytes = 112;
  static constexpr std::size_t kChunkSlots = 256;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// What the slot's type-erased dispatcher should do; a single fused
  /// function pointer replaces separate invoke/destroy/relocate thunks so
  /// the hot path pays one indirect call per event, not two.
  enum class SlotOp : std::uint8_t {
    kRunAndDestroy,  ///< runOne(): execute the closure, then destroy it
    kDestroyOnly,    ///< ~Simulator(): discard a never-run pending closure
    kMoveTo,         ///< mailbox drain: relocate the closure into arg (Slot*)
  };

  struct Slot {
    void (*dispatch)(Slot&, SlotOp, void*) = nullptr;
    std::uint32_t nextFree = kNoSlot;
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };
  static_assert(sizeof(Slot) == 128, "a Slot should fill two cache lines");

  /// One cross-shard event parked between windows: its full ordering key
  /// (minus the destination slot, assigned at drain) plus the closure,
  /// stored exactly like an arena slot so the same dispatcher relocates it.
  struct Mail {
    Time when = 0;
    std::uint64_t keyHi = 0;
    Slot slot;
  };

  /// What a pending event is ordered by.
  struct Event {
    Time when = 0;
    std::uint64_t key = 0;  ///< packKey(shard, seq, slot); breaks when-ties
  };

  /// A pending event's queue record, at its arena slot's index.
  struct Node {
    Event ev;
    std::uint32_t next = kNoSlot;  ///< next slot in the same bucket or run
  };

  /// A FIFO list of slots threaded through Shard::nodes.
  struct List {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  /// One radix bucket. `min` is kept on every append, so a peek never walks.
  struct Bucket {
    List list;
    Event min;
  };
  /// Times are non-negative, so `when ^ now` has at most 63 significant bits.
  static constexpr int kBuckets = 63;

  /// Everything one shard owns. Only its worker thread touches any of it
  /// during a parallel window (outboxes are drained by the *destination*
  /// across a barrier, which orders the accesses).
  struct Shard {
    std::vector<std::unique_ptr<Slot[]>> chunks;  ///< index-stable arena
    std::vector<Node> nodes;                      ///< one per arena slot
    std::uint32_t freeHead = kNoSlot;
    /// The radix base: the time of the shard's last pop. Every pending
    /// event is at or after it.
    Time now = 0;
    List ready;  ///< the events at exactly `now`, in key order
    std::uint64_t occupied = 0;  ///< bit b set: buckets[b] is non-empty
    std::array<Bucket, kBuckets> buckets;
    std::vector<std::uint64_t> sortKeys;  ///< scratch for an unsorted refill
    std::uint64_t nextSeq = 0;
    std::uint64_t processed = 0;
    std::uint64_t mailed = 0;  ///< cross-shard events sent
    /// outbox[d]: events for shard d produced this window (deque: Mail
    /// closures must never relocate behind the dispatcher's back).
    std::vector<std::deque<Mail>> outbox;

    [[nodiscard]] Slot& slotAt(std::uint32_t idx) {
      return chunks[idx / kChunkSlots][idx % kChunkSlots];
    }
  };

  /// Which (engine, shard) the current thread is executing an event for.
  struct ExecCtx {
    const Simulator* sim = nullptr;
    int shard = 0;
  };
  static ExecCtx& tlsCtx();

  /// True when `a` fires after `b` — the exact ordering the engine promises.
  /// (shard, seq) pairs are unique, so comparing the combined key word is
  /// decided by shard-then-seq among same-time events.
  [[nodiscard]] static bool later(const Event& a, const Event& b) {
    return a.when > b.when || (a.when == b.when && a.key > b.key);
  }

  template <typename F>
  static void constructClosure(Slot& s, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(fn));
      s.dispatch = [](Slot& slot, SlotOp op, void* arg) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(slot.buf));
        if (op == SlotOp::kRunAndDestroy) {
          (*f)();
        } else if (op == SlotOp::kMoveTo) {
          Slot& dst = *static_cast<Slot*>(arg);
          ::new (static_cast<void*>(dst.buf)) Fn(std::move(*f));
          dst.dispatch = slot.dispatch;
        }
        f->~Fn();
      };
    } else {
      // Oversized closure: spill to the heap, park the pointer in buf.
      Fn* f = new Fn(std::forward<F>(fn));
      std::memcpy(s.buf, &f, sizeof(f));
      s.dispatch = [](Slot& slot, SlotOp op, void* arg) {
        Fn* f;
        std::memcpy(&f, slot.buf, sizeof(f));
        if (op == SlotOp::kRunAndDestroy) {
          (*f)();
          delete f;
        } else if (op == SlotOp::kDestroyOnly) {
          delete f;
        } else {
          // Relocation = handing over the pointer.
          Slot& dst = *static_cast<Slot*>(arg);
          std::memcpy(dst.buf, slot.buf, sizeof(f));
          dst.dispatch = slot.dispatch;
        }
      };
    }
  }

  [[noreturn]] static void seqOverflow(int shard);
  [[noreturn]] static void pastEvent(int shard, Time when, Time last);

  std::uint32_t acquireSlot(Shard& shard);
  void releaseSlot(Shard& shard, std::uint32_t idx);
  void push(Shard& shard, Time when, std::uint64_t key);
  /// Append slot `idx` at the tail of `list`.
  static void pushBack(Shard& shard, List& list, std::uint32_t idx);
  /// Append slot `idx`, whose record holds `ev`, to bucket `b`.
  static void append(Shard& shard, int b, std::uint32_t idx, const Event& ev);
  /// Advance `now` to the lowest bucket's least time, moving that bucket's
  /// events into `ready` (the ones at exactly `now`) or into lower buckets.
  static void refill(Shard& shard);
  /// The shard's least pending event, nullptr when it has none. A peek never
  /// moves `now`, so a later push may still land before the event it shows.
  [[nodiscard]] static const Event* peek(const Shard& shard);
  /// Remove and return the shard's least pending event (there must be one).
  static Event pop(Shard& shard);
  /// Execute one event on `shard` (the caller already popped `top`).
  void dispatchItem(Shard& shard, int shardIdx, const Event& top);

  /// Pull every mail addressed to `shard` into its queue (destination-side).
  void drainInbox(int shard);

  Time runSerial(Time deadline);          // K==1 fast path / K-way merge
  Time runParallel(Time deadline);        // YAWNS barrier windows
  void workerLoop(int shard, Time deadline, std::barrier<>& barrier);

  std::vector<Shard> shards_;
  int workers_ = 1;
  Time lookahead_ = kDefaultLookahead;
  Time globalNow_ = 0;  ///< committed time outside any event context

  // Parallel-run coordination (valid only inside runParallel). windowEnd_
  // is atomic because every worker stores the (identical) horizon before
  // running its slice; relaxed is enough since the value is consensus, not
  // communication.
  bool parallelActive_ = false;
  bool serialOnly_ = false;
  std::atomic<Time> windowEnd_{0};
  std::vector<Time> shardMin_;  ///< per-shard next-event time, published at B1
  std::uint64_t windows_ = 0;
  std::uint64_t windowWidthTotal_ = 0;

 public:
  /// Default conservative horizon (ns). The data plane pads cross-shard
  /// hops up to this (crossDelay), trading a little modeled latency at
  /// shard boundaries for usable window width; it stays safely below the
  /// minimum host-to-host transport latency (2x NIC + a switch traversal,
  /// ~1.3 us; sim/network.hpp static_asserts it), which cross-shard
  /// state-transfer events rely on.
  static constexpr Time kDefaultLookahead = 500;
};

}  // namespace sdt::sim
