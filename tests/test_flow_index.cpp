// Differential tests for the FlowTable exact-match index: the indexed
// lookup path must return exactly the entry a pure priority-ordered linear
// scan would, on both controller-compiled tables (the (inPort, dstAddr)
// shape the index is built for) and adversarial synthetic tables full of
// wildcards, priority ties, epoch-stamped rules, and mid-stream mutations.
// They also pin the table order add() produces.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "openflow/flow_table.hpp"
#include "routing/shortest_path.hpp"
#include "topo/generators.hpp"

namespace sdt::openflow {
namespace {

/// The pre-index semantics, verbatim: entries are kept sorted by descending
/// priority with stable insertion order, so the first match wins. A
/// stamped header only sees rules of its own epoch or of epoch 0.
const FlowEntry* referenceLookup(const FlowTable& table, const PacketHeader& h) {
  for (const FlowEntry& e : table.entries()) {
    const std::uint32_t ruleEpoch = cookieEpoch(e.cookie);
    const bool epochOk = h.epoch == 0 || ruleEpoch == 0 || ruleEpoch == h.epoch;
    if (epochOk && e.match.matches(h)) return &e;
  }
  return nullptr;
}

/// add() keeps the table sorted by descending priority and stable in
/// insertion order: exactly a stable sort of the insertion sequence.
void expectInsertionOrder(const FlowTable& table, std::vector<FlowEntry> inserted) {
  std::stable_sort(inserted.begin(), inserted.end(),
                   [](const FlowEntry& a, const FlowEntry& b) { return a.priority > b.priority; });
  ASSERT_EQ(table.entries().size(), inserted.size());
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    ASSERT_TRUE(sameRule(table.entries()[i], inserted[i]))
        << "position " << i << ": table has priority " << table.entries()[i].priority
        << " cookie " << table.entries()[i].cookie << ", expected priority "
        << inserted[i].priority << " cookie " << inserted[i].cookie;
  }
}

/// Build a header that matches `e` on every concrete field, with random
/// values elsewhere; optionally perturb one field afterwards so roughly half
/// the probes hit a different (or no) entry.
PacketHeader headerNear(const FlowEntry& e, Rng& rng, bool perturb) {
  PacketHeader h;
  h.inPort = e.match.inPort.value_or(static_cast<int>(rng.below(16)));
  h.srcAddr = e.match.srcAddr.value_or(static_cast<std::uint32_t>(rng.below(32)));
  h.dstAddr = e.match.dstAddr.value_or(static_cast<std::uint32_t>(rng.below(32)));
  h.srcPort = e.match.srcPort.value_or(static_cast<std::uint16_t>(rng.below(8)));
  h.dstPort = e.match.dstPort.value_or(static_cast<std::uint16_t>(rng.below(8)));
  h.protocol = e.match.protocol.value_or(static_cast<std::uint8_t>(rng.below(4)));
  h.trafficClass =
      e.match.trafficClass.value_or(static_cast<std::uint8_t>(rng.below(8)));
  if (perturb) {
    switch (rng.below(4)) {
      case 0: h.inPort = static_cast<int>(rng.below(16)); break;
      case 1: h.dstAddr = static_cast<std::uint32_t>(rng.below(32)); break;
      case 2: h.srcAddr = static_cast<std::uint32_t>(rng.below(32)); break;
      default: h.trafficClass = static_cast<std::uint8_t>(rng.below(8)); break;
    }
  }
  return h;
}

/// Probe `table` near random entries; each header is stamped with an epoch
/// drawn from `stamps` (unstamped when it is empty).
void checkDifferential(const FlowTable& table, Rng& rng, int probes,
                       const std::vector<std::uint32_t>& stamps = {}) {
  ASSERT_GT(table.size(), 0u);
  for (int i = 0; i < probes; ++i) {
    const FlowEntry& seed =
        table.entries()[rng.below(table.entries().size())];
    PacketHeader h = headerNear(seed, rng, rng.below(2) == 0);
    if (!stamps.empty()) h.epoch = stamps[rng.below(stamps.size())];
    const FlowEntry* expect = referenceLookup(table, h);
    const FlowEntry* got = table.lookup(h);
    ASSERT_EQ(got, expect) << "probe " << i << " diverged: indexed lookup "
                           << (got ? got->match.describe() : "miss")
                           << " vs scan "
                           << (expect ? expect->match.describe() : "miss");
  }
}

FlowEntry randomEntry(Rng& rng, std::uint64_t cookie) {
  FlowEntry e;
  e.priority = static_cast<int>(rng.below(8));  // force plenty of ties
  e.cookie = cookie;
  // Each field independently wildcarded; small value domains so entries
  // overlap and shadow each other.
  if (rng.below(4) != 0) e.match.inPort = static_cast<int>(rng.below(16));
  if (rng.below(4) != 0) e.match.dstAddr = static_cast<std::uint32_t>(rng.below(32));
  if (rng.below(8) == 0) e.match.srcAddr = static_cast<std::uint32_t>(rng.below(32));
  if (rng.below(8) == 0) e.match.srcPort = static_cast<std::uint16_t>(rng.below(8));
  if (rng.below(8) == 0) e.match.dstPort = static_cast<std::uint16_t>(rng.below(8));
  if (rng.below(8) == 0) e.match.protocol = static_cast<std::uint8_t>(rng.below(4));
  if (rng.below(6) == 0)
    e.match.trafficClass = static_cast<std::uint8_t>(rng.below(8));
  e.actions.push_back(Action::output(static_cast<int>(rng.below(16))));
  return e;
}

TEST(FlowIndex, MatchesLinearScanOnRandomizedTables) {
  Rng rng(0xF10D1F10Du);
  for (int trial = 0; trial < 8; ++trial) {
    FlowTable table(4096);
    std::vector<FlowEntry> inserted;
    const std::size_t n = 32 + rng.below(480);
    for (std::size_t i = 0; i < n; ++i) {
      inserted.push_back(randomEntry(rng, i));
      ASSERT_TRUE(table.add(inserted.back()).ok());
    }
    expectInsertionOrder(table, inserted);
    checkDifferential(table, rng, 2000);  // 16k probes across the trials
  }

  // The compiled-SDT shape: a large table of one priority. A higher
  // priority goes in front of all of it, an equal one behind all of it,
  // and a lower one at the very end.
  FlowTable table(4096);
  std::vector<FlowEntry> inserted;
  for (std::size_t i = 0; i < 2048; ++i) {
    inserted.push_back(randomEntry(rng, i));
    inserted.back().priority = 100;
    ASSERT_TRUE(table.add(inserted.back()).ok());
  }
  for (const int priority : {200, 100, 50, 100, 200, 150}) {
    inserted.push_back(randomEntry(rng, inserted.size()));
    inserted.back().priority = priority;
    ASSERT_TRUE(table.add(inserted.back()).ok());
  }
  EXPECT_EQ(table.entries().front().priority, 200);
  EXPECT_EQ(table.entries().front().cookie, 2048u);
  EXPECT_EQ(table.entries().back().priority, 50);
  expectInsertionOrder(table, inserted);
  checkDifferential(table, rng, 2000);
}

TEST(FlowIndex, EpochGateMatchesReferenceOnTwoEpochTables) {
  // What a ReconfigTransaction leaves on a switch between install and GC:
  // the epoch-N rules, the epoch-N+1 rules that replace them (same matches,
  // new actions), and a few epoch-0 rules that match every stamp.
  Rng rng(0xE90C4E90u);
  for (const std::uint32_t epoch : {1u, 41u, makeScopedEpoch(3, 9)}) {
    FlowTable table(4096);
    std::vector<FlowEntry> inserted;
    const std::size_t n = 64 + rng.below(400);
    for (std::size_t i = 0; i < n; ++i) {
      FlowEntry e = randomEntry(rng, 0);
      e.cookie = makeCookie(rng.below(8) == 0 ? 0 : epoch, static_cast<std::uint32_t>(i));
      inserted.push_back(e);
      ASSERT_TRUE(table.add(std::move(e)).ok());
    }
    for (std::size_t i = 0; i < n; ++i) {
      FlowEntry e = inserted[i];
      if (cookieEpoch(e.cookie) == 0) continue;
      e.cookie = makeCookie(epoch + 1, static_cast<std::uint32_t>(i));
      e.actions = {Action::output(static_cast<int>(rng.below(16)))};
      inserted.push_back(e);
      ASSERT_TRUE(table.add(std::move(e)).ok());
    }
    ASSERT_GT(table.countEpoch(epoch), 0u);
    ASSERT_EQ(table.countEpoch(epoch), table.countEpoch(epoch + 1));
    expectInsertionOrder(table, inserted);
    checkDifferential(table, rng, 3000, {0, epoch, epoch + 1});
  }
}

TEST(FlowIndex, MatchesLinearScanOnControllerCompiledTables) {
  // The real deal: tables produced by LinkProjector + routing compilation,
  // where every entry matches (inPort, dstAddr) — the indexed fast path.
  const topo::Topology topo = topo::makeFatTree(4);
  const routing::ShortestPathRouting routing(topo);
  auto plant = projection::planPlant({&topo}, {.numSwitches = 3});
  ASSERT_TRUE(plant.ok()) << plant.error().message;
  const controller::SdtController ctl(std::move(plant).value());
  auto deployment = ctl.deploy(topo, routing);
  ASSERT_TRUE(deployment.ok()) << deployment.error().message;

  Rng rng(0xC0117011u);
  int probes = 0;
  for (const auto& sw : deployment.value().switches) {
    if (sw->table().size() == 0) continue;
    checkDifferential(sw->table(), rng, 4000);
    probes += 4000;
  }
  EXPECT_GE(probes, 10000) << "not enough populated tables to be meaningful";
}

TEST(FlowIndex, SurvivesMutationBetweenLookups) {
  Rng rng(0xDEADBEA7u);
  FlowTable table(4096);
  for (std::size_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(table.add(randomEntry(rng, i % 16)).ok());
  }
  checkDifferential(table, rng, 500);
  // Interleave removals / inserts with differential probes: every mutation
  // must invalidate the index.
  for (int round = 0; round < 12; ++round) {
    if (rng.below(2) == 0) {
      table.removeByCookie(rng.below(16));
    } else {
      ASSERT_TRUE(table.add(randomEntry(rng, rng.below(16))).ok());
    }
    if (table.size() > 0) checkDifferential(table, rng, 500);
  }
  table.clear();
  PacketHeader any;
  EXPECT_EQ(table.lookup(any), nullptr);
}

TEST(FlowIndex, EagerBuildIndexMatchesLazy) {
  Rng rng(0x5EED5EEDu);
  FlowTable lazy(4096);
  FlowTable eager(4096);
  for (std::uint64_t i = 0; i < 200; ++i) {
    FlowEntry e = randomEntry(rng, i);
    ASSERT_TRUE(lazy.add(e).ok());
    ASSERT_TRUE(eager.add(std::move(e)).ok());
  }
  eager.buildIndex();  // the pre-sharing hook for concurrent readers
  for (int i = 0; i < 2000; ++i) {
    const FlowEntry& seed = lazy.entries()[rng.below(lazy.entries().size())];
    const PacketHeader h = headerNear(seed, rng, rng.below(2) == 0);
    const FlowEntry* a = lazy.lookup(h);
    const FlowEntry* b = eager.lookup(h);
    // Different tables, so compare by position, not pointer.
    const auto pos = [](const FlowTable& t, const FlowEntry* e) {
      return e == nullptr ? -1 : static_cast<long>(e - t.entries().data());
    };
    ASSERT_EQ(pos(lazy, a), pos(eager, b));
  }
}

}  // namespace
}  // namespace sdt::openflow
