// Tests: OpenFlow flow-table semantics (priority matching, capacity,
// counters) and the switch pipeline.
#include <gtest/gtest.h>

#include "openflow/flow_table.hpp"
#include "openflow/of_switch.hpp"

namespace sdt::openflow {
namespace {

PacketHeader header(int inPort, std::uint32_t dst, std::uint8_t tc = 0) {
  PacketHeader h;
  h.inPort = inPort;
  h.srcAddr = 1;
  h.dstAddr = dst;
  h.trafficClass = tc;
  return h;
}

TEST(Match, WildcardMatchesEverything) {
  Match m;
  EXPECT_TRUE(m.matches(header(3, 7)));
  EXPECT_EQ(m.specificity(), 0);
}

TEST(Match, ExactFields) {
  Match m;
  m.inPort = 2;
  m.dstAddr = 9;
  EXPECT_TRUE(m.matches(header(2, 9)));
  EXPECT_FALSE(m.matches(header(3, 9)));
  EXPECT_FALSE(m.matches(header(2, 8)));
  EXPECT_EQ(m.specificity(), 2);
}

TEST(Match, TrafficClass) {
  Match m;
  m.trafficClass = 1;
  EXPECT_TRUE(m.matches(header(0, 0, 1)));
  EXPECT_FALSE(m.matches(header(0, 0, 0)));
}

TEST(FlowTable, PriorityOrder) {
  FlowTable t(16);
  FlowEntry low;
  low.priority = 1;
  low.outPort = 1;
  FlowEntry high;
  high.priority = 10;
  high.match.dstAddr = 5;
  high.outPort = 2;
  ASSERT_TRUE(t.add(low).ok());
  ASSERT_TRUE(t.add(high).ok());
  const FlowEntry* e = t.lookup(header(0, 5));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->outPort, 2);  // high priority wins
  e = t.lookup(header(0, 6));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->outPort, 1);  // falls through to wildcard
}

TEST(FlowTable, StableOrderWithinPriority) {
  FlowTable t(16);
  FlowEntry first;
  first.priority = 5;
  first.outPort = 1;
  FlowEntry second;
  second.priority = 5;
  second.outPort = 2;
  ASSERT_TRUE(t.add(first).ok());
  ASSERT_TRUE(t.add(second).ok());
  EXPECT_EQ(t.lookup(header(0, 0))->outPort, 1);
}

TEST(FlowTable, CapacityEnforced) {
  FlowTable t(2);
  EXPECT_TRUE(t.add(FlowEntry{}).ok());
  EXPECT_TRUE(t.add(FlowEntry{}).ok());
  EXPECT_TRUE(t.full());
  EXPECT_FALSE(t.add(FlowEntry{}).ok());
}

TEST(FlowTable, RemoveByCookie) {
  FlowTable t(8);
  FlowEntry a;
  a.cookie = 7;
  FlowEntry b;
  b.cookie = 8;
  ASSERT_TRUE(t.add(a).ok());
  ASSERT_TRUE(t.add(b).ok());
  ASSERT_TRUE(t.add(a).ok());
  EXPECT_EQ(t.removeByCookie(7), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowTable, MissReturnsNull) {
  FlowTable t(8);
  FlowEntry e;
  e.match.dstAddr = 1;
  ASSERT_TRUE(t.add(e).ok());
  EXPECT_EQ(t.lookup(header(0, 2)), nullptr);
}

TEST(FlowTable, CountersUpdateOnlyOnLookupAndCount) {
  FlowTable t(8);
  FlowEntry e;
  ASSERT_TRUE(t.add(e).ok());
  t.lookupAndCount(header(0, 0), 100);
  t.lookupAndCount(header(0, 0), 50);
  EXPECT_NE(t.lookup(header(0, 0)), nullptr);  // const peek: matches, no counting
  EXPECT_EQ(t.entries()[0].packetCount, 2u);
  EXPECT_EQ(t.entries()[0].byteCount, 150u);
}

TEST(Switch, PipelineOutputAndCounters) {
  Switch sw(0, 4);
  FlowEntry e;
  e.match.inPort = 1;
  e.outPort = 2;
  ASSERT_TRUE(sw.table().add(e).ok());
  const ForwardDecision d = sw.process(header(1, 0), 500);
  EXPECT_TRUE(d.matched);
  EXPECT_EQ(d.outPort, 2);
  EXPECT_EQ(sw.table().entries()[0].packetCount, 1u);
  EXPECT_EQ(sw.table().entries()[0].byteCount, 500u);
}

TEST(Switch, TableMissDrops) {
  Switch sw(0, 4);
  FlowEntry other;
  other.match.dstAddr = 1;
  other.outPort = 2;
  ASSERT_TRUE(sw.table().add(other).ok());
  const ForwardDecision d = sw.process(header(0, 9), 100);
  EXPECT_FALSE(d.matched);
  EXPECT_LT(d.outPort, 0);
  EXPECT_EQ(sw.table().entries()[0].packetCount, 0u);  // a miss counts nowhere
}

TEST(Switch, ExplicitDropAction) {
  Switch sw(0, 4);
  FlowEntry e;  // no output: a matched drop
  ASSERT_TRUE(sw.table().add(e).ok());
  const ForwardDecision d = sw.process(header(0, 0), 100);
  EXPECT_TRUE(d.matched);
  EXPECT_LT(d.outPort, 0);
  EXPECT_EQ(sw.table().entries()[0].packetCount, 1u);
}

TEST(Switch, SetVcAction) {
  Switch sw(0, 4);
  FlowEntry e;
  e.setVc = 1;
  e.outPort = 3;
  ASSERT_TRUE(sw.table().add(e).ok());
  const ForwardDecision d = sw.process(header(0, 0), 100);
  EXPECT_EQ(d.vc, 1);
  EXPECT_EQ(d.outPort, 3);
}

}  // namespace
}  // namespace sdt::openflow
