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
  h.dstAddr = dst;
  h.trafficClass = tc;
  return h;
}

/// The one rule shape a table holds: an exact (in_port, dst) key.
FlowEntry rule(int inPort, std::uint32_t dst, int outPort = -1) {
  FlowEntry e;
  e.match.inPort = inPort;
  e.match.dstAddr = dst;
  e.outPort = outPort;
  return e;
}

TEST(Match, ExactFields) {
  Match m;
  m.inPort = 2;
  m.dstAddr = 9;
  EXPECT_TRUE(m.matches(header(2, 9)));
  EXPECT_FALSE(m.matches(header(3, 9)));
  EXPECT_FALSE(m.matches(header(2, 8)));
}

TEST(Match, TrafficClass) {
  Match m;
  m.trafficClass = 1;
  EXPECT_TRUE(m.matches(header(0, 0, 1)));
  EXPECT_FALSE(m.matches(header(0, 0, 0)));
}

TEST(FlowTable, PriorityOrder) {
  FlowTable t(16);
  FlowEntry low = rule(0, 5, 1);
  low.priority = 1;
  FlowEntry high = rule(0, 5, 2);
  high.priority = 10;
  high.match.trafficClass = 1;
  ASSERT_TRUE(t.add(low).ok());
  ASSERT_TRUE(t.add(high).ok());
  const FlowEntry* e = t.lookup(header(0, 5, 1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->outPort, 2);  // high priority wins
  e = t.lookup(header(0, 5, 0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->outPort, 1);  // falls through to the VC-wildcard rule
}

TEST(FlowTable, StableOrderWithinPriority) {
  FlowTable t(16);
  FlowEntry first = rule(0, 0, 1);
  first.priority = 5;
  FlowEntry second = rule(0, 0, 2);
  second.priority = 5;
  ASSERT_TRUE(t.add(first).ok());
  ASSERT_TRUE(t.add(second).ok());
  EXPECT_EQ(t.lookup(header(0, 0))->outPort, 1);
}

TEST(FlowTable, CapacityEnforced) {
  FlowTable t(2);
  EXPECT_TRUE(t.add(rule(0, 0)).ok());
  EXPECT_TRUE(t.add(rule(0, 1)).ok());
  EXPECT_TRUE(t.full());
  EXPECT_FALSE(t.add(rule(0, 2)).ok());
}

TEST(FlowTable, RejectsARuleWithoutInPortOrDst) {
  FlowTable t(8);
  FlowEntry noInPort = rule(0, 4, 1);
  noInPort.match.inPort.reset();
  FlowEntry noDst = rule(3, 0, 1);
  noDst.match.dstAddr.reset();
  FlowEntry onlyVc;
  onlyVc.match.trafficClass = 1;
  for (const FlowEntry& e : {noInPort, noDst, onlyVc}) {
    const Status<Error> s = t.add(e);
    ASSERT_FALSE(s.ok()) << e.match.describe();
    EXPECT_NE(s.error().message.find("in_port and destination"), std::string::npos)
        << s.error().message;
  }
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.addsTotal(), 0u);
  // A refused rule would have matched these headers; nothing does.
  EXPECT_EQ(t.lookup(header(0, 4)), nullptr);
  EXPECT_EQ(t.lookup(header(3, 0)), nullptr);
  EXPECT_EQ(t.lookup(header(0, 0, 1)), nullptr);
}

TEST(FlowTable, MissReturnsNull) {
  FlowTable t(8);
  ASSERT_TRUE(t.add(rule(0, 1)).ok());
  EXPECT_EQ(t.lookup(header(0, 2)), nullptr);
  EXPECT_EQ(t.lookup(header(1, 1)), nullptr);
}

TEST(FlowTable, CountersUpdateOnlyOnLookupAndCount) {
  FlowTable t(8);
  ASSERT_TRUE(t.add(rule(0, 0)).ok());
  t.lookupAndCount(header(0, 0));
  t.lookupAndCount(header(0, 0));
  EXPECT_NE(t.lookup(header(0, 0)), nullptr);  // const peek: matches, no counting
  EXPECT_EQ(t.entries()[0].packetCount, 2u);
}

TEST(Switch, PipelineOutputAndCounters) {
  Switch sw(0, 4);
  ASSERT_TRUE(sw.table().add(rule(1, 0, 2)).ok());
  const ForwardDecision d = sw.process(header(1, 0));
  EXPECT_TRUE(d.matched);
  EXPECT_EQ(d.outPort, 2);
  EXPECT_EQ(sw.table().entries()[0].packetCount, 1u);
}

TEST(Switch, TableMissDrops) {
  Switch sw(0, 4);
  ASSERT_TRUE(sw.table().add(rule(0, 1, 2)).ok());
  const ForwardDecision d = sw.process(header(0, 9));
  EXPECT_FALSE(d.matched);
  EXPECT_LT(d.outPort, 0);
  EXPECT_EQ(sw.table().entries()[0].packetCount, 0u);  // a miss counts nowhere
}

TEST(Switch, ExplicitDropAction) {
  Switch sw(0, 4);
  ASSERT_TRUE(sw.table().add(rule(0, 0)).ok());  // no output: a matched drop
  const ForwardDecision d = sw.process(header(0, 0));
  EXPECT_TRUE(d.matched);
  EXPECT_LT(d.outPort, 0);
  EXPECT_EQ(sw.table().entries()[0].packetCount, 1u);
}

TEST(Switch, SetVcAction) {
  Switch sw(0, 4);
  FlowEntry e = rule(0, 0, 3);
  e.setVc = 1;
  ASSERT_TRUE(sw.table().add(e).ok());
  const ForwardDecision d = sw.process(header(0, 0));
  EXPECT_EQ(d.vc, 1);
  EXPECT_EQ(d.outPort, 3);
}

}  // namespace
}  // namespace sdt::openflow
