// Tests: channel-dependency-graph analysis — Table III's deadlock-avoidance
// column, verified algorithmically, plus a positive control (a routing
// function designed to deadlock must be flagged).
#include <gtest/gtest.h>

#include "routing/adaptive.hpp"
#include "routing/deadlock.hpp"
#include "routing/dragonfly.hpp"
#include "routing/fat_tree.hpp"
#include "routing/mesh_torus.hpp"
#include "routing/shortest_path.hpp"
#include "topo/generators.hpp"

namespace sdt::routing {
namespace {

TEST(Deadlock, FatTreeUpDownNeedsNoVcs) {
  const topo::Topology ft = topo::makeFatTree(4);
  auto algo = FatTreeRouting::create(ft);
  ASSERT_TRUE(algo.ok());
  EXPECT_EQ(algo.value()->numVcs(), 1);  // Table III: "No need"
  const DeadlockReport r = analyzeDeadlock(ft, *algo.value());
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.deadlockFree);
  EXPECT_GT(r.channelsUsed, 0);
}

TEST(Deadlock, DragonflyMinimalWithVcChange) {
  const topo::Topology df = topo::makeDragonfly(4, 9, 2);
  auto algo = DragonflyMinimalRouting::create(df);
  ASSERT_TRUE(algo.ok());
  const DeadlockReport r = analyzeDeadlock(df, *algo.value());
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.deadlockFree);
}

TEST(Deadlock, MeshXyByRouting) {
  const topo::Topology m = topo::makeMesh2D(4, 4);
  auto algo = DimensionOrderRouting::create(m);
  ASSERT_TRUE(algo.ok());
  const DeadlockReport r = analyzeDeadlock(m, *algo.value());
  EXPECT_TRUE(r.deadlockFree);
}

TEST(Deadlock, Mesh3DXyzByRouting) {
  const topo::Topology m = topo::makeMesh3D(3, 3, 3);
  auto algo = DimensionOrderRouting::create(m);
  ASSERT_TRUE(algo.ok());
  EXPECT_TRUE(analyzeDeadlock(m, *algo.value()).deadlockFree);
}

class TorusDeadlockSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TorusDeadlockSweep, DatelineVcsBreakRingCycles) {
  const auto [x, y, z] = GetParam();
  const topo::Topology t =
      z == 1 ? topo::makeTorus2D(x, y) : topo::makeTorus3D(x, y, z);
  auto algo = DimensionOrderRouting::create(t);
  ASSERT_TRUE(algo.ok());
  const DeadlockReport r = analyzeDeadlock(t, *algo.value());
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.deadlockFree) << "cycle of " << r.cycle.size() << " channels";
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusDeadlockSweep,
                         ::testing::Values(std::tuple{4, 4, 1}, std::tuple{5, 5, 1},
                                           std::tuple{4, 4, 4}, std::tuple{3, 3, 3}));

TEST(Deadlock, AdaptiveDragonflyUnionOfModes) {
  // Verify the union CDG of never-detour and always-detour behaviours.
  const topo::Topology df = topo::makeDragonfly(4, 9, 2);
  auto minimalMode = AdaptiveDragonflyRouting::create(df);
  auto valiantMode = AdaptiveDragonflyRouting::create(df);
  ASSERT_TRUE(minimalMode.ok() && valiantMode.ok());
  // The algorithm as the controller deploys it ("dragonfly-adaptive", no
  // congestion oracle): exact report, so a change to the walk shows up.
  const DeadlockReport deployed = analyzeDeadlock(df, *minimalMode.value());
  EXPECT_TRUE(deployed.error.empty()) << deployed.error;
  EXPECT_TRUE(deployed.deadlockFree);
  EXPECT_EQ(deployed.channelsUsed, 288);
  EXPECT_EQ(deployed.dependencyEdges, 432);
  valiantMode.value()->setBias(-1.0);
  valiantMode.value()->setCongestionOracle([](topo::SwitchId, topo::PortId) {
    return 1.0;
  });
  const DeadlockReport r = analyzeDeadlock(
      df, {minimalMode.value().get(), valiantMode.value().get()});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.deadlockFree) << "cycle of " << r.cycle.size() << " channels";
  EXPECT_EQ(r.channelsUsed, 288);
  EXPECT_EQ(r.dependencyEdges, 432);
}

// Positive control: single-VC routing around a ring that always travels
// clockwise has the textbook channel cycle and must be flagged.
class ClockwiseRingRouting : public RoutingAlgorithm {
 public:
  explicit ClockwiseRingRouting(const topo::Topology& topo) : RoutingAlgorithm(topo) {}
  [[nodiscard]] std::string name() const override { return "clockwise-ring"; }
  [[nodiscard]] Result<Hop> nextHop(topo::SwitchId sw, topo::HostId /*dst*/, int vc,
                                    std::uint64_t /*flowHash*/) const override {
    const int n = topo_->numSwitches();
    const topo::SwitchId next = (sw + 1) % n;
    for (const int li : topo_->linksOf(sw)) {
      const topo::Link& link = topo_->link(li);
      const topo::SwitchPort mine = link.a.sw == sw ? link.a : link.b;
      if (link.peerOf(sw).sw == next) return Hop{mine.port, vc};
    }
    return makeError("no clockwise link");
  }
};

TEST(Deadlock, ClockwiseRingIsFlagged) {
  const topo::Topology ring = topo::makeRing(6);
  ClockwiseRingRouting algo(ring);
  const DeadlockReport r = analyzeDeadlock(ring, algo);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.deadlockFree);
  EXPECT_GE(r.cycle.size(), 3u);  // the witness cycle covers the ring
}

TEST(Deadlock, ShortestPathOnRingIsUnsafe) {
  // Dally & Seitz's classic observation: single-VC shortest-path routing on
  // a ring closes a channel cycle (consecutive-hop dependencies cover the
  // whole ring). This is exactly why the torus algorithm needs datelines;
  // the analyzer must flag the naive version.
  const topo::Topology ring = topo::makeRing(6);
  ShortestPathRouting algo(ring);
  const DeadlockReport r = analyzeDeadlock(ring, algo);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.deadlockFree);
  EXPECT_EQ(r.channelsUsed, 12);  // 6 links x 2 directions x 1 VC
  EXPECT_EQ(r.dependencyEdges, 12);
  // The exact witness: channel ids follow discovery order and adjacency is
  // sorted, so the DFS always closes the same cycle (every link a->b).
  const std::vector<Channel> witness{{5, 0, 0}, {0, 0, 0}, {1, 0, 0},
                                     {2, 0, 0}, {3, 0, 0}, {4, 0, 0}};
  EXPECT_EQ(r.cycle, witness);
}

TEST(Deadlock, ShortestPathOnTorusWitnessIsPinned) {
  // Here the witness depends on the order the DFS takes each channel's
  // successors in (ascending channel id), not only on the graph.
  const topo::Topology torus = topo::makeTorus2D(5, 5);
  ShortestPathRouting algo(torus);
  const DeadlockReport r = analyzeDeadlock(torus, algo);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.deadlockFree);
  EXPECT_EQ(r.channelsUsed, 100);
  EXPECT_EQ(r.dependencyEdges, 300);
  const std::vector<Channel> witness{
      {24, 0, 0}, {20, 0, 0}, {21, 0, 0}, {22, 0, 0}, {23, 0, 0}};
  EXPECT_EQ(r.cycle, witness);
}

// Clockwise everywhere except at one switch, which sends every packet out
// of a fixed port; used to probe ports that carry no fabric link.
class BadPortAtOneSwitch : public ClockwiseRingRouting {
 public:
  BadPortAtOneSwitch(const topo::Topology& topo, topo::SwitchId sw, int port)
      : ClockwiseRingRouting(topo), sw_(sw), port_(port) {}
  [[nodiscard]] Result<Hop> nextHop(topo::SwitchId sw, topo::HostId dst, int vc,
                                    std::uint64_t flowHash) const override {
    if (sw == sw_) return Hop{port_, vc};
    return ClockwiseRingRouting::nextHop(sw, dst, vc, flowHash);
  }

 private:
  topo::SwitchId sw_;
  int port_;
};

TEST(Deadlock, HopViaNonFabricPortIsAnError) {
  const topo::Topology ring = topo::makeRing(6);
  const topo::HostId host = ring.hostsOf(2).front();
  // The host port, one past the last port, and a negative port.
  for (const int port : {ring.hostLink(host).attach.port, ring.radix(2), -1}) {
    BadPortAtOneSwitch algo(ring, 2, port);
    const DeadlockReport r = analyzeDeadlock(ring, algo);
    EXPECT_FALSE(r.deadlockFree) << "port " << port;
    EXPECT_EQ(r.error, "hop via unused port (switch 2 port " + std::to_string(port) + ")");
  }
}

TEST(Deadlock, ReportCountsChannels) {
  const topo::Topology m = topo::makeMesh2D(3, 3);
  auto algo = DimensionOrderRouting::create(m);
  ASSERT_TRUE(algo.ok());
  const DeadlockReport r = analyzeDeadlock(m, *algo.value());
  // 12 links x 2 directions x 1 VC = 24 possible channels; DOR uses all.
  EXPECT_TRUE(r.deadlockFree);
  EXPECT_EQ(r.channelsUsed, 24);
  EXPECT_EQ(r.dependencyEdges, 28);
}

}  // namespace
}  // namespace sdt::routing
