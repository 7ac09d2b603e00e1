// Tests: routing::ShortestPathRouting over severed links — the algorithm
// SdtController::repair() swaps in when a failed physical link has no spare
// to re-project onto.
// Covers the repair-path corners the controller relies on: the VC dimension
// of the routing being replaced is preserved (recompiled tables keep their
// per-VC shape), overlapping severed-link sets across independent instances
// don't bleed into each other, and pairs the damage disconnects are
// *reported* (nextHop errors, empty candidates) rather than black-holed
// into a dead port.
#include <gtest/gtest.h>

#include <cstdint>

#include "routing/shortest_path.hpp"
#include "topo/generators.hpp"

namespace sdt::routing {
namespace {

/// Index into Topology::links() of the (unique) link between two switches.
int linkBetween(const topo::Topology& topo, topo::SwitchId a, topo::SwitchId b) {
  for (int li = 0; li < static_cast<int>(topo.links().size()); ++li) {
    const topo::Link& link = topo.link(li);
    if ((link.a.sw == a && link.b.sw == b) || (link.a.sw == b && link.b.sw == a)) {
      return li;
    }
  }
  ADD_FAILURE() << "no link between switch " << a << " and " << b;
  return -1;
}

TEST(Degraded, PreservesVcDimension) {
  // Repair replaces e.g. a 2-VC torus routing; the degraded stand-in must
  // keep numVcs()==2 and pass the requested VC through unchanged so the
  // recompiled flow entries still match per (in_port, dst, vc).
  const topo::Topology topo = topo::makeRing(6);
  ShortestPathRouting algo(topo, {linkBetween(topo, 0, 1)}, /*numVcs=*/2);
  EXPECT_EQ(algo.numVcs(), 2);
  for (int vc = 0; vc < 2; ++vc) {
    auto hop = algo.nextHop(/*sw=*/0, /*dst=*/3, vc, /*flowHash=*/7);
    ASSERT_TRUE(hop.ok()) << hop.error().message;
    EXPECT_EQ(hop.value().vc, vc);
  }
}

TEST(Degraded, RoutesAroundSeveredLink) {
  // Ring-6 minus one link is a line: every pair stays reachable, and the
  // pair the severed link used to join goes all the way around.
  const topo::Topology topo = topo::makeRing(6);
  ShortestPathRouting algo(topo, {linkBetween(topo, 0, 1)}, /*numVcs=*/2);
  for (topo::HostId src = 0; src < topo.numHosts(); ++src) {
    for (topo::HostId dst = 0; dst < topo.numHosts(); ++dst) {
      if (src == dst) continue;
      EXPECT_TRUE(algo.reachable(topo.hostSwitch(src), dst)) << src << "->" << dst;
    }
  }
  auto path = algo.tracePath(/*src=*/0, /*dst=*/1);
  ASSERT_TRUE(path.ok()) << path.error().message;
  EXPECT_EQ(path.value().size(), 6u);  // 0-5-4-3-2-1: the long way
}

TEST(Degraded, OverlappingSeveredSetsStayIndependent) {
  // Two repairs of the same topology with overlapping damage (both lost
  // link B, only one lost A / C) must each route around exactly their own
  // set — severedMask_ state is per-instance, not shared.
  const topo::Topology topo = topo::makeTorus2D(3, 3);
  const int a = linkBetween(topo, 0, 1);
  const int b = linkBetween(topo, 1, 2);
  const int c = linkBetween(topo, 3, 4);
  ShortestPathRouting first(topo, {a, b}, /*numVcs=*/2);
  ShortestPathRouting second(topo, {b, c}, /*numVcs=*/2);

  EXPECT_TRUE(first.isSevered(a));
  EXPECT_TRUE(first.isSevered(b));
  EXPECT_FALSE(first.isSevered(c));
  EXPECT_TRUE(second.isSevered(b));
  EXPECT_TRUE(second.isSevered(c));
  EXPECT_FALSE(second.isSevered(a));

  // A 3x3 torus is 4-regular: two lost links leave every pair connected in
  // both instances, and neither instance's candidates ride a link it lost.
  for (topo::HostId src = 0; src < topo.numHosts(); ++src) {
    for (topo::HostId dst = 0; dst < topo.numHosts(); ++dst) {
      if (src == dst) continue;
      EXPECT_TRUE(first.reachable(topo.hostSwitch(src), dst));
      EXPECT_TRUE(second.reachable(topo.hostSwitch(src), dst));
    }
  }
  // Switch 1 lost its links to 0 and 2 in `first` but only to 2 in `second`.
  const topo::PortId toSw0 =
      (topo.link(a).a.sw == 1 ? topo.link(a).a : topo.link(a).b).port;
  for (topo::HostId dst = 0; dst < topo.numHosts(); ++dst) {
    if (topo.hostSwitch(dst) == 1) continue;
    for (const topo::PortId port : first.candidates(1, dst)) {
      EXPECT_NE(port, toSw0) << "first routed onto its own severed link";
    }
  }
}

TEST(Degraded, DuplicateSeveredIndicesCollapse) {
  // repair() can feed the same logical link twice (both physical ends of a
  // cut cable map to it); duplicates must behave like a single severing.
  const topo::Topology topo = topo::makeTorus2D(3, 3);
  const int a = linkBetween(topo, 0, 1);
  ShortestPathRouting once(topo, {a}, /*numVcs=*/2);
  ShortestPathRouting twice(topo, {a, a, a}, /*numVcs=*/2);
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    for (topo::HostId dst = 0; dst < topo.numHosts(); ++dst) {
      if (topo.hostSwitch(dst) == sw) continue;
      EXPECT_EQ(once.candidates(sw, dst), twice.candidates(sw, dst))
          << "sw " << sw << " dst " << dst;
    }
  }
}

TEST(Degraded, UnreachablePairsErrorInsteadOfBlackHoling) {
  // Sever both of switch 1's ring links: its host is cut off. The contract
  // (relied on by repair()'s unreachablePairs report) is an explicit nextHop
  // error and an empty candidate set — never a Hop onto a dead port.
  const topo::Topology topo = topo::makeRing(6);
  const std::vector<int> cut = {linkBetween(topo, 0, 1), linkBetween(topo, 1, 2)};
  ShortestPathRouting algo(topo, cut, /*numVcs=*/2);

  const topo::HostId marooned = 1;  // hosts attach one per switch, in order
  ASSERT_EQ(topo.hostSwitch(marooned), 1);
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    if (sw == 1) continue;
    EXPECT_FALSE(algo.reachable(sw, marooned));
    EXPECT_TRUE(algo.candidates(sw, marooned).empty());
    for (int vc = 0; vc < algo.numVcs(); ++vc) {
      auto hop = algo.nextHop(sw, marooned, vc, /*flowHash=*/3);
      EXPECT_FALSE(hop.ok()) << "black-hole hop from switch " << sw;
    }
  }
  // The marooned switch can't send out either, but switches on the surviving
  // arc still reach each other.
  EXPECT_FALSE(algo.nextHop(1, /*dst=*/4, 0, 0).ok());
  EXPECT_TRUE(algo.nextHop(2, /*dst=*/4, 0, 0).ok());
}

}  // namespace
}  // namespace sdt::routing
