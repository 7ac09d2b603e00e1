#include "routing/shortest_path.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace sdt::routing {

ShortestPathRouting::ShortestPathRouting(const topo::Topology& topo,
                                         const std::vector<int>& severedLinks, int numVcs)
    : RoutingAlgorithm(topo),
      severedMask_(topo.links().size(), 0),
      severedCount_(static_cast<int>(severedLinks.size())),
      vcs_(numVcs) {
  for (const int li : severedLinks) {
    if (li >= 0 && li < static_cast<int>(severedMask_.size())) severedMask_[li] = 1;
  }
  // Severed links are dropped here, once: the BFS and every candidates()
  // call walk only the surviving incident links, in linksOf() order (which
  // fixes the ECMP candidate order).
  const int n = topo.numSwitches();
  adjacent_.resize(static_cast<std::size_t>(n));
  for (int li = 0; li < topo.numLinks(); ++li) {
    if (severedMask_[li]) continue;
    const topo::Link& link = topo.link(li);
    adjacent_[link.a.sw].push_back({link.a.port, link.b.sw});
    if (link.b.sw != link.a.sw) adjacent_[link.b.sw].push_back({link.b.port, link.a.sw});
  }
  // Per-destination BFS over the surviving switch graph.
  dist_.assign(static_cast<std::size_t>(n), std::vector<int>(static_cast<std::size_t>(n), -1));
  std::vector<int> frontier(static_cast<std::size_t>(n));
  for (int target = 0; target < n; ++target) {
    std::vector<int>& dist = dist_[target];
    dist[target] = 0;
    frontier[0] = target;
    for (int head = 0, tail = 1; head < tail; ++head) {
      const int sw = frontier[head];
      for (const Adjacent& adj : adjacent_[sw]) {
        if (dist[adj.peer] < 0) {
          dist[adj.peer] = dist[sw] + 1;
          frontier[tail++] = adj.peer;
        }
      }
    }
  }
}

std::vector<topo::PortId> ShortestPathRouting::candidates(topo::SwitchId sw,
                                                          topo::HostId dst) const {
  std::vector<topo::PortId> out;
  for (const Adjacent& adj : adjacent_[sw]) {
    if (closer(sw, dst, adj)) out.push_back(adj.port);
  }
  return out;
}

bool ShortestPathRouting::reachable(topo::SwitchId sw, topo::HostId dst) const {
  return dist_[topo_->hostSwitch(dst)][sw] >= 0;
}

Result<Hop> ShortestPathRouting::nextHop(topo::SwitchId sw, topo::HostId dst, int vc,
                                         std::uint64_t flowHash) const {
  // The flowHash % n-th of the n candidates(), found without building them.
  const std::vector<Adjacent>& links = adjacent_[sw];
  const auto n = static_cast<std::uint64_t>(
      std::count_if(links.begin(), links.end(),
                    [&](const Adjacent& adj) { return closer(sw, dst, adj); }));
  if (n == 0) {
    if (severedCount_ > 0) {
      return makeError(strFormat(
          "shortest: no surviving route from switch %d to host %d (%d link(s) severed)", sw,
          dst, severedCount_));
    }
    return makeError(strFormat("shortest: no route from switch %d to host %d", sw, dst));
  }
  std::uint64_t skip = flowHash % n;
  const auto pick = std::find_if(links.begin(), links.end(), [&](const Adjacent& adj) {
    return closer(sw, dst, adj) && skip-- == 0;
  });
  return Hop{pick->port, vc};
}

}  // namespace sdt::routing
