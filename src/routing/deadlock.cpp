#include "routing/deadlock.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace sdt::routing {

namespace {

std::uint64_t packPair(int hi, int lo) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32 |
         static_cast<std::uint32_t>(lo);
}

/// splitmix64 finalizer over a packed key, so keys that differ only in a
/// few bits still spread across the hash buckets.
struct WordHash {
  std::size_t operator()(std::uint64_t key) const {
    return static_cast<std::size_t>(detail::splitmix64(key));
  }
};

/// Fabric link at every (switch, port), flattened once per analysis: row
/// `sw` starts at the prefix sum of the radixes before it and holds one
/// slot per port, -1 where no fabric link attaches. Answers exactly like
/// Topology::linkAt (the lowest link index wins) without scanning links.
class PortLinks {
 public:
  explicit PortLinks(const topo::Topology& topo)
      : rowStart_(static_cast<std::size_t>(topo.numSwitches()) + 1, 0) {
    for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
      rowStart_[sw + 1] = rowStart_[sw] + topo.radix(sw);
    }
    links_.assign(static_cast<std::size_t>(rowStart_.back()), -1);
    for (int li = 0; li < topo.numLinks(); ++li) {
      for (const topo::SwitchPort& end : {topo.link(li).a, topo.link(li).b}) {
        int& slot = links_[static_cast<std::size_t>(rowStart_[end.sw] + end.port)];
        if (slot < 0) slot = li;
      }
    }
  }

  /// `sp.sw` must be a switch of the topology; any port is accepted.
  [[nodiscard]] std::optional<int> at(topo::SwitchPort sp) const {
    if (sp.port < 0 || sp.port >= rowStart_[sp.sw + 1] - rowStart_[sp.sw]) return std::nullopt;
    const int li = links_[static_cast<std::size_t>(rowStart_[sp.sw] + sp.port)];
    if (li < 0) return std::nullopt;
    return li;
  }

 private:
  std::vector<int> rowStart_;
  std::vector<int> links_;
};

/// Dense channel numbering discovered lazily.
class ChannelIndex {
 public:
  int idOf(Channel c) {
    // Lossless: link ids are non-negative ints and dir is 0 or 1.
    const std::uint64_t key = packPair(c.link << 1 | c.dir, c.vc);
    const auto [it, inserted] = ids_.try_emplace(key, static_cast<int>(channels_.size()));
    if (inserted) channels_.push_back(c);
    return it->second;
  }
  [[nodiscard]] const std::vector<Channel>& channels() const { return channels_; }

 private:
  std::unordered_map<std::uint64_t, int, WordHash> ids_;
  std::vector<Channel> channels_;
};

struct State {
  topo::SwitchId sw;
  topo::HostId dst;
  int vc;
  bool operator==(const State&) const = default;
};

/// Hash of (state, inChannel), the unit the walk visits once.
struct VisitHash {
  std::size_t operator()(const std::pair<State, int>& v) const {
    std::uint64_t key = packPair(v.first.sw, v.first.dst);
    key = detail::splitmix64(key) ^ packPair(v.first.vc, v.second);
    return static_cast<std::size_t>(detail::splitmix64(key));
  }
};

}  // namespace

DeadlockReport analyzeDeadlock(const topo::Topology& topo,
                               const std::vector<const RoutingAlgorithm*>& algos,
                               int hashProbes) {
  DeadlockReport report;
  const PortLinks portLinks(topo);
  ChannelIndex index;
  // Channel -> channel edges packed as from << 32 | to, so sorting the keys
  // orders them by (from, to).
  std::unordered_set<std::uint64_t, WordHash> edges;
  std::unordered_set<std::pair<State, int>, VisitHash> visited;  // (state, inChannel)
  std::vector<std::pair<State, int>> stack;                      // worklist

  // Injection: every (source switch with a host, destination host) pair,
  // entering the fabric with VC0 and no held channel (-1).
  for (topo::HostId dst = 0; dst < topo.numHosts(); ++dst) {
    const topo::SwitchId target = topo.hostSwitch(dst);
    for (topo::HostId src = 0; src < topo.numHosts(); ++src) {
      const topo::SwitchId sw = topo.hostSwitch(src);
      if (sw == target) continue;
      stack.push_back({State{sw, dst, 0}, -1});
    }
  }

  while (!stack.empty()) {
    const auto [state, inChannel] = stack.back();
    stack.pop_back();
    if (!visited.insert({state, inChannel}).second) continue;

    // Most probes repeat the previous probe's hop. A repeat adds no channel
    // and no edge, and its push would sit right on top of an identical
    // state that is popped first, so skipping it changes nothing.
    std::optional<Hop> lastHop;
    for (const RoutingAlgorithm* algo : algos) {
      for (int probe = 0; probe < hashProbes; ++probe) {
        auto hop = algo->nextHop(state.sw, state.dst,
                                 state.vc, static_cast<std::uint64_t>(probe));
        if (!hop) {
          // An unroutable *injection* state means the pair is unreachable
          // (a degraded topology severed every path); it contributes no
          // channel dependencies, so skip it. Failing mid-path — while
          // holding a channel — is a genuine routing dead end.
          if (inChannel < 0) continue;
          report.error = hop.error().message;
          return report;
        }
        if (lastHop && lastHop->outPort == hop.value().outPort &&
            lastHop->vc == hop.value().vc) {
          continue;
        }
        lastHop = hop.value();
        const topo::SwitchPort out{state.sw, hop.value().outPort};
        const auto li = portLinks.at(out);
        if (!li) {
          report.error = strFormat("hop via unused port (switch %d port %d)", state.sw,
                                   hop.value().outPort);
          return report;
        }
        const topo::Link& link = topo.link(*li);
        const int dir = link.a == out ? 0 : 1;
        const int outChannel = index.idOf(Channel{*li, dir, hop.value().vc});
        if (inChannel >= 0) edges.insert(packPair(inChannel, outChannel));
        const topo::SwitchPort peer = link.peerOf(state.sw);
        if (peer.sw != topo.hostSwitch(state.dst)) {
          stack.push_back({State{peer.sw, state.dst, hop.value().vc}, outChannel});
        }
        // Ejection at the destination switch holds no further channel.
      }
    }
  }

  // Cycle detection (iterative DFS, three colors). Adjacency lists are
  // built from the sorted edges, so each one is in ascending order.
  const int n = static_cast<int>(index.channels().size());
  std::vector<std::uint64_t> sortedEdges(edges.begin(), edges.end());
  std::sort(sortedEdges.begin(), sortedEdges.end());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (const std::uint64_t e : sortedEdges) {
    adj[e >> 32].push_back(static_cast<int>(static_cast<std::uint32_t>(e)));
  }
  report.channelsUsed = n;
  report.dependencyEdges = static_cast<int>(sortedEdges.size());

  std::vector<int> color(static_cast<std::size_t>(n), 0);  // 0 white 1 gray 2 black
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    std::vector<std::pair<int, std::size_t>> dfs{{start, 0}};
    color[start] = 1;
    while (!dfs.empty()) {
      auto& [v, next] = dfs.back();
      if (next < adj[v].size()) {
        const int w = adj[v][next++];
        if (color[w] == 0) {
          color[w] = 1;
          parent[w] = v;
          dfs.emplace_back(w, 0);
        } else if (color[w] == 1) {
          // Found a cycle: unwind from v back to w.
          std::vector<Channel> cycle;
          cycle.push_back(index.channels()[w]);
          for (int x = v; x != w && x != -1; x = parent[x]) {
            cycle.push_back(index.channels()[x]);
          }
          std::reverse(cycle.begin(), cycle.end());
          report.cycle = std::move(cycle);
          return report;
        }
      } else {
        color[v] = 2;
        dfs.pop_back();
      }
    }
  }
  report.deadlockFree = true;
  return report;
}

DeadlockReport analyzeDeadlock(const topo::Topology& topo, const RoutingAlgorithm& algo,
                               int hashProbes) {
  return analyzeDeadlock(topo, std::vector<const RoutingAlgorithm*>{&algo}, hashProbes);
}

}  // namespace sdt::routing
