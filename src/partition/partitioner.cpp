#include "partition/partitioner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace sdt::partition {

using topo::Graph;
using topo::GraphEdge;

namespace {

/// Fiduccia-Mattheyses passes per level (each stops early without gain).
constexpr int kRefinementPasses = 8;
/// Stop coarsening when at most this many vertices remain.
constexpr int kCoarsenTarget = 24;

}  // namespace

double PartitionResult::imbalance() const {
  if (partLoad.empty()) return 0.0;
  const std::int64_t total = std::accumulate(partLoad.begin(), partLoad.end(), std::int64_t{0});
  const double ideal = static_cast<double>(total) / static_cast<double>(partLoad.size());
  if (ideal <= 0) return 0.0;
  const std::int64_t maxLoad = *std::max_element(partLoad.begin(), partLoad.end());
  return static_cast<double>(maxLoad) / ideal - 1.0;
}

double partBalancePenalty(std::int64_t internalWeight, std::int64_t totalEdgeWeight,
                          int parts, const PartitionOptions& options) {
  if (internalWeight > 0) return 1.0 / static_cast<double>(internalWeight);
  if (options.beta <= 0.0) return 0.0;  // the beta term is off entirely
  // Dominating penalty: beta * penalty must exceed the largest finite
  // objective, alpha*totalWeight + beta*parts (cut <= total weight and each
  // feasible part contributes at most 1 to the beta sum).
  return (options.alpha * static_cast<double>(totalEdgeWeight) +
          options.beta * static_cast<double>(parts) + 1.0) /
         options.beta;
}

PartitionResult evaluateAssignment(const Graph& graph, std::vector<int> assignment,
                                   int parts, const PartitionOptions& options) {
  PartitionResult result;
  result.assignment = std::move(assignment);
  result.partLoad.assign(static_cast<std::size_t>(parts), 0);
  result.internalEdges.assign(static_cast<std::size_t>(parts), 0);
  std::int64_t totalWeight = 0;
  for (const GraphEdge& e : graph.edges()) {
    const int pu = result.assignment[e.u];
    const int pv = result.assignment[e.v];
    totalWeight += e.weight;
    result.partLoad[pu] += e.weight;
    result.partLoad[pv] += e.weight;
    if (pu == pv) {
      result.internalEdges[pu] += e.weight;
    } else {
      result.cutWeight += e.weight;
    }
  }
  double balancePenalty = 0.0;
  for (const std::int64_t internal : result.internalEdges) {
    balancePenalty += partBalancePenalty(internal, totalWeight, parts, options);
  }
  result.objective = options.alpha * static_cast<double>(result.cutWeight) +
                     options.beta * balancePenalty;
  result.imbalanceViolated = result.imbalance() > options.maxImbalance + 1e-9;
  return result;
}

namespace {

/// A coarsening level: the coarse graph plus the fine->coarse vertex map.
struct Level {
  Graph graph;
  std::vector<int> fineToCoarse;           // indexed by the *finer* level's vertices
  std::vector<std::int64_t> vertexWeight;  // degree-load carried by each coarse vertex
};

std::vector<std::int64_t> initialVertexWeights(const Graph& graph) {
  std::vector<std::int64_t> w(static_cast<std::size_t>(graph.numVertices()));
  for (int v = 0; v < graph.numVertices(); ++v) w[v] = graph.weightedDegree(v);
  return w;
}

/// Heavy-edge matching: visit vertices in random order, match each unmatched
/// vertex with its unmatched neighbor across the heaviest edge.
std::vector<int> heavyEdgeMatching(const Graph& graph, Rng& rng) {
  const int n = graph.numVertices();
  std::vector<int> match(static_cast<std::size_t>(n), -1);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (const int v : order) {
    if (match[v] != -1) continue;
    int best = -1;
    std::int64_t bestWeight = -1;
    for (const int e : graph.incidentEdges(v)) {
      const int u = graph.other(e, v);
      if (u == v || match[u] != -1) continue;
      if (graph.edge(e).weight > bestWeight) {
        bestWeight = graph.edge(e).weight;
        best = u;
      }
    }
    if (best != -1) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;  // stays single
    }
  }
  return match;
}

/// Contract matched pairs into a coarser graph.
Level coarsen(const Graph& fine, const std::vector<std::int64_t>& fineWeights, Rng& rng) {
  const std::vector<int> match = heavyEdgeMatching(fine, rng);
  Level level;
  level.fineToCoarse.assign(static_cast<std::size_t>(fine.numVertices()), -1);
  int next = 0;
  for (int v = 0; v < fine.numVertices(); ++v) {
    if (level.fineToCoarse[v] != -1) continue;
    level.fineToCoarse[v] = next;
    if (match[v] != v) level.fineToCoarse[match[v]] = next;
    ++next;
  }
  level.graph = Graph(next);
  level.vertexWeight.assign(static_cast<std::size_t>(next), 0);
  for (int v = 0; v < fine.numVertices(); ++v) {
    level.vertexWeight[level.fineToCoarse[v]] += fineWeights[v];
  }
  // Merge parallel edges between the same coarse pair.
  std::vector<std::vector<std::pair<int, std::int64_t>>> buckets(
      static_cast<std::size_t>(next));
  for (const GraphEdge& e : fine.edges()) {
    const int cu = level.fineToCoarse[e.u];
    const int cv = level.fineToCoarse[e.v];
    if (cu == cv) continue;  // internal to a matched pair: vanishes
    const auto [lo, hi] = std::minmax(cu, cv);
    buckets[lo].emplace_back(hi, e.weight);
  }
  for (int lo = 0; lo < next; ++lo) {
    auto& bucket = buckets[lo];
    std::sort(bucket.begin(), bucket.end());
    for (std::size_t i = 0; i < bucket.size();) {
      std::size_t j = i;
      std::int64_t weight = 0;
      while (j < bucket.size() && bucket[j].first == bucket[i].first) {
        weight += bucket[j].second;
        ++j;
      }
      level.graph.addEdge(lo, bucket[i].first, weight);
      i = j;
    }
  }
  return level;
}

/// Greedy region-growing bisection on the coarsest graph: BFS-grow side 0
/// from a random seed until it holds ~targetFraction of the total weight.
std::vector<int> growBisection(const Graph& graph,
                               const std::vector<std::int64_t>& weights,
                               double targetFraction, Rng& rng) {
  const int n = graph.numVertices();
  std::vector<int> side(static_cast<std::size_t>(n), 1);
  if (n == 0) return side;
  const std::int64_t total = std::accumulate(weights.begin(), weights.end(), std::int64_t{0});
  const auto target = static_cast<std::int64_t>(targetFraction * static_cast<double>(total));
  std::int64_t grown = 0;
  std::vector<int> frontier;
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  frontier.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
  visited[frontier[0]] = 1;
  while (grown < target && !frontier.empty()) {
    const int v = frontier.back();
    frontier.pop_back();
    side[v] = 0;
    grown += weights[v];
    for (const int e : graph.incidentEdges(v)) {
      const int u = graph.other(e, v);
      if (!visited[u]) {
        visited[u] = 1;
        frontier.push_back(u);
      }
    }
    // Prefer the frontier vertex with the most neighbors already inside
    // (cheap approximation of highest-gain growth).
    if (!frontier.empty()) {
      std::size_t bestIdx = frontier.size() - 1;
      int bestInside = -1;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        int inside = 0;
        for (const int e : graph.incidentEdges(frontier[i])) {
          if (side[graph.other(e, frontier[i])] == 0) ++inside;
        }
        if (inside > bestInside) {
          bestInside = inside;
          bestIdx = i;
        }
      }
      std::swap(frontier[bestIdx], frontier.back());
    }
    // Restart growth from an unvisited vertex if the component ran out.
    if (frontier.empty() && grown < target) {
      for (int v2 = 0; v2 < n; ++v2) {
        if (!visited[v2]) {
          visited[v2] = 1;
          frontier.push_back(v2);
          break;
        }
      }
    }
  }
  return side;
}

/// One FM refinement pass over a bisection. Moves boundary vertices in
/// descending gain order, honoring the balance cap; returns true if the
/// objective improved.
bool fmPass(const Graph& graph, const std::vector<std::int64_t>& weights,
            std::vector<int>& side, double targetFraction, double maxImbalance,
            bool repairBalance) {
  const int n = graph.numVertices();
  const std::int64_t total = std::accumulate(weights.begin(), weights.end(), std::int64_t{0});
  std::int64_t load0 = 0;
  for (int v = 0; v < n; ++v) {
    if (side[v] == 0) load0 += weights[v];
  }
  const double ideal0 = targetFraction * static_cast<double>(total);
  const double ideal1 = static_cast<double>(total) - ideal0;
  const auto balancedAfterMove = [&](int v) {
    const std::int64_t newLoad0 = side[v] == 0 ? load0 - weights[v] : load0 + weights[v];
    const double l0 = static_cast<double>(newLoad0);
    const double l1 = static_cast<double>(total - newLoad0);
    return l0 <= ideal0 * (1.0 + maxImbalance) && l1 <= ideal1 * (1.0 + maxImbalance) &&
           l0 >= 0 && l1 >= 0;
  };
  const auto gainOf = [&](int v) {
    std::int64_t gain = 0;  // cut reduction if v switches sides
    for (const int e : graph.incidentEdges(v)) {
      const int u = graph.other(e, v);
      if (u == v) continue;
      gain += side[u] != side[v] ? graph.edge(e).weight : -graph.edge(e).weight;
    }
    return gain;
  };

  bool improved = false;
  std::vector<char> moved(static_cast<std::size_t>(n), 0);
  // Classic FM would use a gain bucket structure; graphs here are small
  // (logical topologies: tens to a few hundred switches), so a linear scan
  // per move is fine and much simpler.
  for (int iter = 0; iter < n; ++iter) {
    int best = -1;
    std::int64_t bestGain = 0;
    for (int v = 0; v < n; ++v) {
      if (moved[v] || !balancedAfterMove(v)) continue;
      const std::int64_t g = gainOf(v);
      if (best == -1 || g > bestGain) {
        best = v;
        bestGain = g;
      }
    }
    if (best == -1 || bestGain <= 0) break;  // only strictly-improving moves
    side[best] = 1 - side[best];
    load0 += side[best] == 0 ? weights[best] : -weights[best];
    moved[best] = 1;
    improved = true;
  }

  // Balance repair: cut-only refinement can leave (or inherit) a lopsided
  // split; drain the heavy side toward its target via the cheapest moves.
  // The paper's beta term wants per-part port loads comparable, which is
  // also what makes the physical-switch port budgets bind evenly.
  for (int iter = 0; iter < n; ++iter) {
    const double frac0 =
        static_cast<double>(load0) / std::max<double>(1.0, static_cast<double>(total));
    const double target0 = targetFraction;
    if (!repairBalance) break;  // pure min-cut mode (beta == 0)
    const double tolerance = 0.05;
    int from;
    if (frac0 > target0 + tolerance) {
      from = 0;
    } else if (frac0 < target0 - tolerance) {
      from = 1;
    } else {
      break;
    }
    int best = -1;
    std::int64_t bestGain = 0;
    for (int v = 0; v < n; ++v) {
      if (side[v] != from) continue;
      const std::int64_t g = gainOf(v);
      if (best == -1 || g > bestGain) {
        best = v;
        bestGain = g;
      }
    }
    if (best == -1) break;
    side[best] = 1 - side[best];
    load0 += side[best] == 0 ? weights[best] : -weights[best];
    improved = true;
  }
  return improved;
}

/// Multilevel bisection of `graph` into sides {0,1} with side 0 targeting
/// `targetFraction` of total degree-load.
std::vector<int> multilevelBisect(const Graph& graph,
                                  const std::vector<std::int64_t>& weights,
                                  double targetFraction, const PartitionOptions& options,
                                  Rng& rng) {
  if (graph.numVertices() <= 1) {
    return std::vector<int>(static_cast<std::size_t>(graph.numVertices()), 0);
  }
  // Coarsening phase.
  std::vector<Level> levels;
  const Graph* current = &graph;
  const std::vector<std::int64_t>* currentWeights = &weights;
  while (current->numVertices() > kCoarsenTarget) {
    Level level = coarsen(*current, *currentWeights, rng);
    if (level.graph.numVertices() >= current->numVertices()) break;  // no progress
    levels.push_back(std::move(level));
    current = &levels.back().graph;
    currentWeights = &levels.back().vertexWeight;
  }
  // Initial partition on the coarsest graph: several random restarts.
  std::vector<int> side;
  std::int64_t bestCut = std::numeric_limits<std::int64_t>::max();
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::vector<int> candidate = growBisection(*current, *currentWeights, targetFraction, rng);
    for (int pass = 0; pass < kRefinementPasses; ++pass) {
      if (!fmPass(*current, *currentWeights, candidate, targetFraction,
                  options.maxImbalance, options.beta > 0.0)) {
        break;
      }
    }
    std::int64_t cut = 0;
    for (const GraphEdge& e : current->edges()) {
      if (candidate[e.u] != candidate[e.v]) cut += e.weight;
    }
    if (cut < bestCut) {
      bestCut = cut;
      side = std::move(candidate);
    }
  }
  // Uncoarsening + refinement.
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const Graph& fine = (std::next(it) == levels.rend()) ? graph : std::next(it)->graph;
    const std::vector<std::int64_t>& fineWeights =
        (std::next(it) == levels.rend()) ? weights : std::next(it)->vertexWeight;
    std::vector<int> fineSide(static_cast<std::size_t>(fine.numVertices()));
    for (int v = 0; v < fine.numVertices(); ++v) fineSide[v] = side[it->fineToCoarse[v]];
    for (int pass = 0; pass < kRefinementPasses; ++pass) {
      if (!fmPass(fine, fineWeights, fineSide, targetFraction, options.maxImbalance,
                  options.beta > 0.0)) {
        break;
      }
    }
    side = std::move(fineSide);
  }
  return side;
}

/// Ensure side 0 holds at least `need0` vertices and side 1 at least
/// `need1`, stealing boundary vertices from the surplus side by best cut
/// gain (deterministic lowest-index tie-break). multilevelBisect balances
/// *degree load*, so on small or star-like graphs (and whenever beta == 0
/// disables balance repair) it can park every vertex on one side; each side
/// must still hold as many vertices as the parts it will recursively host,
/// or a part downstream is silently stranded empty with partLoad == 0.
void forceMinSideCounts(const Graph& graph, std::vector<int>& side, int need0,
                        int need1) {
  const int n = graph.numVertices();
  int count0 = 0;
  for (const int s : side) count0 += s == 0 ? 1 : 0;
  const auto gainOf = [&](int v) {
    std::int64_t gain = 0;
    for (const int e : graph.incidentEdges(v)) {
      const int u = graph.other(e, v);
      if (u == v) continue;
      gain += side[u] != side[v] ? graph.edge(e).weight : -graph.edge(e).weight;
    }
    return gain;
  };
  while (count0 < need0 || n - count0 < need1) {
    const int from = count0 < need0 ? 1 : 0;
    int best = -1;
    std::int64_t bestGain = 0;
    for (int v = 0; v < n; ++v) {
      if (side[v] != from) continue;
      const std::int64_t g = gainOf(v);
      if (best == -1 || g > bestGain) {
        best = v;
        bestGain = g;
      }
    }
    assert(best != -1 && "surplus side cannot be empty while the other is short");
    side[best] = 1 - side[best];
    count0 += from == 1 ? 1 : -1;
  }
}

/// Recursive k-way: split the vertex set, extract the induced subgraphs,
/// and recurse until every branch is a single part.
void kWay(const Graph& graph, const std::vector<std::int64_t>& weights,
          const std::vector<int>& vertexIds, int parts, int firstPart,
          const PartitionOptions& options, Rng& rng, std::vector<int>& assignment) {
  if (parts == 1) {
    for (const int v : vertexIds) assignment[v] = firstPart;
    return;
  }
  const int leftParts = (parts + 1) / 2;
  const double fraction = static_cast<double>(leftParts) / static_cast<double>(parts);
  std::vector<int> side = multilevelBisect(graph, weights, fraction, options, rng);
  // The top-level parts <= numVertices guarantee must hold per-branch too.
  if (graph.numVertices() >= parts) {
    forceMinSideCounts(graph, side, leftParts, parts - leftParts);
  }

  for (int half = 0; half < 2; ++half) {
    std::vector<int> subIds;
    std::vector<int> globalToSub(static_cast<std::size_t>(graph.numVertices()), -1);
    for (int v = 0; v < graph.numVertices(); ++v) {
      if (side[v] == half) {
        globalToSub[v] = static_cast<int>(subIds.size());
        subIds.push_back(v);
      }
    }
    Graph sub(static_cast<int>(subIds.size()));
    for (const GraphEdge& e : graph.edges()) {
      if (side[e.u] == half && side[e.v] == half) {
        sub.addEdge(globalToSub[e.u], globalToSub[e.v], e.weight);
      }
    }
    std::vector<std::int64_t> subWeights(subIds.size());
    std::vector<int> subVertexIds(subIds.size());
    for (std::size_t i = 0; i < subIds.size(); ++i) {
      subWeights[i] = weights[subIds[i]];
      subVertexIds[i] = vertexIds[subIds[i]];
    }
    const int subParts = half == 0 ? leftParts : parts - leftParts;
    const int subFirst = half == 0 ? firstPart : firstPart + leftParts;
    kWay(sub, subWeights, subVertexIds, subParts, subFirst, options, rng, assignment);
  }
}

/// Final hard-cap repair: maxImbalance is documented as a hard cap, but the
/// recursive bisections only repair toward a per-level tolerance, so the
/// k-way composition can overshoot. Drain the most-loaded part by moving its
/// cheapest boundary vertices (never emptying a part) until the cap holds or
/// no move lowers the maximum load. Returns the (possibly updated)
/// assignment's evaluation; the caller surfaces any residual violation via
/// PartitionResult::imbalanceViolated.
PartitionResult repairImbalance(const Graph& graph, PartitionResult result,
                                const PartitionOptions& options) {
  const int parts = static_cast<int>(result.partLoad.size());
  if (parts < 2) return result;
  const int n = graph.numVertices();
  std::vector<int>& part = result.assignment;
  std::vector<std::int64_t> load = result.partLoad;
  std::vector<int> count(static_cast<std::size_t>(parts), 0);
  for (const int p : part) ++count[p];
  const std::int64_t total = std::accumulate(load.begin(), load.end(), std::int64_t{0});
  const double cap =
      (1.0 + options.maxImbalance) * static_cast<double>(total) / static_cast<double>(parts);
  bool changed = false;
  for (int iter = 0; iter < 8 * n; ++iter) {
    const int heavy = static_cast<int>(
        std::max_element(load.begin(), load.end()) - load.begin());
    if (static_cast<double>(load[heavy]) <= cap + 1e-9) break;
    // Best (vertex, destination) move: must strictly lower the pair's max
    // load; among those, smallest cut increase wins.
    int bestV = -1;
    int bestDest = -1;
    std::int64_t bestGain = 0;
    std::vector<std::int64_t> link(static_cast<std::size_t>(parts), 0);
    for (int v = 0; v < n; ++v) {
      if (part[v] != heavy || count[heavy] <= 1) continue;
      std::fill(link.begin(), link.end(), std::int64_t{0});
      std::int64_t degree = 0;
      for (const int e : graph.incidentEdges(v)) {
        const int u = graph.other(e, v);
        degree += graph.edge(e).weight;
        if (u != v) link[part[u]] += graph.edge(e).weight;
      }
      for (int dest = 0; dest < parts; ++dest) {
        if (dest == heavy || load[dest] + degree >= load[heavy]) continue;
        const std::int64_t gain = link[dest] - link[heavy];  // cut reduction
        if (bestV == -1 || gain > bestGain) {
          bestV = v;
          bestDest = dest;
          bestGain = gain;
        }
      }
    }
    if (bestV == -1) break;  // the heavy part cannot shed anything
    std::int64_t degree = 0;
    for (const int e : graph.incidentEdges(bestV)) degree += graph.edge(e).weight;
    load[heavy] -= degree;
    load[bestDest] += degree;
    --count[heavy];
    ++count[bestDest];
    part[bestV] = bestDest;
    changed = true;
  }
  if (!changed) return result;
  return evaluateAssignment(graph, std::move(result.assignment), parts, options);
}

Result<PartitionResult> multilevelPartition(const Graph& graph,
                                            const PartitionOptions& options) {
  Rng rng(options.seed);
  std::vector<int> assignment(static_cast<std::size_t>(graph.numVertices()), 0);
  std::vector<int> vertexIds(static_cast<std::size_t>(graph.numVertices()));
  std::iota(vertexIds.begin(), vertexIds.end(), 0);
  kWay(graph, initialVertexWeights(graph), vertexIds, options.parts, 0, options, rng,
       assignment);
  PartitionResult result =
      evaluateAssignment(graph, std::move(assignment), options.parts, options);
  if (result.imbalanceViolated) result = repairImbalance(graph, std::move(result), options);
  return result;
}

}  // namespace

Result<PartitionResult> partitionGraph(const Graph& graph, const PartitionOptions& options) {
  if (options.parts < 1) return makeError("parts must be >= 1");
  if (graph.numVertices() == 0) return makeError("cannot partition an empty graph");
  if (options.parts > graph.numVertices()) {
    return makeError(strFormat("cannot split %d vertices into %d parts",
                               graph.numVertices(), options.parts));
  }
  return multilevelPartition(graph, options);
}

Result<PartitionResult> exactBisection(const Graph& graph, const PartitionOptions& options) {
  const int n = graph.numVertices();
  if (n == 0) return makeError("cannot partition an empty graph");
  if (n > 22) return makeError("exactBisection is limited to 22 vertices");
  PartitionResult best;
  double bestObjective = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    // Canonical form: vertex 0 always on side 0 (halves the search).
    if (mask & 1u) continue;
    std::vector<int> assignment(static_cast<std::size_t>(n));
    int side1 = 0;
    for (int v = 0; v < n; ++v) {
      assignment[v] = (mask >> v) & 1u;
      side1 += assignment[v];
    }
    if (side1 == 0 || side1 == n) continue;  // both parts must be non-empty
    PartitionResult candidate = evaluateAssignment(graph, std::move(assignment), 2, options);
    if (candidate.imbalance() > options.maxImbalance) continue;
    if (candidate.objective < bestObjective) {
      bestObjective = candidate.objective;
      best = std::move(candidate);
    }
  }
  if (!std::isfinite(bestObjective)) {
    return makeError("no bisection satisfies the balance constraint");
  }
  return best;
}

}  // namespace sdt::partition
