// Graph partitioning for multi-switch SDT (paper §IV-C).
//
// The paper's Cut(G(E,V), params...) must (1) minimize inter-switch links
// (the cut) and (2) balance per-physical-switch port usage, i.e. minimize
//     alpha * Cut(E_A, E_B) + beta * (1/|E_A| + 1/|E_B|).
// The paper uses METIS; we implement the same multilevel scheme METIS uses:
// heavy-edge-matching coarsening, greedy region-growing initial bisection,
// and Fiduccia–Mattheyses boundary refinement, applied recursively for
// k-way splits. An exact brute-force bisection is provided for tiny graphs
// (used by tests to bound the heuristic's optimality gap).
//
// Balance is measured on *weighted vertex degree* per part: a logical
// switch of degree d consumes d physical fabric ports, so the per-part
// degree sum is exactly the per-physical-switch port load the paper wants
// balanced.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "topo/graph.hpp"

namespace sdt::partition {

struct PartitionOptions {
  int parts = 2;
  /// Objective weights (paper's alpha/beta).
  double alpha = 1.0;
  double beta = 4.0;
  /// Hard cap: no part's degree-load may exceed (1+maxImbalance) * ideal.
  /// partitionGraph runs a final repair pass toward this cap and flags the
  /// result (PartitionResult::imbalanceViolated) when the cap is infeasible.
  double maxImbalance = 0.35;
  std::uint64_t seed = 1;
};

struct PartitionResult {
  std::vector<int> assignment;           ///< vertex -> part in [0, parts)
  std::int64_t cutWeight = 0;            ///< total weight of cut edges
  std::vector<std::int64_t> partLoad;    ///< degree-load (≈ ports) per part
  std::vector<std::int64_t> internalEdges;  ///< self-link count per part
  double objective = 0.0;                ///< alpha*cut + beta*sum(1/internal)
  /// True when imbalance() exceeds options.maxImbalance — the documented
  /// hard cap — even after repair (e.g. a single vertex's degree is above
  /// the cap, as with a star hub). The assignment is still the best found;
  /// callers that need the cap as a hard guarantee must check this.
  bool imbalanceViolated = false;

  /// max(partLoad)/ideal - 1; 0 means perfectly balanced.
  [[nodiscard]] double imbalance() const;
};

/// The paper's balance term for one part, beta * 1/|E_i|, which diverges as
/// |E_i| -> 0: a part with no internal edges (or no vertices at all) is an
/// idle physical switch and must never beat a balanced split on cut savings
/// alone. When beta > 0 such a part contributes a *dominating* penalty,
/// sized so that any assignment with fewer internal-edge-free parts always
/// scores strictly better than one with more (every finite objective is at
/// most alpha*totalWeight + beta*parts). Shared by evaluateAssignment and
/// the streaming evaluator so both algorithm families rank candidates
/// identically.
[[nodiscard]] double partBalancePenalty(std::int64_t internalWeight,
                                        std::int64_t totalEdgeWeight, int parts,
                                        const PartitionOptions& options);

/// K-way multilevel partition (see streaming.hpp for the single-pass
/// heuristics that partition without materializing a Graph at all). Fails
/// if the graph is empty or parts < 1. Every part is non-empty whenever
/// parts <= numVertices.
Result<PartitionResult> partitionGraph(const topo::Graph& graph,
                                       const PartitionOptions& options = {});

/// Exact minimum-objective bisection by exhaustive search. O(2^n); only
/// valid for graphs with <= 22 vertices. Used to validate the heuristic.
Result<PartitionResult> exactBisection(const topo::Graph& graph,
                                       const PartitionOptions& options = {});

/// Recompute cut/load/objective for a given assignment (shared by both
/// algorithms and by tests that hand-craft assignments).
PartitionResult evaluateAssignment(const topo::Graph& graph,
                                   std::vector<int> assignment, int parts,
                                   const PartitionOptions& options);

}  // namespace sdt::partition
