// Streaming graph partitioning for warehouse-scale projections (ROADMAP
// item 2, paper §IV-C at 10^5-10^6 logical switches).
//
// The multilevel partitioner holds the whole graph plus coarsening levels in
// memory; a warehouse-scale logical topology projected onto hundreds of
// physical switches needs the opposite regime: edges arrive once from a
// topo::EdgeStream, working state is O(parts) plus a compact per-vertex
// table, and quality is recovered with a bounded number of re-streaming
// passes instead of global refinement.
//
// Four classic heuristics behind one interface (the split-merge partitioner
// family's shape: one state object per method, a split() that consumes the
// stream):
//  - kLDG    (Stanton & Kliot): vertex-streaming greedy — place v on the
//            part with the most already-placed neighbors, scaled by the
//            part's remaining capacity.
//  - kFennel (Tsourakakis et al.): vertex-streaming with an interpolated
//            objective — neighbor affinity minus a gamma-power marginal
//            balance cost; subsumes LDG at one end and balanced allocation
//            at the other.
//  - kHDRF   (Petroni et al.): edge-streaming with vertex replication —
//            favors replicating high-(partial-)degree endpoints, keeping
//            low-degree vertices whole; best replication factor on skewed
//            graphs.
//  - kDBH    (Xie et al.): edge-streaming degree-based hashing — hash the
//            lower-degree endpoint; zero scoring state, one deterministic
//            pass.
//
// Vertex streamers emit a partition of vertices (cut semantics identical to
// the multilevel scheme). Edge streamers partition *edges*: a vertex whose
// edges land on several parts is replicated onto each of them, which in SDT
// terms burns extra inter-switch host ports — reported as the replication
// factor (average replicas per vertex, 1.0 = no replication). Their
// PartitionResult view assigns each vertex its weight-majority part so cut
// and imbalance stay comparable across families; with restreamPasses > 0
// that view gets one seeded restream polish (the edge placement optimizes
// replication, not the projected balance) which never worsens the objective
// and leaves the replication metric untouched.
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "partition/partitioner.hpp"
#include "topo/stream.hpp"

namespace sdt::partition {

/// Which single-shot streaming heuristic partitions the stream. kLDG/kFennel
/// stream vertices; kHDRF/kDBH stream edges and replicate cut vertices.
enum class PartitionMethod { kLDG, kFennel, kHDRF, kDBH };

[[nodiscard]] const char* partitionMethodName(PartitionMethod method);

struct StreamingOptions {
  PartitionMethod method = PartitionMethod::kLDG;
  int parts = 2;
  /// Objective weights for the reported PartitionResult (paper alpha/beta).
  double alpha = 1.0;
  double beta = 4.0;
  /// Hard capacity cap for the vertex streamers and the repair target for
  /// the edge streamers; violations surface via imbalanceViolated.
  double maxImbalance = 0.35;
  std::uint64_t seed = 1;
  /// Bounded polish: replay the stream this many extra times re-assigning
  /// with full knowledge of the previous pass (restreaming LDG/Fennel; HDRF
  /// re-runs with exact instead of partial degrees; DBH is already exact
  /// after one pass). The best pass by objective wins. 0 = single pass.
  int restreamPasses = 2;
};

struct StreamingResult {
  /// Vertex-assignment view, scored exactly like evaluateAssignment (same
  /// dominating empty-part penalty), so multilevel and streaming runs rank
  /// on one scale.
  PartitionResult partition;
  /// Average replicas per vertex (>= 1.0; exactly 1.0 for vertex streamers).
  /// For edge streamers this is the paper-facing cost of vertex cuts: each
  /// extra replica is a logical switch present on one more physical switch.
  double replicationFactor = 1.0;
  /// Edge visits across all passes (restream passes included) — the
  /// denominator of the edges/sec shootout axis.
  std::int64_t edgesStreamed = 0;
  /// Analytic peak working-state footprint: per-vertex tables + O(parts)
  /// arrays, *excluding* the assignment vector itself that every partitioner
  /// must return. The whole point of streaming: this never includes the
  /// edge set.
  std::int64_t peakStateBytes = 0;
  int passes = 1;
};

/// Partition a streamed graph. Fails on parts < 1, an empty stream, or
/// parts > numVertices.
Result<StreamingResult> partitionStream(const topo::EdgeStream& stream,
                                        const StreamingOptions& options);

/// Score a hand-built vertex assignment against a stream without
/// materializing a Graph: one edge-major replay, O(parts) state. The
/// streaming analog of evaluateAssignment (identical scoring).
PartitionResult evaluateStreamAssignment(const topo::EdgeStream& stream,
                                         std::vector<int> assignment, int parts,
                                         const PartitionOptions& options);

}  // namespace sdt::partition
