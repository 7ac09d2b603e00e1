// Tests: streaming partitioner (partition/streaming.hpp) and the EdgeStream
// generators behind it — differential checks of synthetic streams against the
// in-memory generators, every heuristic against exhaustive bisection on small
// graphs, determinism, and cut/imbalance sanity against multilevel on zoo
// topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "partition/partitioner.hpp"
#include "partition/streaming.hpp"
#include "topo/generators.hpp"
#include "topo/stream.hpp"
#include "topo/zoo.hpp"

namespace sdt::partition {
namespace {

using topo::EdgeStream;
using topo::Graph;

constexpr PartitionMethod kAllStreaming[] = {
    PartitionMethod::kLDG, PartitionMethod::kFennel, PartitionMethod::kHDRF,
    PartitionMethod::kDBH};

/// Normalized (min, max, weight) edge multiset, sorted — replay-order
/// independent equality.
using EdgeSet = std::vector<std::tuple<int, int, std::int64_t>>;

EdgeSet edgesOf(const EdgeStream& stream) {
  EdgeSet out;
  stream.forEachEdge([&](int u, int v, std::int64_t w) {
    out.emplace_back(std::min(u, v), std::max(u, v), w);
  });
  std::sort(out.begin(), out.end());
  return out;
}

EdgeSet edgesOf(const Graph& graph) {
  EdgeSet out;
  for (const topo::GraphEdge& e : graph.edges()) {
    out.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.weight);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The vertex-major replay must agree with the edge-major one: each edge seen
/// once per endpoint, weighted degrees matching, vertices in order.
void expectVertexMajorConsistent(const EdgeStream& stream) {
  const int n = stream.numVertices();
  std::vector<std::int64_t> degreeFromEdges(static_cast<std::size_t>(n), 0);
  std::int64_t edgeCount = 0, weightSum = 0;
  stream.forEachEdge([&](int u, int v, std::int64_t w) {
    ASSERT_GE(u, 0);
    ASSERT_LT(u, n);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    degreeFromEdges[u] += w;
    if (u != v) degreeFromEdges[v] += w;
    ++edgeCount;
    weightSum += w;
  });
  EXPECT_EQ(edgeCount, stream.numEdges()) << stream.name();
  EXPECT_EQ(weightSum, stream.totalWeight()) << stream.name();

  EdgeSet fromVertices;
  int nextVertex = 0;
  stream.forEachVertex([&](const topo::VertexRecord& rec) {
    ASSERT_EQ(rec.v, nextVertex++) << stream.name();
    ASSERT_EQ(rec.neighbors.size(), rec.weights.size());
    std::int64_t degree = 0;
    for (std::size_t i = 0; i < rec.neighbors.size(); ++i) {
      degree += rec.weights[i];
      if (rec.neighbors[i] >= rec.v) {
        fromVertices.emplace_back(rec.v, rec.neighbors[i], rec.weights[i]);
      }
    }
    EXPECT_EQ(degree, rec.weightedDegree) << stream.name() << " v=" << rec.v;
    EXPECT_EQ(degree, degreeFromEdges[rec.v]) << stream.name() << " v=" << rec.v;
  });
  EXPECT_EQ(nextVertex, n);
  std::sort(fromVertices.begin(), fromVertices.end());
  EXPECT_EQ(fromVertices, edgesOf(stream)) << stream.name();
}

TEST(PartitionStream, FatTreeStreamMatchesGenerator) {
  for (const int k : {2, 4, 6}) {
    const topo::FatTreeStream stream(k);
    const Graph graph = topo::makeFatTree(k).switchGraph();
    EXPECT_EQ(stream.numVertices(), graph.numVertices()) << "k=" << k;
    EXPECT_EQ(stream.numEdges(), graph.numEdges()) << "k=" << k;
    EXPECT_EQ(edgesOf(stream), edgesOf(graph)) << "k=" << k;
    expectVertexMajorConsistent(stream);
  }
}

TEST(PartitionStream, TorusStreamMatchesGenerator) {
  for (const auto& [x, y, z] : {std::tuple{2, 2, 2}, {3, 3, 3}, {4, 3, 2}}) {
    const topo::Torus3DStream stream(x, y, z);
    const Graph graph = topo::makeTorus3D(x, y, z).switchGraph();
    EXPECT_EQ(stream.numVertices(), graph.numVertices());
    EXPECT_EQ(stream.numEdges(), graph.numEdges()) << stream.name();
    EXPECT_EQ(edgesOf(stream), edgesOf(graph)) << stream.name();
    expectVertexMajorConsistent(stream);
  }
}

TEST(PartitionStream, ScaledZooStreamMatchesGenerator) {
  // One copy is exactly the catalog graph; multiple copies tile it.
  for (const int zoo : {0, 7, 42}) {
    const topo::ScaledZooStream one(zoo, 1);
    const Graph base = topo::makeZooTopology(zoo).switchGraph();
    EXPECT_EQ(one.numVertices(), base.numVertices());
    EXPECT_EQ(edgesOf(one), edgesOf(base)) << one.name();
    expectVertexMajorConsistent(one);
  }
  for (const int copies : {2, 3, 5}) {
    const topo::ScaledZooStream tiled(3, copies);
    const Graph base = topo::makeZooTopology(3).switchGraph();
    EXPECT_EQ(tiled.numVertices(), copies * base.numVertices());
    EXPECT_EQ(tiled.numEdges(),
              copies * base.numEdges() + (copies == 2 ? 1 : copies));
    expectVertexMajorConsistent(tiled);
  }
}

TEST(PartitionStream, GraphStreamRoundTrips) {
  const Graph g = topo::makeDragonfly(3, 4, 1).switchGraph();
  const topo::GraphStream stream(g, "dragonfly");
  EXPECT_EQ(edgesOf(stream), edgesOf(g));
  expectVertexMajorConsistent(stream);
}

TEST(PartitionStream, RejectsBadInputs) {
  const Graph g = topo::makeRing(6).switchGraph();
  const topo::GraphStream stream(g);
  EXPECT_FALSE(partitionStream(stream, {.parts = 0}).ok());
  EXPECT_FALSE(partitionStream(stream, {.parts = 7}).ok());
  const Graph empty{};
  const topo::GraphStream emptyStream(empty);
  EXPECT_FALSE(partitionStream(emptyStream, {.parts = 1}).ok());
}

TEST(PartitionStream, SinglePartTrivial) {
  const Graph g = topo::makeRing(6).switchGraph();
  const topo::GraphStream stream(g);
  for (const PartitionMethod m : kAllStreaming) {
    auto r = partitionStream(stream, {.method = m, .parts = 1});
    ASSERT_TRUE(r.ok()) << partitionMethodName(m);
    EXPECT_EQ(r.value().partition.cutWeight, 0);
    EXPECT_DOUBLE_EQ(r.value().replicationFactor, 1.0);
  }
}

TEST(PartitionStream, EveryHeuristicNearExactOnSmallGraphs) {
  // Two K4s joined by a bridge (planted bisection), a ring, and a small zoo
  // WAN — all <= 22 vertices so exhaustive bisection is the ground truth.
  Graph cliques(8);
  for (int base : {0, 4}) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) cliques.addEdge(base + i, base + j);
    }
  }
  cliques.addEdge(0, 4);
  const std::vector<std::pair<const char*, Graph>> cases = {
      {"cliques", cliques},
      {"ring12", topo::makeRing(12).switchGraph()},
      {"zoo5", topo::makeZooTopology(5).switchGraph()},
  };
  for (const auto& [label, graph] : cases) {
    ASSERT_LE(graph.numVertices(), 22);
    PartitionOptions opt{.parts = 2};
    const auto exact = exactBisection(graph, opt);
    ASSERT_TRUE(exact.ok()) << label;
    for (const PartitionMethod m : kAllStreaming) {
      auto r = partitionStream(topo::GraphStream(graph), {.method = m, .parts = 2});
      ASSERT_TRUE(r.ok()) << label << " " << partitionMethodName(m);
      // Bounded optimality gap: streaming sees each edge once (plus bounded
      // restreams) and cannot refine globally, but on these small structured
      // graphs it must stay within 3x of the exhaustive optimum.
      EXPECT_LE(r.value().partition.objective, 3.0 * exact.value().objective + 1e-9)
          << label << " " << partitionMethodName(m)
          << " streaming=" << r.value().partition.objective
          << " exact=" << exact.value().objective;
    }
  }
}

TEST(PartitionStream, DeterministicUnderFixedSeed) {
  const Graph g = topo::makeZooTopology(10).switchGraph();
  const topo::GraphStream stream(g);
  for (const PartitionMethod m : kAllStreaming) {
    const StreamingOptions opt{.method = m, .parts = 4, .seed = 123};
    auto a = partitionStream(stream, opt);
    auto b = partitionStream(stream, opt);
    ASSERT_TRUE(a.ok() && b.ok()) << partitionMethodName(m);
    EXPECT_EQ(a.value().partition.assignment, b.value().partition.assignment)
        << partitionMethodName(m);
    EXPECT_EQ(a.value().partition.cutWeight, b.value().partition.cutWeight);
    EXPECT_DOUBLE_EQ(a.value().replicationFactor, b.value().replicationFactor);
  }
}

TEST(PartitionStream, SanityVersusMultilevelOnZooTopologies) {
  // On real WAN graphs the streaming heuristics must stay in the same league
  // as multilevel: every part populated, imbalance within the cap unless
  // flagged, cut within a constant factor.
  for (const int zoo : {20, 60, 120}) {
    const Graph g = topo::makeZooTopology(zoo).switchGraph();
    const int parts = std::min(4, g.numVertices() / 2);
    if (parts < 2) continue;
    PartitionOptions opt{.parts = parts, .seed = 3};
    const auto multi = partitionGraph(g, opt);
    ASSERT_TRUE(multi.ok());
    for (const PartitionMethod m : kAllStreaming) {
      auto r = partitionStream(topo::GraphStream(g), {.method = m, .parts = parts, .seed = 3});
      ASSERT_TRUE(r.ok()) << partitionMethodName(m) << " zoo" << zoo;
      const PartitionResult& res = r.value().partition;
      ASSERT_EQ(res.assignment.size(), static_cast<std::size_t>(g.numVertices()));
      std::vector<int> count(static_cast<std::size_t>(parts), 0);
      for (const int p : res.assignment) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, parts);
        ++count[p];
      }
      for (int p = 0; p < parts; ++p) {
        EXPECT_GT(count[p], 0) << partitionMethodName(m) << " zoo" << zoo;
      }
      if (!res.imbalanceViolated) {
        EXPECT_LE(res.imbalance(), opt.maxImbalance + 1e-9)
            << partitionMethodName(m) << " zoo" << zoo;
      }
      // Cut sanity: within a constant factor of multilevel (which itself is
      // near-optimal on these sizes). Loose bound — streaming's contract is
      // memory, not matching FM refinement.
      EXPECT_LE(res.cutWeight, 4 * multi.value().cutWeight + 8)
          << partitionMethodName(m) << " zoo" << zoo
          << " stream=" << res.cutWeight << " multi=" << multi.value().cutWeight;
    }
  }
}

TEST(PartitionStream, ReplicationFactorSemantics) {
  const Graph g = topo::makeFatTree(6).switchGraph();
  const topo::GraphStream stream(g);
  for (const PartitionMethod m : kAllStreaming) {
    auto r = partitionStream(stream, {.method = m, .parts = 4});
    ASSERT_TRUE(r.ok()) << partitionMethodName(m);
    const bool edgeStreaming =
        m == PartitionMethod::kHDRF || m == PartitionMethod::kDBH;
    if (edgeStreaming) {
      EXPECT_GE(r.value().replicationFactor, 1.0) << partitionMethodName(m);
      EXPECT_LE(r.value().replicationFactor, 4.0) << partitionMethodName(m);
    } else {
      EXPECT_DOUBLE_EQ(r.value().replicationFactor, 1.0) << partitionMethodName(m);
    }
    EXPECT_GT(r.value().edgesStreamed, 0);
    EXPECT_GT(r.value().peakStateBytes, 0);
  }
}

TEST(PartitionStream, EvaluateStreamMatchesEvaluateAssignment) {
  const Graph g = topo::makeHypercube(4).switchGraph();
  const topo::GraphStream stream(g);
  std::vector<int> assignment(static_cast<std::size_t>(g.numVertices()));
  for (int v = 0; v < g.numVertices(); ++v) assignment[v] = v % 3;
  const PartitionOptions opt{.parts = 3};
  const auto inMemory = evaluateAssignment(g, assignment, 3, opt);
  const auto streamed = evaluateStreamAssignment(stream, assignment, 3, opt);
  EXPECT_EQ(streamed.cutWeight, inMemory.cutWeight);
  EXPECT_EQ(streamed.partLoad, inMemory.partLoad);
  EXPECT_EQ(streamed.internalEdges, inMemory.internalEdges);
  EXPECT_DOUBLE_EQ(streamed.objective, inMemory.objective);
  EXPECT_EQ(streamed.imbalanceViolated, inMemory.imbalanceViolated);
}

TEST(PartitionStream, SyntheticStreamScalesWithoutAdjacency) {
  // A 20^3 torus (8000 vertices) onto 16 parts: every heuristic must place
  // all vertices, keep parts populated, and report state far below the edge
  // set's footprint (24000 edges would be ~384 KiB as an adjacency; the
  // per-vertex tables stay within a small multiple of n).
  const topo::Torus3DStream stream(20, 20, 20);
  for (const PartitionMethod m : kAllStreaming) {
    auto r = partitionStream(stream, {.method = m, .parts = 16, .restreamPasses = 1});
    ASSERT_TRUE(r.ok()) << partitionMethodName(m);
    const StreamingResult& res = r.value();
    ASSERT_EQ(res.partition.assignment.size(), 8000u);
    std::vector<int> count(16, 0);
    for (const int p : res.partition.assignment) ++count[p];
    for (int p = 0; p < 16; ++p) EXPECT_GT(count[p], 0) << partitionMethodName(m);
    EXPECT_LT(res.peakStateBytes, 8000 * 40) << partitionMethodName(m);
  }
}

}  // namespace
}  // namespace sdt::partition
