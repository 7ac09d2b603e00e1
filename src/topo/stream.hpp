// Streamed edge iteration over logical topologies (ROADMAP item 2).
//
// A warehouse-scale logical topology (10^5-10^6 switches) is too large to
// materialize as a Topology — ports, links, and host records alone dominate
// memory — but its *switch graph* can be replayed edge-by-edge in O(1)
// generator state. EdgeStream is that replay contract: the streaming
// partitioner (partition/streaming.hpp) consumes it with O(parts) state plus
// a compact per-vertex table, never holding the adjacency in memory.
//
// Two replay orders are offered, both deterministic:
//  - edge-major: every undirected edge exactly once (HDRF/DBH consume this);
//  - vertex-major: every vertex with its full incident list, so each edge is
//    visited twice, once per endpoint (LDG/Fennel consume this). Synthetic
//    generators derive a vertex's neighborhood in O(degree) arithmetic, so
//    vertex-major replay needs no adjacency storage either.
//
// Implementations: GraphStream wraps an in-memory Graph (to run the
// streaming heuristics on a materialized topology), and
// synthetic generators mirror generators.cpp vertex-for-vertex at any scale:
// FatTreeStream(k) == makeFatTree(k).switchGraph(), Torus3DStream(x,y,z) ==
// makeTorus3D(x,y,z).switchGraph(), and ScaledZooStream tiles a zoo WAN into
// a ring of replicas (the "scaled-zoo" plant-size axis of the shootout).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "topo/graph.hpp"

namespace sdt::topo {

/// One incident record during vertex-major replay: vertex `v` with its full
/// neighbor list (parallel edges repeated). The spans alias generator
/// scratch buffers — valid only inside the visitor call.
struct VertexRecord {
  int v = 0;
  const std::vector<int>& neighbors;
  const std::vector<std::int64_t>& weights;  ///< parallel to `neighbors`
  std::int64_t weightedDegree = 0;           ///< sum of `weights`
};

class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int numVertices() const = 0;
  [[nodiscard]] virtual std::int64_t numEdges() const = 0;
  /// Sum of edge weights (streaming partitioners size part capacities from
  /// it; exact for every implementation here).
  [[nodiscard]] virtual std::int64_t totalWeight() const = 0;

  /// Edge-major replay: visit(u, v, weight) once per undirected edge, in a
  /// deterministic implementation-defined order.
  virtual void forEachEdge(
      const std::function<void(int u, int v, std::int64_t weight)>& visit) const = 0;

  /// Vertex-major replay: visit each vertex 0..n-1 in order with its full
  /// incident list (each undirected edge appears in both endpoints' lists).
  virtual void forEachVertex(const std::function<void(const VertexRecord&)>& visit) const;
};

/// Replays an in-memory Graph (borrowed; must outlive the stream).
class GraphStream final : public EdgeStream {
 public:
  explicit GraphStream(const Graph& graph, std::string name = "graph");

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int numVertices() const override { return graph_.numVertices(); }
  [[nodiscard]] std::int64_t numEdges() const override { return graph_.numEdges(); }
  [[nodiscard]] std::int64_t totalWeight() const override { return totalWeight_; }
  void forEachEdge(
      const std::function<void(int, int, std::int64_t)>& visit) const override;
  void forEachVertex(const std::function<void(const VertexRecord&)>& visit) const override;

 private:
  const Graph& graph_;
  std::string name_;
  std::int64_t totalWeight_ = 0;
};

/// Switch graph of the 3-layer Fat-Tree(k): k^2/4 cores, k pods of k/2
/// aggregation + k/2 edge switches; same vertex ids as makeFatTree.
class FatTreeStream final : public EdgeStream {
 public:
  explicit FatTreeStream(int k);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int numVertices() const override;
  [[nodiscard]] std::int64_t numEdges() const override;
  [[nodiscard]] std::int64_t totalWeight() const override { return numEdges(); }
  void forEachEdge(
      const std::function<void(int, int, std::int64_t)>& visit) const override;
  void forEachVertex(const std::function<void(const VertexRecord&)>& visit) const override;

 private:
  int k_;
};

/// Switch graph of the 3-D torus (wraparound rings, a dimension of size 2
/// contributes a single link); same vertex ids as makeTorus3D.
class Torus3DStream final : public EdgeStream {
 public:
  Torus3DStream(int xDim, int yDim, int zDim);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int numVertices() const override { return x_ * y_ * z_; }
  [[nodiscard]] std::int64_t numEdges() const override;
  [[nodiscard]] std::int64_t totalWeight() const override { return numEdges(); }
  void forEachEdge(
      const std::function<void(int, int, std::int64_t)>& visit) const override;
  void forEachVertex(const std::function<void(const VertexRecord&)>& visit) const override;

 private:
  int x_, y_, z_;
};

/// `copies` replicas of zoo catalog entry `zooIndex` (topo/zoo.hpp), stitched
/// into a ring through each replica's switch 0 (gateway). Only one replica's
/// graph is held in memory; vertex id = copy * baseVertices + localId.
class ScaledZooStream final : public EdgeStream {
 public:
  ScaledZooStream(int zooIndex, int copies);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int numVertices() const override;
  [[nodiscard]] std::int64_t numEdges() const override;
  [[nodiscard]] std::int64_t totalWeight() const override { return numEdges(); }
  void forEachEdge(
      const std::function<void(int, int, std::int64_t)>& visit) const override;
  void forEachVertex(const std::function<void(const VertexRecord&)>& visit) const override;

 private:
  int zooIndex_;
  int copies_;
  Graph base_;  ///< one replica's switch graph (small; zoo WANs are 4-754 nodes)
};

}  // namespace sdt::topo
