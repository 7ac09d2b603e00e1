#include "partition/streaming.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace sdt::partition {

using topo::EdgeStream;
using topo::VertexRecord;

namespace {

/// Fennel's gamma (> 1); 1.5 is the paper's default.
constexpr double kFennelGamma = 1.5;
/// HDRF's balance weight lambda (>= 0); 1.0 is the paper's default.
constexpr double kHdrfLambda = 1.0;

PartitionOptions scoringOptions(const StreamingOptions& options) {
  PartitionOptions po;
  po.parts = options.parts;
  po.alpha = options.alpha;
  po.beta = options.beta;
  po.maxImbalance = options.maxImbalance;
  po.seed = options.seed;
  return po;
}

/// Every part must be non-empty whenever parts <= numVertices — same
/// guarantee the multilevel scheme gives. Steal the lightest vertices (by
/// weighted degree) from the most-populated parts; deterministic.
void ensureNonEmptyParts(std::vector<int>& assignment,
                         const std::vector<std::int64_t>& degree, int parts) {
  const int n = static_cast<int>(assignment.size());
  if (parts > n) return;
  std::vector<int> count(static_cast<std::size_t>(parts), 0);
  for (const int p : assignment) ++count[p];
  for (int p = 0; p < parts; ++p) {
    while (count[p] == 0) {
      int donor = -1;
      int bestV = -1;
      for (int v = 0; v < n; ++v) {
        const int q = assignment[v];
        if (count[q] <= 1) continue;
        if (bestV == -1 || count[q] > count[donor] ||
            (count[q] == count[donor] && degree[v] < degree[bestV])) {
          donor = q;
          bestV = v;
        }
      }
      assert(bestV != -1 && "parts <= n guarantees a donor part with >= 2 vertices");
      assignment[bestV] = p;
      --count[donor];
      ++count[p];
    }
  }
}

// ---------------------------------------------------------------------------
// Vertex streamers: LDG and Fennel share the pass loop and differ only in
// the placement score.

class VertexStreamer {
 public:
  /// `seedView`, when non-empty, is a complete assignment to polish: it is
  /// scored as the first candidate (so polishing can only improve the
  /// objective) and every pass restreams from it instead of placing cold.
  /// Used to rebalance the edge streamers' majority vertex view.
  VertexStreamer(const EdgeStream& stream, const StreamingOptions& options,
                 std::vector<int> seedView = {})
      : stream_(stream),
        seedView_(std::move(seedView)),
        options_(options),
        n_(stream.numVertices()),
        parts_(options.parts),
        assignment_(static_cast<std::size_t>(n_), -1),
        degree_(static_cast<std::size_t>(n_), 0),
        load_(static_cast<std::size_t>(parts_), 0),
        neighborWeight_(static_cast<std::size_t>(parts_), 0) {
    const std::int64_t totalLoad = 2 * stream.totalWeight();
    ideal_ = static_cast<double>(totalLoad) / static_cast<double>(parts_);
    capacity_ = (1.0 + options.maxImbalance) * ideal_;
    // Fennel's alpha, normalized so the total balance cost of a perfectly
    // balanced assignment equals the total edge weight (the classic
    // sqrt(k)*m/n^1.5 normalization expressed in degree-load units).
    fennelLambda_ = static_cast<double>(stream.totalWeight()) /
                    static_cast<double>(parts_);
  }

  StreamingResult run() {
    StreamingResult best;
    best.partition.objective = std::numeric_limits<double>::infinity();
    const int passes = 1 + std::max(0, options_.restreamPasses);
    std::int64_t edgesStreamed = 0;
    const bool seeded = !seedView_.empty();
    if (seeded) {
      // Adopt the seed as pass 0: load per-vertex degrees and part loads,
      // and score it so a polish pass that helps nothing keeps the seed.
      assignment_ = seedView_;
      stream_.forEachVertex([&](const VertexRecord& rec) {
        degree_[rec.v] = rec.weightedDegree;
        load_[assignment_[rec.v]] += rec.weightedDegree;
      });
      edgesStreamed += 2 * stream_.numEdges();
      std::vector<int> view = assignment_;
      ensureNonEmptyParts(view, degree_, parts_);
      best.partition = evaluateStreamAssignment(stream_, std::move(view), parts_,
                                                scoringOptions(options_));
      edgesStreamed += stream_.numEdges();
    }
    for (int pass = 0; pass < passes; ++pass) {
      runPass(seeded || pass > 0);
      edgesStreamed += 2 * stream_.numEdges();  // both endpoints visit
      std::vector<int> view = assignment_;
      ensureNonEmptyParts(view, degree_, parts_);
      PartitionResult scored = evaluateStreamAssignment(
          stream_, std::move(view), parts_, scoringOptions(options_));
      edgesStreamed += stream_.numEdges();  // scoring replay
      if (scored.objective < best.partition.objective) {
        best.partition = std::move(scored);
        best.passes = pass + 1;
      }
    }
    best.edgesStreamed = edgesStreamed;
    best.replicationFactor = 1.0;
    // assignment (4B) + degree table (8B) per vertex; loads + scratch per part.
    best.peakStateBytes =
        static_cast<std::int64_t>(n_) * (4 + 8 + 4) +  // + best-view copy
        static_cast<std::int64_t>(parts_) * (8 + 8);
    return best;
  }

 private:
  void runPass(bool restream) {
    stream_.forEachVertex([&](const VertexRecord& rec) {
      degree_[rec.v] = rec.weightedDegree;
      if (restream) load_[assignment_[rec.v]] -= rec.weightedDegree;
      // Gather affinity toward parts holding already-placed neighbors.
      touched_.clear();
      for (std::size_t i = 0; i < rec.neighbors.size(); ++i) {
        const int u = rec.neighbors[i];
        if (u == rec.v) continue;
        const int p = assignment_[u];
        if (p < 0) continue;
        if (neighborWeight_[p] == 0) touched_.push_back(p);
        neighborWeight_[p] += rec.weights[i];
      }
      const int p = place(rec.weightedDegree);
      assignment_[rec.v] = p;
      load_[p] += rec.weightedDegree;
      for (const int t : touched_) neighborWeight_[t] = 0;
    });
  }

  /// Argmax of the method score over parts under the hard capacity cap;
  /// falls back to the least-loaded part when every part is at capacity.
  int place(std::int64_t vertexLoad) const {
    int best = -1;
    double bestScore = 0.0;
    int leastLoaded = 0;
    for (int p = 0; p < parts_; ++p) {
      if (load_[p] < load_[leastLoaded]) leastLoaded = p;
      if (static_cast<double>(load_[p] + vertexLoad) > capacity_) continue;
      const double score = options_.method == PartitionMethod::kLDG
                               ? ldgScore(p)
                               : fennelScore(p, vertexLoad);
      if (best == -1 || score > bestScore ||
          (score == bestScore && load_[p] < load_[best])) {
        best = p;
        bestScore = score;
      }
    }
    return best == -1 ? leastLoaded : best;
  }

  [[nodiscard]] double ldgScore(int p) const {
    const double slack = 1.0 - static_cast<double>(load_[p]) / capacity_;
    return static_cast<double>(neighborWeight_[p]) * slack;
  }

  [[nodiscard]] double fennelScore(int p, std::int64_t vertexLoad) const {
    const double x = static_cast<double>(load_[p]) / ideal_;
    const double dx = static_cast<double>(vertexLoad) / ideal_;
    const double marginal = std::pow(x + dx, kFennelGamma) - std::pow(x, kFennelGamma);
    return static_cast<double>(neighborWeight_[p]) - fennelLambda_ * marginal;
  }

  const EdgeStream& stream_;
  std::vector<int> seedView_;
  const StreamingOptions& options_;
  int n_;
  int parts_;
  std::vector<int> assignment_;
  std::vector<std::int64_t> degree_;
  std::vector<std::int64_t> load_;
  std::vector<std::int64_t> neighborWeight_;  // scratch, zeroed via touched_
  std::vector<int> touched_;
  double ideal_ = 0.0;
  double capacity_ = 0.0;
  double fennelLambda_ = 0.0;
};

// ---------------------------------------------------------------------------
// Edge streamers: HDRF and DBH place *edges* and replicate vertices. The
// per-vertex table holds a replica bitset (ceil(parts/64) words), the
// streamed partial degree, and a Boyer-Moore majority sketch that names the
// vertex's weight-majority part without O(parts) counters per vertex.

class EdgeStreamer {
 public:
  EdgeStreamer(const EdgeStream& stream, const StreamingOptions& options)
      : stream_(stream),
        options_(options),
        n_(stream.numVertices()),
        parts_(options.parts),
        words_(static_cast<std::size_t>((parts_ + 63) / 64)),
        degree_(static_cast<std::size_t>(n_), 0),
        weightedDegree_(static_cast<std::size_t>(n_), 0),
        replicas_(static_cast<std::size_t>(n_) * words_, 0),
        majorityPart_(static_cast<std::size_t>(n_), -1),
        majorityCount_(static_cast<std::size_t>(n_), 0),
        load_(static_cast<std::size_t>(parts_), 0) {}

  StreamingResult run() {
    StreamingResult best;
    best.partition.objective = std::numeric_limits<double>::infinity();
    double bestReplication = std::numeric_limits<double>::infinity();
    // DBH needs exact degrees before placing anything: one counting pass.
    // HDRF streams with *partial* degrees on pass 1; each restream re-places
    // the edges with the now-exact degrees.
    std::int64_t edgesStreamed = 0;
    const bool dbh = options_.method == PartitionMethod::kDBH;
    if (dbh) {
      stream_.forEachEdge([&](int u, int v, std::int64_t w) {
        ++degree_[u];
        ++degree_[v];
        weightedDegree_[u] += w;
        weightedDegree_[v] += w;
      });
      edgesStreamed += stream_.numEdges();
    }
    // DBH is deterministic once degrees are known: restreams are a no-op.
    const int passes = dbh ? 1 : 1 + std::max(0, options_.restreamPasses);
    for (int pass = 0; pass < passes; ++pass) {
      resetPlacement();
      const bool exactDegrees = dbh || pass > 0;
      stream_.forEachEdge([&](int u, int v, std::int64_t w) {
        if (!exactDegrees) {  // HDRF pass 1: degrees grow with the stream
          ++degree_[u];
          ++degree_[v];
          weightedDegree_[u] += w;
          weightedDegree_[v] += w;
        }
        const int p = dbh ? placeDbh(u, v) : placeHdrf(u, v);
        placeEdge(u, v, w, p);
      });
      edgesStreamed += stream_.numEdges();
      // Finalize a vertex view: majority part, isolated vertices onto the
      // lightest part.
      std::vector<int> view(static_cast<std::size_t>(n_));
      std::int64_t replicaBits = 0;
      for (int v = 0; v < n_; ++v) {
        int p = majorityPart_[v];
        if (p < 0) {
          p = static_cast<int>(std::min_element(load_.begin(), load_.end()) -
                               load_.begin());
        }
        view[v] = p;
        replicaBits += std::max<std::int64_t>(1, replicaCount(v));
      }
      ensureNonEmptyParts(view, weightedDegree_, parts_);
      const double replication =
          static_cast<double>(replicaBits) / static_cast<double>(n_);
      PartitionResult scored = evaluateStreamAssignment(
          stream_, std::move(view), parts_, scoringOptions(options_));
      edgesStreamed += stream_.numEdges();  // scoring replay
      if (replication < bestReplication ||
          (replication == bestReplication &&
           scored.objective < best.partition.objective)) {
        bestReplication = replication;
        best.partition = std::move(scored);
        best.replicationFactor = replication;
        best.passes = pass + 1;
      }
    }
    best.edgesStreamed = edgesStreamed;
    best.peakStateBytes =
        static_cast<std::int64_t>(n_) *
            (4 + 8 + static_cast<std::int64_t>(words_) * 8 + 4 + 8 + 4) +
        static_cast<std::int64_t>(parts_) * 8;
    return best;
  }

 private:
  void resetPlacement() {
    std::fill(replicas_.begin(), replicas_.end(), std::uint64_t{0});
    std::fill(majorityPart_.begin(), majorityPart_.end(), -1);
    std::fill(majorityCount_.begin(), majorityCount_.end(), std::int64_t{0});
    std::fill(load_.begin(), load_.end(), std::int64_t{0});
  }

  [[nodiscard]] bool hasReplica(int v, int p) const {
    return (replicas_[static_cast<std::size_t>(v) * words_ +
                      static_cast<std::size_t>(p) / 64] >>
            (static_cast<unsigned>(p) % 64)) &
           1u;
  }

  void addReplica(int v, int p) {
    replicas_[static_cast<std::size_t>(v) * words_ + static_cast<std::size_t>(p) / 64] |=
        std::uint64_t{1} << (static_cast<unsigned>(p) % 64);
  }

  [[nodiscard]] std::int64_t replicaCount(int v) const {
    std::int64_t bits = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      bits += std::popcount(replicas_[static_cast<std::size_t>(v) * words_ + w]);
    }
    return bits;
  }

  /// HDRF: argmax of CREP + lambda * CBAL over all parts (Petroni et al.,
  /// eq. 3-5), deterministic lowest-index tie-break.
  int placeHdrf(int u, int v) {
    const double du = static_cast<double>(degree_[u]);
    const double dv = static_cast<double>(degree_[v]);
    const double thetaU = du / (du + dv);
    const double thetaV = 1.0 - thetaU;
    std::int64_t maxLoad = load_[0];
    std::int64_t minLoad = load_[0];
    for (int p = 1; p < parts_; ++p) {
      maxLoad = std::max(maxLoad, load_[p]);
      minLoad = std::min(minLoad, load_[p]);
    }
    const double spread = 1e-9 + static_cast<double>(maxLoad - minLoad);
    int best = 0;
    double bestScore = -std::numeric_limits<double>::infinity();
    for (int p = 0; p < parts_; ++p) {
      double crep = 0.0;
      if (hasReplica(u, p)) crep += 1.0 + (1.0 - thetaU);
      if (hasReplica(v, p)) crep += 1.0 + (1.0 - thetaV);
      const double cbal = kHdrfLambda * static_cast<double>(maxLoad - load_[p]) / spread;
      const double score = crep + cbal;
      if (score > bestScore) {
        bestScore = score;
        best = p;
      }
    }
    return best;
  }

  /// DBH: hash the lower-degree endpoint (ties toward the smaller id).
  int placeDbh(int u, int v) const {
    const int pick =
        degree_[u] < degree_[v] ? u : (degree_[v] < degree_[u] ? v : std::min(u, v));
    return static_cast<int>(detail::mixSeed(options_.seed, static_cast<std::uint64_t>(pick)) %
                            static_cast<std::uint64_t>(parts_));
  }

  void placeEdge(int u, int v, std::int64_t w, int p) {
    addReplica(u, p);
    addReplica(v, p);
    load_[p] += w;
    updateMajority(u, p, w);
    if (v != u) updateMajority(v, p, w);
  }

  void updateMajority(int v, int p, std::int64_t w) {
    if (majorityPart_[v] == p) {
      majorityCount_[v] += w;
    } else if (majorityCount_[v] >= w) {
      majorityCount_[v] -= w;
    } else {
      majorityPart_[v] = p;
      majorityCount_[v] = w - majorityCount_[v];
    }
  }

  const EdgeStream& stream_;
  const StreamingOptions& options_;
  int n_;
  int parts_;
  std::size_t words_;
  std::vector<std::int32_t> degree_;
  std::vector<std::int64_t> weightedDegree_;
  std::vector<std::uint64_t> replicas_;
  std::vector<std::int32_t> majorityPart_;
  std::vector<std::int64_t> majorityCount_;
  std::vector<std::int64_t> load_;  // edge weight placed per part
};

}  // namespace

const char* partitionMethodName(PartitionMethod method) {
  switch (method) {
    case PartitionMethod::kLDG: return "ldg";
    case PartitionMethod::kFennel: return "fennel";
    case PartitionMethod::kHDRF: return "hdrf";
    case PartitionMethod::kDBH: return "dbh";
  }
  return "unknown";
}

PartitionResult evaluateStreamAssignment(const EdgeStream& stream,
                                         std::vector<int> assignment, int parts,
                                         const PartitionOptions& options) {
  PartitionResult result;
  result.assignment = std::move(assignment);
  result.partLoad.assign(static_cast<std::size_t>(parts), 0);
  result.internalEdges.assign(static_cast<std::size_t>(parts), 0);
  std::int64_t totalWeight = 0;
  stream.forEachEdge([&](int u, int v, std::int64_t w) {
    const int pu = result.assignment[u];
    const int pv = result.assignment[v];
    totalWeight += w;
    result.partLoad[pu] += w;
    result.partLoad[pv] += w;
    if (pu == pv) {
      result.internalEdges[pu] += w;
    } else {
      result.cutWeight += w;
    }
  });
  double balancePenalty = 0.0;
  for (const std::int64_t internal : result.internalEdges) {
    balancePenalty += partBalancePenalty(internal, totalWeight, parts, options);
  }
  result.objective = options.alpha * static_cast<double>(result.cutWeight) +
                     options.beta * balancePenalty;
  result.imbalanceViolated = result.imbalance() > options.maxImbalance + 1e-9;
  return result;
}

Result<StreamingResult> partitionStream(const EdgeStream& stream,
                                        const StreamingOptions& options) {
  if (options.parts < 1) return makeError("parts must be >= 1");
  if (stream.numVertices() == 0) return makeError("cannot partition an empty stream");
  if (options.parts > stream.numVertices()) {
    return makeError(strFormat("cannot split %d vertices into %d parts",
                               stream.numVertices(), options.parts));
  }
  if (options.parts == 1) {
    StreamingResult r;
    r.partition = evaluateStreamAssignment(
        stream, std::vector<int>(static_cast<std::size_t>(stream.numVertices()), 0), 1,
        scoringOptions(options));
    r.edgesStreamed = stream.numEdges();
    r.peakStateBytes = static_cast<std::int64_t>(stream.numVertices()) * 4;
    return r;
  }
  switch (options.method) {
    case PartitionMethod::kLDG:
    case PartitionMethod::kFennel:
      return VertexStreamer(stream, options).run();
    case PartitionMethod::kHDRF:
    case PartitionMethod::kDBH: {
      StreamingResult result = EdgeStreamer(stream, options).run();
      if (options.restreamPasses > 0) {
        // Bounded restream polish of the majority vertex view: the edge
        // placement optimizes replication, so its vertex projection can be
        // badly unbalanced (a part with few primary vertices). One seeded
        // LDG restream pass rebalances it; the seed is scored first, so the
        // polished view never loses to the raw majority view. Replication
        // factor stays the edge-placement metric.
        StreamingOptions polish = options;
        polish.method = PartitionMethod::kLDG;
        polish.restreamPasses = 0;  // one pass over the seed
        StreamingResult polished =
            VertexStreamer(stream, polish, result.partition.assignment).run();
        result.edgesStreamed += polished.edgesStreamed;
        result.peakStateBytes = std::max(result.peakStateBytes, polished.peakStateBytes);
        if (polished.partition.objective < result.partition.objective) {
          result.partition = std::move(polished.partition);
          ++result.passes;
        }
      }
      return result;
    }
  }
  return makeError("unknown partition method");
}

}  // namespace sdt::partition
