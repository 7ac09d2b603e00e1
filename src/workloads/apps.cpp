#include "workloads/apps.hpp"

#include <cassert>
#include <cmath>

#include "common/strings.hpp"

namespace sdt::workloads {

namespace {
std::vector<Program> emptyPrograms(int ranks) {
  return std::vector<Program>(static_cast<std::size_t>(ranks));
}
}  // namespace

void addAlltoall(std::vector<Program>& programs, std::int64_t msgBytes, int& tag) {
  const int n = static_cast<int>(programs.size());
  const int base = tag;
  for (int r = 0; r < n; ++r) {
    // Post all sends eagerly, then drain the receives: classic pairwise
    // exchange without per-phase synchronization.
    for (int p = 1; p < n; ++p) {
      programs[r].push_back(Op::send((r + p) % n, msgBytes, base + p));
    }
    for (int p = 1; p < n; ++p) {
      programs[r].push_back(Op::recv((r - p + n) % n, base + p));
    }
  }
  tag += n;
}

void addRingAllreduce(std::vector<Program>& programs, std::int64_t totalBytes, int& tag) {
  const int n = static_cast<int>(programs.size());
  if (n < 2) return;
  const std::int64_t chunk = std::max<std::int64_t>(1, totalBytes / n);
  // reduce-scatter then allgather: 2(n-1) steps, each rank sends a chunk to
  // its right neighbor and receives from its left.
  for (int step = 0; step < 2 * (n - 1); ++step) {
    for (int r = 0; r < n; ++r) {
      programs[r].push_back(Op::send((r + 1) % n, chunk, tag + step));
      programs[r].push_back(Op::recv((r - 1 + n) % n, tag + step));
    }
  }
  tag += 2 * (n - 1);
}

void addSmallAllreduce(std::vector<Program>& programs, std::int64_t bytes, int& tag) {
  const int n = static_cast<int>(programs.size());
  if (n < 2) return;
  if ((n & (n - 1)) != 0) {
    addRingAllreduce(programs, bytes, tag);
    return;
  }
  for (int bit = 1; bit < n; bit <<= 1) {
    for (int r = 0; r < n; ++r) {
      const int peer = r ^ bit;
      programs[r].push_back(Op::send(peer, bytes, tag));
      programs[r].push_back(Op::recv(peer, tag));
    }
    ++tag;
  }
}

void addBinomialBcast(std::vector<Program>& programs, int root, std::int64_t bytes,
                      int& tag) {
  const int n = static_cast<int>(programs.size());
  // Relative rank rr = (rank - root) mod n; in round k, ranks rr < 2^k with
  // rr + 2^k < n send to rr + 2^k.
  for (int bit = 1; bit < n; bit <<= 1) {
    for (int rr = 0; rr < bit && rr + bit < n; ++rr) {
      const int sender = (root + rr) % n;
      const int receiver = (root + rr + bit) % n;
      programs[sender].push_back(Op::send(receiver, bytes, tag));
      programs[receiver].push_back(Op::recv(sender, tag));
    }
    ++tag;
  }
}

void processGrid3D(int ranks, int& px, int& py, int& pz) {
  px = py = pz = 1;
  int rest = ranks;
  // Peel the largest factor <= cube root repeatedly.
  const auto largestFactorLe = [](int v, int cap) {
    for (int f = cap; f >= 1; --f) {
      if (v % f == 0) return f;
    }
    return 1;
  };
  pz = largestFactorLe(rest, static_cast<int>(std::cbrt(static_cast<double>(rest))));
  rest /= pz;
  py = largestFactorLe(rest, static_cast<int>(std::sqrt(static_cast<double>(rest))));
  px = rest / py;
  if (px < py) std::swap(px, py);
  if (py < pz) std::swap(py, pz);
  if (px < py) std::swap(px, py);
  assert(px * py * pz == ranks);
}

void addHaloExchange3D(std::vector<Program>& programs, int px, int py, int pz,
                       std::int64_t faceBytes, int& tag) {
  assert(static_cast<int>(programs.size()) == px * py * pz);
  const auto id = [&](int x, int y, int z) { return (z * py + y) * px + x; };
  const int base = tag;
  for (int z = 0; z < pz; ++z) {
    for (int y = 0; y < py; ++y) {
      for (int x = 0; x < px; ++x) {
        const int me = id(x, y, z);
        // (neighbor, direction-tag) pairs; tags distinguish the 6 faces.
        std::vector<std::pair<int, int>> sends;
        std::vector<std::pair<int, int>> recvs;
        const auto face = [&](int nx, int ny, int nz, int sendDir, int recvDir) {
          if (nx < 0 || nx >= px || ny < 0 || ny >= py || nz < 0 || nz >= pz) return;
          const int peer = id(nx, ny, nz);
          sends.emplace_back(peer, base + sendDir);
          recvs.emplace_back(peer, base + recvDir);
        };
        face(x - 1, y, z, 0, 1);  // send -x face; receive peer's +x face
        face(x + 1, y, z, 1, 0);
        face(x, y - 1, z, 2, 3);
        face(x, y + 1, z, 3, 2);
        face(x, y, z - 1, 4, 5);
        face(x, y, z + 1, 5, 4);
        for (const auto& [peer, t] : sends) programs[me].push_back(Op::send(peer, faceBytes, t));
        for (const auto& [peer, t] : recvs) programs[me].push_back(Op::recv(peer, t));
      }
    }
  }
  tag += 6;
}

void addBarrier(std::vector<Program>& programs) {
  for (Program& p : programs) p.push_back(Op::barrier());
}

void addCompute(std::vector<Program>& programs, TimeNs ns) {
  for (Program& p : programs) p.push_back(Op::compute(ns));
}

Workload imbPingpong(int ranks, std::int64_t msgBytes, int iterations) {
  assert(ranks >= 2);
  Workload w;
  w.name = strFormat("imb-pingpong-%lldB-x%d", static_cast<long long>(msgBytes),
                     iterations);
  w.perRank = emptyPrograms(ranks);
  for (int i = 0; i < iterations; ++i) {
    w.perRank[0].push_back(Op::send(1, msgBytes, i));
    w.perRank[1].push_back(Op::recv(0, i));
    w.perRank[1].push_back(Op::send(0, msgBytes, i));
    w.perRank[0].push_back(Op::recv(1, i));
  }
  return w;
}

Workload imbAlltoall(int ranks, std::int64_t msgBytes, int iterations) {
  Workload w;
  w.name = strFormat("imb-alltoall-%dr-%lldB-x%d", ranks,
                     static_cast<long long>(msgBytes), iterations);
  w.perRank = emptyPrograms(ranks);
  int tag = 0;
  for (int i = 0; i < iterations; ++i) {
    addAlltoall(w.perRank, msgBytes, tag);
    addBarrier(w.perRank);
  }
  return w;
}

Workload hpcg(int ranks, const HpcgParams& params) {
  Workload w;
  w.name = strFormat("hpcg-%dr", ranks);
  w.perRank = emptyPrograms(ranks);
  int px, py, pz;
  processGrid3D(ranks, px, py, pz);
  int tag = 0;
  for (int it = 0; it < params.iterations; ++it) {
    addCompute(w.perRank, params.computePerIteration);
    addHaloExchange3D(w.perRank, px, py, pz, params.faceBytes, tag);
    // Two dot-product allreduces per CG-flavored iteration (8-byte scalars,
    // ring algorithm degenerates to tiny messages).
    addSmallAllreduce(w.perRank, 8 * ranks, tag);
    addSmallAllreduce(w.perRank, 8 * ranks, tag);
  }
  return w;
}

Workload hpl(int ranks, const HplParams& params) {
  Workload w;
  w.name = strFormat("hpl-%dr", ranks);
  w.perRank = emptyPrograms(ranks);
  int tag = 0;
  for (int panel = 0; panel < params.panels; ++panel) {
    // Panel factorization + broadcast, then the big trailing update. The
    // panel shrinks as the factorization proceeds.
    const double shrink =
        1.0 - static_cast<double>(panel) / (2.0 * static_cast<double>(params.panels));
    const auto bytes = static_cast<std::int64_t>(
        static_cast<double>(params.panelBytes) * shrink);
    addBinomialBcast(w.perRank, panel % ranks, std::max<std::int64_t>(bytes, 1024), tag);
    addCompute(w.perRank,
               static_cast<TimeNs>(static_cast<double>(params.computePerPanel) * shrink *
                                   shrink));
  }
  return w;
}

Workload miniGhost(int ranks, const MiniGhostParams& params) {
  Workload w;
  w.name = strFormat("minighost-%dr", ranks);
  w.perRank = emptyPrograms(ranks);
  int px, py, pz;
  processGrid3D(ranks, px, py, pz);
  int tag = 0;
  for (int it = 0; it < params.iterations; ++it) {
    addCompute(w.perRank, params.computePerIteration);
    addHaloExchange3D(w.perRank, px, py, pz, params.faceBytes, tag);
    // BSPMA flavor: one global reduction per step (grid checksum).
    addSmallAllreduce(w.perRank, 8 * ranks, tag);
  }
  return w;
}

Workload miniFe(int ranks, const MiniFeParams& params) {
  Workload w;
  w.name = strFormat("minife-%dr", ranks);
  w.perRank = emptyPrograms(ranks);
  int px, py, pz;
  processGrid3D(ranks, px, py, pz);
  int tag = 0;
  for (int it = 0; it < params.cgIterations; ++it) {
    addCompute(w.perRank, params.computePerIteration);
    addHaloExchange3D(w.perRank, px, py, pz, params.haloBytes, tag);
    addSmallAllreduce(w.perRank, 8 * ranks, tag);
    addSmallAllreduce(w.perRank, 8 * ranks, tag);
  }
  return w;
}

}  // namespace sdt::workloads
