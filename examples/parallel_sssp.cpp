// Batch single-source shortest paths on the parallel heap.
//
// Shortest paths and branch-and-bound are the non-simulation applications
// the parallel-heap papers motivate. This example runs Dijkstra with a
// *batch* frontier: per cycle the r tentatively-closest queue entries come
// out together, and an entry is settled if its distance is within the
// graph's minimum edge weight of the batch minimum — the same conservative
// lookahead window as the DES simulators (any future relaxation must exceed
// batch_min + w_min). Unsettled entries are deferred back into the queue;
// stale entries (already beaten) are dropped. The result is exact and is
// validated against a textbook serial Dijkstra.
//
// Build & run:  ./build/examples/parallel_sssp [grid_side]
#include <cstdio>
#include <cstdint>
#include <limits>
#include <vector>

#include "baselines/binary_heap.hpp"
#include "core/parallel_heap.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

constexpr std::uint32_t kMinW = 1, kMaxW = 10;

struct Graph {
  std::size_t n;
  // CSR-ish: 4-neighborhood grid with random weights.
  std::vector<std::uint32_t> head, dst, w;
};

Graph make_grid(std::size_t side, std::uint64_t seed) {
  ph::Xoshiro256 rng(seed);
  Graph g;
  g.n = side * side;
  g.head.assign(g.n + 1, 0);
  auto id = [side](std::size_t r, std::size_t c) { return r * side + c; };
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> adj(g.n);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      const auto u = id(r, c);
      const auto wt = [&] {
        return static_cast<std::uint32_t>(kMinW + rng.next_below(kMaxW - kMinW + 1));
      };
      if (c + 1 < side) {
        const auto v = id(r, c + 1);
        const auto x = wt();
        adj[u].push_back({static_cast<std::uint32_t>(v), x});
        adj[v].push_back({static_cast<std::uint32_t>(u), x});
      }
      if (r + 1 < side) {
        const auto v = id(r + 1, c);
        const auto x = wt();
        adj[u].push_back({static_cast<std::uint32_t>(v), x});
        adj[v].push_back({static_cast<std::uint32_t>(u), x});
      }
    }
  }
  for (std::size_t u = 0; u < g.n; ++u) {
    g.head[u + 1] = g.head[u] + static_cast<std::uint32_t>(adj[u].size());
    for (auto [v, x] : adj[u]) {
      g.dst.push_back(v);
      g.w.push_back(x);
    }
  }
  return g;
}

struct Entry {
  std::uint64_t d;
  std::uint32_t v;
};
struct ByDist {
  bool operator()(const Entry& a, const Entry& b) const { return a.d < b.d; }
};

std::vector<std::uint64_t> serial_dijkstra(const Graph& g, std::uint32_t src) {
  std::vector<std::uint64_t> dist(g.n, std::numeric_limits<std::uint64_t>::max());
  ph::BinaryHeap<Entry, ByDist> pq;
  dist[src] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    const Entry e = pq.pop();
    if (e.d != dist[e.v]) continue;  // stale
    for (std::uint32_t i = g.head[e.v]; i < g.head[e.v + 1]; ++i) {
      const std::uint64_t nd = e.d + g.w[i];
      if (nd < dist[g.dst[i]]) {
        dist[g.dst[i]] = nd;
        pq.push({nd, g.dst[i]});
      }
    }
  }
  return dist;
}

std::vector<std::uint64_t> batch_dijkstra(const Graph& g, std::uint32_t src,
                                          std::size_t r, std::uint64_t* cycles_out) {
  std::vector<std::uint64_t> dist(g.n, std::numeric_limits<std::uint64_t>::max());
  ph::ParallelHeap<Entry, ByDist> pq(r);
  dist[src] = 0;
  std::vector<Entry> fresh{{0, src}}, batch;
  std::uint64_t cycles = 0;
  while (true) {
    batch.clear();
    pq.cycle(fresh, r, batch);
    fresh.clear();
    if (batch.empty()) break;
    ++cycles;
    const std::uint64_t window = batch.front().d + kMinW;
    for (const Entry& e : batch) {
      if (e.d != dist[e.v]) continue;  // stale: a shorter path won already
      if (e.d >= window) {
        fresh.push_back(e);  // not provably settled yet: defer
        continue;
      }
      // Settled: relax. (All entries in [batch_min, batch_min + w_min) are
      // final because any later relaxation is ≥ batch_min + w_min.)
      for (std::uint32_t i = g.head[e.v]; i < g.head[e.v + 1]; ++i) {
        const std::uint64_t nd = e.d + g.w[i];
        if (nd < dist[g.dst[i]]) {
          dist[g.dst[i]] = nd;
          fresh.push_back({nd, g.dst[i]});
        }
      }
    }
  }
  if (cycles_out != nullptr) *cycles_out = cycles;
  return dist;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t side =
      argc > 1 ? ph::flag_uint("parallel_sssp", "grid_side", argv[1], 1, 4096) : 512;
  const Graph g = make_grid(side, 7);
  std::printf("grid %zux%zu: %zu vertices, %zu edges\n", side, side, g.n,
              g.dst.size() / 2);

  ph::Timer ts;
  const auto want = serial_dijkstra(g, 0);
  const double serial_s = ts.seconds();

  std::uint64_t cycles = 0;
  ph::Timer tb;
  const auto got = batch_dijkstra(g, 0, 1024, &cycles);
  const double batch_s = tb.seconds();

  const bool exact = got == want;
  std::printf("serial dijkstra : %.3fs\n", serial_s);
  std::printf("batch  dijkstra : %.3fs, %llu cycles of up to 1024 settles\n",
              batch_s, static_cast<unsigned long long>(cycles));
  std::printf("result          : %s (farthest dist %llu)\n",
              exact ? "EXACT" : "MISMATCH!",
              static_cast<unsigned long long>(want[g.n - 1]));
  return exact ? 0 : 1;
}
