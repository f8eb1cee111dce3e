// Best-first branch-and-bound 0/1 knapsack on the parallel heap.
//
// Branch-and-bound is the other application family the Parallel Heap papers
// target (alongside DES): the open list is a priority queue ordered by bound,
// and a batch structure lets many workers expand the most promising subtree
// nodes simultaneously. Here the engine's think workers expand the r
// best-bound nodes per cycle, pruning against a shared incumbent.
//
// The result is validated against an exact dynamic-programming solution.
//
// Build & run:  ./build/examples/branch_and_bound [items seed]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

struct Item {
  int value;
  int weight;
};

struct Node {
  double bound = 0;  // fractional-relaxation upper bound from this node
  int level = 0;     // next item index to decide
  int value = 0;
  int weight = 0;
};

/// Max-queue on the bound: "min" under this comparator is the best bound.
struct ByBoundDesc {
  bool operator()(const Node& a, const Node& b) const { return a.bound > b.bound; }
};

/// Fractional (LP-relaxation) bound: greedily fill remaining capacity with
/// items sorted by density, splitting the last one.
double fractional_bound(const Node& n, const std::vector<Item>& items, int capacity) {
  double bound = n.value;
  int w = n.weight;
  for (std::size_t i = static_cast<std::size_t>(n.level); i < items.size(); ++i) {
    if (w + items[i].weight <= capacity) {
      w += items[i].weight;
      bound += items[i].value;
    } else {
      bound += items[i].value * static_cast<double>(capacity - w) / items[i].weight;
      break;
    }
  }
  return bound;
}

/// Exact DP reference.
int knapsack_dp(const std::vector<Item>& items, int capacity) {
  std::vector<int> best(static_cast<std::size_t>(capacity) + 1, 0);
  for (const Item& it : items) {
    for (int w = capacity; w >= it.weight; --w) {
      best[static_cast<std::size_t>(w)] =
          std::max(best[static_cast<std::size_t>(w)],
                   best[static_cast<std::size_t>(w - it.weight)] + it.value);
    }
  }
  return best[static_cast<std::size_t>(capacity)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ph;

  const int n_items =
      argc > 1 ? static_cast<int>(flag_uint("branch_and_bound", "items", argv[1], 1, 1000))
               : 36;
  const std::uint64_t seed =
      argc > 2 ? flag_uint("branch_and_bound", "seed", argv[2], 0, UINT64_MAX) : 5;

  // Correlated instance (weights ~ values) — the hard kind for B&B.
  Xoshiro256 rng(seed);
  std::vector<Item> items(static_cast<std::size_t>(n_items));
  int total_weight = 0;
  for (auto& it : items) {
    it.weight = 20 + static_cast<int>(rng.next_below(80));
    it.value = it.weight + static_cast<int>(rng.next_below(30));
    total_weight += it.weight;
  }
  const int capacity = total_weight / 2;
  // Density order maximizes bound tightness.
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return static_cast<double>(a.value) / a.weight >
           static_cast<double>(b.value) / b.weight;
  });

  const int optimal = knapsack_dp(items, capacity);

  std::atomic<int> incumbent{0};
  std::atomic<std::uint64_t> expanded{0};

  EngineConfig cfg;
  cfg.node_capacity = 128;  // expand up to 128 best-bound nodes per cycle
  cfg.think_threads = 2;
  ParallelHeapEngine<Node, ByBoundDesc> engine(cfg);

  Node root;
  root.bound = fractional_bound(root, items, capacity);
  engine.seed(std::vector<Node>{root});

  const EngineReport rep = engine.run([&](unsigned, std::span<const Node> mine,
                                          std::span<const Node>,
                                          std::vector<Node>& out) {
    for (const Node& n : mine) {
      // Prune: bound can't beat the incumbent (monotone non-increasing down
      // any path, so children are pruned too).
      if (n.bound <= incumbent.load(std::memory_order_relaxed)) continue;
      expanded.fetch_add(1, std::memory_order_relaxed);
      if (n.level == n_items) continue;
      const Item& it = items[static_cast<std::size_t>(n.level)];
      // Child 1: take the item (if it fits).
      if (n.weight + it.weight <= capacity) {
        Node take{0, n.level + 1, n.value + it.value, n.weight + it.weight};
        take.bound = fractional_bound(take, items, capacity);
        int best = incumbent.load(std::memory_order_relaxed);
        while (take.value > best &&
               !incumbent.compare_exchange_weak(best, take.value,
                                                std::memory_order_relaxed)) {
        }
        if (take.bound > incumbent.load(std::memory_order_relaxed)) {
          out.push_back(take);
        }
      }
      // Child 2: skip the item.
      Node skip{0, n.level + 1, n.value, n.weight};
      skip.bound = fractional_bound(skip, items, capacity);
      if (skip.bound > incumbent.load(std::memory_order_relaxed)) {
        out.push_back(skip);
      }
    }
  });

  std::printf("knapsack: %d items, capacity %d\n", n_items, capacity);
  std::printf("B&B best value  : %d\n", incumbent.load());
  std::printf("DP optimum      : %d   %s\n", optimal,
              incumbent.load() == optimal ? "(match)" : "(MISMATCH!)");
  std::printf("nodes expanded  : %llu in %llu cycles, %.3fs\n",
              static_cast<unsigned long long>(expanded.load()),
              static_cast<unsigned long long>(rep.cycles), rep.seconds);
  return incumbent.load() == optimal ? 0 : 1;
}
