// Tests for the sharded cycle's min hint (core/sharded_heap.hpp), the
// flat-combining baseline (baselines/flat_combining_pq.hpp), and the
// concurrent differential-registry entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/flat_combining_pq.hpp"
#include "core/sharded_heap.hpp"
#include "testing/op_trace.hpp"
#include "testing/oracle.hpp"
#include "testing/structures.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

using U64 = std::uint64_t;
using testing::GenConfig;
using testing::OpTrace;
using testing::SortedOracle;

// ------------------------------------------------------------ min hint

TEST(ParallelCycle, MinHintSkipsLosingShardsExactly) {
  // Seed the partition map so shard 0 owns all the small keys, then drain:
  // shards 1..2 provably lose most tournaments, so the hint skips their
  // pull/putback round-trips. Every cycle's deletions must still equal the
  // sorted-multiset oracle's, and the skips must be counted.
  ShardedHeap<U64> q(8, ShardedHeap<U64>::Config{3});
  SortedOracle oracle;
  std::vector<U64> seedv, got, want, fresh;
  for (U64 v = 0; v < 300; ++v) seedv.push_back(v * 3);
  q.build(seedv);
  oracle.cycle(seedv, 0, want);
  Xoshiro256 rng(5);
  for (int cycle = 0; cycle < 120; ++cycle) {
    fresh.clear();
    for (std::size_t i = rng.next_below(4); i > 0; --i) {
      fresh.push_back(rng.next_below(1000));
    }
    const std::size_t k = rng.next_below(9);
    got.clear();
    want.clear();
    q.cycle(fresh, k, got);
    oracle.cycle(fresh, k, want);
    ASSERT_EQ(got, want) << "cycle " << cycle;
  }
  for (int cycle = 0;; ++cycle) {
    got.clear();
    want.clear();
    const std::size_t nq = q.cycle({}, 8, got);
    const std::size_t no = oracle.cycle({}, 8, want);
    ASSERT_EQ(got, want) << "drain cycle " << cycle;
    if (nq == 0 && no == 0) break;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(q.sharded_stats().hint_skips, 0u)
      << "the hint never skipped a losing shard on this workload";
}

// ------------------------------------------------- flat-combining baseline

TEST(ParallelCycle, FlatCombiningSingleThreadIsExactPQ) {
  FlatCombiningPQ<U64> q(1);
  std::vector<U64> items;
  Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    items.push_back(rng.next_below(1u << 20));
    q.push(0, items.back());
  }
  EXPECT_EQ(q.size(), items.size());
  std::sort(items.begin(), items.end());
  for (U64 want : items) {
    U64 got = 0;
    ASSERT_TRUE(q.try_pop(0, got));
    EXPECT_EQ(got, want);
  }
  U64 none = 0;
  EXPECT_FALSE(q.try_pop(0, none));
  EXPECT_GT(q.combines(), 0u);
  EXPECT_GE(q.combined_ops(), 1000u);
}

// ------------------------------------------------- differential registry

TEST(ParallelCycle, RegistryEntriesPassDifferential) {
  // The team-driven structures ride the full adversarial differential
  // runner: the engine surface bit-exact, the flat-combining team under
  // conservation checking.
  for (const char* name : {"engine_team", "flat_combining_mt"}) {
    for (std::uint64_t seed : {11u, 47u}) {
      GenConfig gen;
      gen.r = 8;
      gen.cycles = 200;
      gen.seed = seed;
      OpTrace t = generate_trace(gen);
      t.structure = name;
      const auto f = testing::run_trace(t);
      EXPECT_FALSE(f.failed) << name << " seed " << seed << ": " << f.message;
    }
  }
}

}  // namespace
}  // namespace ph
