// Tests for the sharded cycle's refinements and E15's baselines
// (core/sharded_heap.hpp): the cross-shard min hint's exactness and putback
// reduction, the timestamp-band DES routing, the flat-combining frontend,
// and the concurrent differential-registry entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sharded_heap.hpp"
#include "sim/network.hpp"
#include "sim/serial_sim.hpp"
#include "sim/sharded_sim.hpp"
#include "testing/op_trace.hpp"
#include "testing/structures.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

using U64 = std::uint64_t;
using testing::GenConfig;
using testing::OpTrace;

ShardedHeap<U64>::Config base_cfg(std::size_t shards) {
  ShardedHeap<U64>::Config c;
  c.shards = shards;
  c.rebalance_interval = 16;
  c.sample_capacity = 256;
  return c;
}

// ------------------------------------------------------------ min hint

TEST(ParallelCycle, MinHintSkipsLosingShardsExactly) {
  // Seed the partition map so shard 0 owns all the small keys, then drain:
  // shards 1..2 provably lose every tournament and the hint must skip their
  // pull/putback round-trips — with the deletion stream identical to the
  // hint-off run, fewer putbacks, and hint_skips counted.
  auto run = [](bool hint, ShardedStats* stats) {
    ShardedHeap<U64>::Config cfg = base_cfg(3);
    cfg.rebalance_interval = 0;  // keep the seeded map
    cfg.min_hint = hint;
    ShardedHeap<U64> q(8, cfg);
    std::vector<U64> seedv;
    for (U64 v = 0; v < 300; ++v) seedv.push_back(v * 3);
    q.build(seedv);
    std::vector<std::vector<U64>> stream;
    Xoshiro256 rng(5);
    std::vector<U64> fresh;
    for (int cycle = 0; cycle < 120; ++cycle) {
      fresh.clear();
      for (std::size_t i = rng.next_below(4); i > 0; --i) {
        fresh.push_back(rng.next_below(1000));
      }
      stream.emplace_back();
      q.cycle(fresh, rng.next_below(9), stream.back());
    }
    for (;;) {
      stream.emplace_back();
      if (q.cycle({}, 8, stream.back()) == 0) break;
    }
    *stats = q.sharded_stats();
    return stream;
  };

  ShardedStats with_hint, without;
  const auto s1 = run(true, &with_hint);
  const auto s0 = run(false, &without);
  EXPECT_EQ(s1, s0) << "hint changed the deletion stream";
  EXPECT_GT(with_hint.hint_skips, 0u);
  EXPECT_EQ(without.hint_skips, 0u);
  EXPECT_LE(with_hint.putbacks, without.putbacks);
  EXPECT_LT(with_hint.putbacks, without.putbacks)
      << "hint never removed a putback round-trip on this workload";
}

// ------------------------------------------------------- banded DES routing

TEST(ParallelCycle, BandedRoutingExactOnDes) {
  const sim::Topology topo = sim::make_torus(8, 8);
  sim::ModelConfig mc;
  mc.seed = 21;
  const sim::Model model(topo, mc);
  const double end_time = 40.0;
  const sim::SimResult want = sim::run_serial_sim(model, end_time);
  ASSERT_GT(want.processed, 0u);

  for (double band : {0.0, 0.5, 4.0}) {  // 0 = auto (lookahead width)
    sim::ShardedSimConfig cfg;
    cfg.queue.shards = 3;
    cfg.node_capacity = 32;
    cfg.batch = 32;
    cfg.band_width = band;
    const sim::ShardedSimResult got = sim::run_sharded_sim(model, end_time, cfg);
    EXPECT_TRUE(got.sim.same_outcome(want)) << "band=" << band;
    EXPECT_GT(got.shard.routed, 0u);
    // Band routing replaces the quantile partitioner; there is no map to
    // re-estimate, so no rebalances can occur.
    EXPECT_EQ(got.shard.rebalances, 0u) << "band=" << band;
  }
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
