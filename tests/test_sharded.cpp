// Tests for the key-range-sharded heap front end (core/sharded_heap.hpp):
// partitioner properties, the K=1 bit-for-bit degeneration, the shard-drain
// edge cases named by the bring-up (empty shards in the merge, boundary
// duplicates), and outcome-exactness of the window DES over a sharded queue
// — the way bench/stack's des_torus drives it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "sim/network.hpp"
#include "sim/serial_sim.hpp"
#include "sim/sync_sim.hpp"
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

// ------------------------------------------------------------- partitioner

TEST(Partitioner, EveryKeyRoutesToExactlyOneShard) {
  Xoshiro256 rng(101);
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                             std::size_t{8}}) {
    KeyRangePartitioner<U64> part(shards);
    std::vector<U64> sample;
    for (int i = 0; i < 500; ++i) sample.push_back(rng.next_below(1u << 20));
    part.set_quantiles(sample);
    ASSERT_EQ(part.splits().size(), shards - 1);
    // route() is a total function into [0, shards): exactly one shard per
    // key, including the extremes of the domain.
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(part.route(rng()), shards);
    }
    EXPECT_LT(part.route(0), shards);
    EXPECT_LT(part.route(~U64{0}), shards);
  }
}

TEST(Partitioner, SplitsCoverDomainAndRouteIsMonotone) {
  KeyRangePartitioner<U64> part(4);
  std::vector<U64> sample;
  for (U64 v = 0; v < 4000; ++v) sample.push_back(v * 7);  // distinct keys
  part.set_quantiles(sample);
  ASSERT_EQ(part.splits().size(), 3u);
  EXPECT_TRUE(std::is_sorted(part.splits().begin(), part.splits().end()));
  // The splits partition [min, max] into contiguous shard-owned ranges:
  // below the sample everything routes to the first shard, at/above the top
  // split to the last, and routing never decreases as keys grow.
  EXPECT_EQ(part.route(0), 0u);
  EXPECT_EQ(part.route(sample.back()), 3u);
  std::size_t prev = 0;
  for (U64 v = 0; v < 40000; v += 13) {
    const std::size_t s = part.route(v);
    EXPECT_GE(s, prev);
    prev = s;
  }
  EXPECT_EQ(prev, 3u);
}

TEST(Partitioner, BoundaryKeysRouteDeterministicallyRight) {
  // A key equal to a split must always land in the shard *after* the split
  // (route counts splits <= key), no matter how many duplicates arrive.
  KeyRangePartitioner<U64> part(3);
  part.set_splits({100, 200});
  EXPECT_EQ(part.route(99), 0u);
  EXPECT_EQ(part.route(100), 1u);
  EXPECT_EQ(part.route(101), 1u);
  EXPECT_EQ(part.route(200), 2u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(part.route(100), 1u);
}

// ------------------------------------------------------- K=1 degeneration

TEST(ShardedHeap, K1MatchesUnshardedPipelinedBitForBit) {
  // With one shard there is no routing decision and the winning prefix is
  // always a full take (zero putbacks), so every cycle must produce the
  // byte-identical deletion stream the raw pipelined heap produces —
  // including mid-pipeline states and the final drain.
  for (std::uint64_t seed : {3u, 17u, 91u}) {
    GenConfig gen;
    gen.r = 8;
    gen.cycles = 300;
    gen.seed = seed;
    const OpTrace t = generate_trace(gen);

    ShardedHeap<U64> sharded(gen.r, ShardedHeap<U64>::Config{1});
    PipelinedParallelHeap<U64> plain(gen.r);
    std::vector<U64> got_s, got_p;
    for (const auto& op : t.ops) {
      got_s.clear();
      got_p.clear();
      sharded.cycle(op.fresh, std::min(op.k, gen.r), got_s);
      plain.cycle(op.fresh, std::min(op.k, gen.r), got_p);
      ASSERT_EQ(got_s, got_p) << "seed " << seed;
    }
    for (;;) {
      got_s.clear();
      got_p.clear();
      const std::size_t ns = sharded.cycle({}, gen.r, got_s);
      const std::size_t np = plain.cycle({}, gen.r, got_p);
      ASSERT_EQ(got_s, got_p) << "seed " << seed << " (drain)";
      if (ns == 0 && np == 0) break;
    }
    EXPECT_EQ(sharded.sharded_stats().putbacks, 0u);
  }
}

// -------------------------------------------------------- drain edge cases

TEST(ShardedHeap, EmptyShardsParticipateInMerge) {
  // Seed the partition map from a high key range, then feed only keys below
  // every split: shards 1..K-1 drain empty while shard 0 stays hot. Empty
  // shards must contribute empty prefixes (not stall or fabricate), the
  // merge width must collapse to 1, and the stream must stay exact.
  ShardedHeap<U64> q(8, ShardedHeap<U64>::Config{3});
  SortedOracle oracle;
  std::vector<U64> got, want, fresh;

  for (U64 v = 1000; v < 1024; ++v) fresh.push_back(v);  // seeds the splits
  got.clear();
  want.clear();
  q.cycle(fresh, 8, got);
  oracle.cycle(fresh, 8, want);
  ASSERT_EQ(got, want);

  Xoshiro256 rng(7);
  for (int cycle = 0; cycle < 200; ++cycle) {
    fresh.clear();
    const std::size_t n = rng.next_below(10);
    for (std::size_t i = 0; i < n; ++i) fresh.push_back(rng.next_below(100));
    const std::size_t k = rng.next_below(9);
    got.clear();
    want.clear();
    q.cycle(fresh, k, got);
    oracle.cycle(fresh, k, want);
    ASSERT_EQ(got, want) << "cycle " << cycle;
  }
  std::string why;
  EXPECT_TRUE(q.check_invariants(&why)) << why;
}

TEST(ShardedHeap, DuplicateKeysStraddlingPartitionBoundary) {
  // Pile duplicates exactly on a split value while neighbors land on both
  // sides. Every copy routes to the right-of-split shard (deterministic),
  // and the merge's shard-index tie-break must keep the global stream equal
  // to the multiset oracle — no copy lost, duplicated, or reordered.
  ShardedHeap<U64> q(4, ShardedHeap<U64>::Config{3});
  std::vector<U64> seedv;
  for (U64 v = 0; v < 300; v += 2) seedv.push_back(v);  // split lands mid-range
  q.build(seedv);
  SortedOracle oracle;
  std::vector<U64> sink;
  oracle.cycle(seedv, 0, sink);

  const U64 boundary = q.partitioner().splits().front();
  Xoshiro256 rng(13);
  std::vector<U64> got, want, fresh;
  for (int cycle = 0; cycle < 150; ++cycle) {
    fresh.clear();
    for (std::size_t i = rng.next_below(4) + 1; i > 0; --i) {
      fresh.push_back(boundary);  // duplicates exactly on the split
      fresh.push_back(boundary > 0 ? boundary - 1 : 0);
      fresh.push_back(boundary + 1);
    }
    const std::size_t k = rng.next_below(5);
    got.clear();
    want.clear();
    q.cycle(fresh, k, got);
    oracle.cycle(fresh, k, want);
    ASSERT_EQ(got, want) << "cycle " << cycle;
  }
  // Full drain: total content must be the exact multiset the oracle holds.
  for (;;) {
    got.clear();
    want.clear();
    const std::size_t nq = q.cycle({}, 4, got);
    const std::size_t no = oracle.cycle({}, 4, want);
    ASSERT_EQ(got, want);
    if (nq == 0 && no == 0) break;
  }
}

// ------------------------------------------------------------- harness tie

TEST(ShardedHeap, DifferentialHarnessVerifiesSharded) {
  // The registry entry drives a 3-shard heap through the full differential runner — adversarial modes, invariant
  // strides, final drain.
  for (std::uint64_t seed : {5u, 23u}) {
    GenConfig gen;
    gen.r = 8;
    gen.cycles = 300;
    gen.seed = seed;
    OpTrace t = generate_trace(gen);
    t.structure = "sharded_heap";
    const auto f = testing::run_trace(t);
    EXPECT_FALSE(f.failed) << f.message;
  }
}

// ------------------------------------------------------------------- DES

TEST(ShardedSim, MatchesSerialReferenceAcrossShardCounts) {
  // The conservative window simulation over a ShardedHeap, driven through
  // run_sync_sim exactly as des_torus drives it: every shard count must
  // reproduce the serial reference's processed count and fingerprint.
  const sim::Topology topo = sim::make_torus(8, 8);
  sim::ModelConfig mc;
  mc.seed = 5;
  const sim::Model model(topo, mc);
  const double end_time = 60.0;
  const sim::SimResult want = sim::run_serial_sim(model, end_time);
  ASSERT_GT(want.processed, 0u);

  using EventHeap = ShardedHeap<sim::Event, sim::EventOrder>;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    EventHeap q(32, EventHeap::Config{shards});
    const sim::SimResult got = sim::run_sync_sim(q, model, end_time, 32);
    EXPECT_TRUE(got.same_outcome(want))
        << shards << " shards: processed " << got.processed << " vs "
        << want.processed;
    if (shards > 1) {
      // The run must actually have exercised the sharded path.
      const ShardedStats& st = q.sharded_stats();
      EXPECT_GT(st.routed, 0u);
      EXPECT_GT(st.avg_merge_width(), 0.0);
    }
  }
}

}  // namespace
}  // namespace ph
