// Tests for the key-range-sharded heap front end (core/sharded_heap.hpp)
// and its DES consumer (sim/sharded_sim.hpp): partitioner properties, the
// K=1 bit-for-bit degeneration, the shard-drain edge cases named by the
// bring-up (empty shards in the merge, boundary duplicates, rebalancing with
// in-flight pipelines), and outcome-exactness of the sharded simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "robustness/watchdog.hpp"
#include "sim/network.hpp"
#include "sim/serial_sim.hpp"
#include "sim/sharded_sim.hpp"
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
    part.rebalance(sample);
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
  part.rebalance(sample);
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

    ShardedHeap<U64> sharded(gen.r, ShardedHeap<U64>::Config{1, 4, 64});
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
  ShardedHeap<U64> q(8, ShardedHeap<U64>::Config{3, 0, 256});
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
  ShardedHeap<U64> q(4, ShardedHeap<U64>::Config{3, 0, 256});
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

TEST(ShardedHeap, RebalanceWhileCycleInFlight) {
  // Re-estimating the partition map every single cycle means the map moves
  // while older items — routed under previous maps — are still inside shard
  // pipelines (in-flight update processes). Shard contents then overlap in
  // key range, which the merge must tolerate: it never assumes disjointness.
  ShardedHeap<U64> q(8, ShardedHeap<U64>::Config{4, 1, 128});
  SortedOracle oracle;
  Xoshiro256 rng(29);
  std::vector<U64> got, want, fresh;
  bool saw_inflight_rebalance = false;
  std::uint64_t last_rebalances = 0;

  for (int cycle = 0; cycle < 400; ++cycle) {
    fresh.clear();
    // Drifting key distribution so successive maps genuinely differ.
    const U64 base = static_cast<U64>(cycle) * 50;
    for (std::size_t i = rng.next_below(12); i > 0; --i) {
      fresh.push_back(base + rng.next_below(2000));
    }
    const std::size_t k = rng.next_below(9);
    got.clear();
    want.clear();
    q.cycle(fresh, k, got);
    oracle.cycle(fresh, k, want);
    ASSERT_EQ(got, want) << "cycle " << cycle;

    const auto& st = q.sharded_stats();
    if (st.rebalances > last_rebalances) {
      last_rebalances = st.rebalances;
      for (std::size_t s = 0; s < q.num_shards(); ++s) {
        if (q.shard(s).inflight() > 0) saw_inflight_rebalance = true;
      }
    }
  }
  EXPECT_GT(q.sharded_stats().rebalances, 0u);
  EXPECT_TRUE(saw_inflight_rebalance)
      << "test never hit the rebalance-with-inflight-pipeline condition";
  std::string why;
  EXPECT_TRUE(q.check_invariants(&why)) << why;

  got.clear();
  want.clear();
  for (;;) {
    got.clear();
    want.clear();
    const std::size_t nq = q.cycle({}, 8, got);
    const std::size_t no = oracle.cycle({}, 8, want);
    ASSERT_EQ(got, want);
    if (nq == 0 && no == 0) break;
  }
}

// ------------------------------------------------------------- harness tie

TEST(ShardedHeap, DifferentialHarnessVerifiesSharded) {
  // The registry entry drives a 3-shard heap (rebalancing every 16 cycles)
  // through the full differential runner — adversarial modes, invariant
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

std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now; }

TEST(ShardedHeap, ReleaseAfterCyclesKeepsSurvivorStreamExact) {
  // A shard retired by a watchdog verdict after it has pulled prefixes must
  // not bring its last (already delivered or put back) prefix into the next
  // tournament: only this cycle's slots compete.
  robustness::PhaseWatchdog::Config wcfg;
  wcfg.stall_timeout_ns = 1000;
  wcfg.clock = &fake_clock;
  g_fake_now = 0;
  robustness::PhaseWatchdog wd(wcfg);
  ShardedHeap<U64>::Config cfg;
  cfg.shards = 3;
  ShardedHeap<U64> q(8, cfg);
  q.attach_watchdog(wd, 1);
  SortedOracle all;
  std::vector<U64> got, want, items;
  for (U64 v = 0; v < 96; ++v) items.push_back((v * 53) % 257);
  q.build(items);
  all.cycle(std::span<const U64>(items), 0, want);
  for (U64 c = 0; c < 12; ++c) {
    const U64 fresh[] = {(c * 97) % 211, (c * 31) % 211, (c * 59) % 211};
    got.clear();
    want.clear();
    q.cycle(std::span<const U64>(fresh, 3), 2, got);
    all.cycle(std::span<const U64>(fresh, 3), 2, want);
    ASSERT_EQ(got, want) << "warm-up cycle " << c;
  }
  // Shard 0 holds the smallest keys, so it contributed to the last cycle.
  // Its channel stalls; the next cycle retires it and folds its items into
  // that cycle's tournament.
  g_fake_now += 5000;
  wd.beat(q.watchdog_channel(1));
  wd.beat(q.watchdog_channel(2));
  wd.poll();
  for (int c = 0; c < 60; ++c) {
    got.clear();
    want.clear();
    q.cycle({}, 4, got);
    all.cycle({}, 4, want);
    ASSERT_EQ(got, want) << "survivor cycle " << c;
  }
  EXPECT_FALSE(q.shard_active(0));
  EXPECT_EQ(q.sharded_stats().quarantines, 1u);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(all.empty());
}

TEST(ShardedSim, MatchesSerialReferenceAcrossShardCounts) {
  const sim::Topology topo = sim::make_torus(8, 8);
  sim::ModelConfig mc;
  mc.seed = 5;
  const sim::Model model(topo, mc);
  const double end_time = 60.0;
  const sim::SimResult want = sim::run_serial_sim(model, end_time);
  ASSERT_GT(want.processed, 0u);

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    sim::ShardedSimConfig cfg;
    cfg.queue.shards = shards;
    cfg.node_capacity = 32;
    cfg.batch = 32;
    const sim::ShardedSimResult got = sim::run_sharded_sim(model, end_time, cfg);
    EXPECT_TRUE(got.sim.same_outcome(want))
        << shards << " shards: processed " << got.sim.processed << " vs "
        << want.processed;
    if (shards > 1) {
      // The run must actually have exercised the sharded path.
      EXPECT_GT(got.shard.routed, 0u);
      EXPECT_GT(got.shard.avg_merge_width(), 0.0);
    }
  }
}

}  // namespace
}  // namespace ph
