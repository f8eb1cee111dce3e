// Tests for the key-range-sharded heap front end (core/sharded_heap.hpp):
// partitioner properties, the K=1 bit-for-bit degeneration, the shard-drain
// edge cases named by the bring-up (empty shards in the merge, boundary
// duplicates), the min hint's exactness against a predict-and-replay
// oracle, and outcome-exactness of the window DES over a sharded queue
// — the way bench/stack's des_torus drives it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "core/sorted_ops.hpp"
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

// ---------------------------------------------------------------- min hint

TEST(ShardedHeap, MinHintSkipsLosingShardsExactly) {
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

/// The min hint by prediction and replay: each shard's pulled prefix is
/// predicted as the first k items of merge(root, sorted batch), the
/// tournament is replayed over the predictions, and every shard whose
/// prediction is nonempty but takes nothing is skipped. Returns the
/// per-shard budgets and sets `skips`.
std::vector<std::size_t> replayed_budgets(const std::vector<std::vector<U64>>& roots,
                                          std::vector<std::vector<U64>> batches,
                                          std::size_t k, std::size_t& skips) {
  const std::size_t shards = roots.size();
  std::vector<std::size_t> budgets(shards, k);
  skips = 0;
  if (k == 0 || shards < 2) return budgets;
  std::vector<std::vector<U64>> predicted(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    std::sort(batches[s].begin(), batches[s].end());
    merge2(std::span<const U64>(roots[s]), std::span<const U64>(batches[s]), predicted[s],
           std::less<U64>{});
    if (predicted[s].size() > k) predicted[s].resize(k);
  }
  std::vector<std::span<const U64>> runs(predicted.begin(), predicted.end());
  std::vector<std::size_t> take(shards, 0);
  merge_k<U64>(std::span<const std::span<const U64>>(runs), k,
               std::span<std::size_t>(take), nullptr, std::less<U64>{});
  for (std::size_t s = 0; s < shards; ++s) {
    if (take[s] == 0 && !predicted[s].empty()) {
      budgets[s] = 0;
      ++skips;
    }
  }
  return budgets;
}

TEST(ShardedHeap, MinHintCountingMatchesPredictAndReplay) {
  // Random mid-pipeline states: the hint's counting test must set every
  // shard's budget, and count every skip, exactly as predicting the
  // prefixes and replaying the tournament does. Keys and splits share a
  // 24-value domain, so keys equal to a split, empty shards and empty
  // routed batches are all common. Routing alone never puts equal keys on
  // two shards, but a restore under a different map does, so every other
  // state places its contents on random shards to force cross-shard ties.
  constexpr std::size_t r = 8;
  constexpr U64 kDomain = 24;
  const std::size_t ks[] = {0, 1, r / 2, r};
  Xoshiro256 rng(61);
  std::vector<U64> fresh, got, want, sink;
  std::size_t skipped = 0;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{3}, std::size_t{4},
                                   std::size_t{8}}) {
    for (int trial = 0; trial < 200; ++trial) {
      const auto draw = [&](std::size_t n) {
        fresh.clear();
        for (std::size_t i = 0; i < n; ++i) fresh.push_back(rng.next_below(kDomain));
      };
      ShardedHeap<U64>::Snapshot snap;
      snap.splits.resize(shards - 1);
      for (U64& v : snap.splits) v = rng.next_below(kDomain);
      std::sort(snap.splits.begin(), snap.splits.end());
      snap.seeded = true;
      snap.shard_items.resize(shards);
      KeyRangePartitioner<U64> part(shards);
      part.set_splits(snap.splits);
      for (std::size_t i = rng.next_below(6 * r); i > 0; --i) {
        const U64 v = rng.next_below(kDomain);
        const std::size_t at = trial % 2 == 0 ? part.route(v) : rng.next_below(shards);
        snap.shard_items[at].push_back(v);
      }
      for (auto& items : snap.shard_items) {
        if (rng.next_below(4) == 0) items.clear();
      }
      ShardedHeap<U64> q(r, ShardedHeap<U64>::Config{shards});
      q.restore(snap);
      SortedOracle oracle;
      for (const auto& items : snap.shard_items) oracle.cycle(items, 0, sink);

      // Warm-up cycles leave update processes parked mid-pipeline.
      for (std::size_t w = rng.next_below(4); w > 0; --w) {
        draw(rng.next_below(2 * r));
        const std::size_t k = rng.next_below(r + 1);
        got.clear();
        want.clear();
        q.cycle(fresh, k, got);
        oracle.cycle(fresh, k, want);
        ASSERT_EQ(got, want);
      }

      draw(rng.next_below(4) == 0 ? 0 : rng.next_below(2 * r + 1));
      const std::size_t k = ks[trial % 4];
      std::vector<std::vector<U64>> roots(shards), batches(shards);
      for (std::size_t s = 0; s < shards; ++s) {
        const auto root = q.shard(s).root_items();
        roots[s].assign(root.begin(), root.end());
      }
      for (const U64 v : fresh) batches[q.partitioner().route(v)].push_back(v);
      std::size_t want_skips = 0;
      const std::vector<std::size_t> want_budgets =
          replayed_budgets(roots, batches, k, want_skips);

      const std::uint64_t skips_before = q.sharded_stats().hint_skips;
      got.clear();
      want.clear();
      q.cycle(fresh, k, got);
      oracle.cycle(fresh, k, want);
      ASSERT_EQ(got, want) << shards << " shards, trial " << trial;
      const auto budgets = q.pull_budgets();
      EXPECT_EQ(std::vector<std::size_t>(budgets.begin(), budgets.end()), want_budgets)
          << shards << " shards, trial " << trial << ", k " << k;
      EXPECT_EQ(q.sharded_stats().hint_skips - skips_before, want_skips)
          << shards << " shards, trial " << trial << ", k " << k;
      skipped += want_skips;
    }
  }
  EXPECT_GT(skipped, 0u) << "no state exercised a skip";
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
