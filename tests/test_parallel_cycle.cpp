// Tests for the concurrent shard pipelines (core/sharded_heap.hpp):
// worker-team bit-exactness across team sizes (including more workers than
// shards, which the team caps), the overlapped-putback handshake and moving
// a heap mid-handshake, the cross-shard min hint's exactness and putback
// reduction, per-worker occupancy accounting, the timestamp-band DES
// routing, and the concurrent differential-registry entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/sharded_heap.hpp"
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

ShardedHeap<U64>::Config base_cfg(std::size_t shards) {
  ShardedHeap<U64>::Config c;
  c.shards = shards;
  c.rebalance_interval = 16;
  c.sample_capacity = 256;
  return c;
}

// --------------------------------------------------- worker-team exactness

TEST(ParallelCycle, WorkerTeamBitExactAcrossAssignments) {
  // Every (shards, workers, overlap) combination must produce the byte-
  // identical deletion stream of the serial (workers=0) reference — per
  // cycle AND through the final drain. workers <= shards exercises the
  // striped whole-pipeline assignment; workers > shards the team-size cap.
  GenConfig gen;
  gen.r = 8;
  gen.cycles = 250;
  gen.seed = 41;
  const OpTrace t = generate_trace(gen);

  for (std::size_t shards : {std::size_t{3}, std::size_t{4}}) {
    // Serial reference stream.
    std::vector<std::vector<U64>> ref;
    {
      ShardedHeap<U64> q(gen.r, base_cfg(shards));
      for (const auto& op : t.ops) {
        ref.emplace_back();
        q.cycle(op.fresh, std::min(op.k, gen.r), ref.back());
      }
      for (;;) {
        ref.emplace_back();
        if (q.cycle({}, gen.r, ref.back()) == 0) break;
      }
    }
    for (unsigned workers : {1u, 2u, 5u}) {
      for (bool overlap : {false, true}) {
        ShardedHeap<U64>::Config cfg = base_cfg(shards);
        cfg.workers = workers;
        cfg.overlap_putback = overlap;
        ShardedHeap<U64> q(gen.r, cfg);
        std::vector<U64> got;
        std::size_t i = 0;
        for (const auto& op : t.ops) {
          got.clear();
          q.cycle(op.fresh, std::min(op.k, gen.r), got);
          ASSERT_EQ(got, ref[i]) << "shards=" << shards << " W=" << workers
                                 << " overlap=" << overlap << " cycle " << i;
          ++i;
        }
        for (;;) {
          got.clear();
          const std::size_t n = q.cycle({}, gen.r, got);
          ASSERT_EQ(got, ref[i]) << "drain cycle " << i;
          ++i;
          if (n == 0) break;
        }
        // The run must actually have used the team.
        EXPECT_GT(q.sharded_stats().parallel_cycles, 0u)
            << "shards=" << shards << " W=" << workers;
        std::string why;
        EXPECT_TRUE(q.check_invariants(&why)) << why;
      }
    }
  }
}

// ----------------------------------------------------- overlap handshake

TEST(ParallelCycle, OverlapPutbackHandshake) {
  // With overlap on, cycle() may return while the putback still runs on the
  // team; putback_pending() is observable, quiesce() joins it, and every
  // state-reading entry point (sorted_contents here) self-quiesces — the
  // caller can never observe a half-returned prefix.
  ShardedHeap<U64>::Config cfg = base_cfg(3);
  cfg.workers = 2;
  cfg.overlap_putback = true;
  ShardedHeap<U64> q(8, cfg);
  SortedOracle oracle;
  Xoshiro256 rng(77);
  std::vector<U64> got, want, fresh;
  bool saw_pending = false;

  for (int cycle = 0; cycle < 300; ++cycle) {
    fresh.clear();
    for (std::size_t i = rng.next_below(12); i > 0; --i) {
      fresh.push_back(rng.next_below(4096));
    }
    const std::size_t k = rng.next_below(9);
    got.clear();
    want.clear();
    q.cycle(fresh, k, got);
    oracle.cycle(fresh, k, want);
    ASSERT_EQ(got, want) << "cycle " << cycle;
    if (q.putback_pending()) {
      saw_pending = true;
      if (cycle % 7 == 0) {
        // Explicit join path; idempotent (second call is a no-op).
        q.quiesce();
        q.quiesce();
        EXPECT_FALSE(q.putback_pending());
      } else if (cycle % 11 == 0) {
        // Implicit join: a state read must see the settled structure.
        EXPECT_EQ(q.sorted_contents(), oracle.contents()) << "cycle " << cycle;
        EXPECT_FALSE(q.putback_pending());
      }
    }
  }
  EXPECT_TRUE(saw_pending)
      << "trace never left a putback in flight; overlap path untested";
  EXPECT_EQ(q.sorted_contents(), oracle.contents());
}

TEST(ParallelCycle, MoveWhilePutbackInFlight) {
  // The team's workers write through the heap's `this`; moving a heap whose
  // overlapped putback is still running must join them before the members
  // move. Move-construct mid-handshake (and, every other time, move-assign
  // over a heap with its own putback in flight); the stream must stay the
  // serial one.
  GenConfig gen;
  gen.r = 8;
  gen.cycles = 200;
  gen.seed = 5;
  const OpTrace t = generate_trace(gen);
  ShardedHeap<U64> ref(gen.r, base_cfg(3));
  ShardedHeap<U64>::Config cfg = base_cfg(3);
  cfg.workers = 2;
  cfg.overlap_putback = true;
  cfg.min_hint = false;  // more putbacks, so more handshakes to move into
  auto q = std::make_unique<ShardedHeap<U64>>(gen.r, cfg);
  Xoshiro256 rng(3);
  std::vector<U64> got, want, sink;
  std::size_t moves = 0;
  auto step = [&](std::span<const U64> fresh, std::size_t k) {
    got.clear();
    want.clear();
    const std::size_t n = q->cycle(fresh, k, got);
    ref.cycle(fresh, k, want);
    EXPECT_EQ(got, want) << "after " << moves << " moves";
    if (!q->putback_pending()) return n;
    if (moves++ % 2 == 0) {
      q = std::make_unique<ShardedHeap<U64>>(std::move(*q));
      return n;
    }
    ShardedHeap<U64> target(gen.r, cfg);
    for (int i = 0; i < 64 && !target.putback_pending(); ++i) {
      const U64 items[] = {rng.next_below(1000), rng.next_below(1000),
                           rng.next_below(1000)};
      sink.clear();
      target.cycle(items, 1, sink);
    }
    target = std::move(*q);
    q = std::make_unique<ShardedHeap<U64>>(std::move(target));
    return n;
  };
  for (const auto& op : t.ops) step(op.fresh, std::min(op.k, gen.r));
  for (int guard = 0; guard < 1 << 12 && step({}, gen.r) != 0; ++guard) {
  }
  EXPECT_GT(moves, 1u) << "no putback was in flight at a move";
  EXPECT_TRUE(q->empty());
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

// ----------------------------------------------------- occupancy mirror

TEST(ParallelCycle, WorkerOccupancyCountersPopulate) {
  ShardedHeap<U64>::Config cfg = base_cfg(3);
  cfg.workers = 2;
  cfg.overlap_putback = true;
  ShardedHeap<U64> q(16, cfg);
  Xoshiro256 rng(9);
  std::vector<U64> got, fresh;
  for (int cycle = 0; cycle < 100; ++cycle) {
    fresh.clear();
    for (std::size_t i = rng.next_below(24); i > 0; --i) {
      fresh.push_back(rng());
    }
    got.clear();
    q.cycle(fresh, rng.next_below(17), got);
  }
  q.quiesce();
  const auto& live = q.live();
  ASSERT_EQ(live.worker_busy_ns.size(), 2u);
  std::uint64_t phases = 0;
  std::uint64_t busy = 0;
  for (std::size_t w = 0; w < 2; ++w) {
    phases += live.worker_phases[w].load();
    busy += live.worker_busy_ns[w].load();
  }
  // Every worker ran pull stints on every parallel cycle; both counters
  // must have advanced (busy-ns can be tiny but not zero over 100 cycles).
  EXPECT_GT(phases, 0u);
  EXPECT_GT(busy, 0u);
  EXPECT_GT(q.sharded_stats().parallel_cycles, 0u);
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

TEST(ParallelCycle, BandedRoutingWithWorkersExact) {
  const sim::Topology topo = sim::make_torus(6, 6);
  sim::ModelConfig mc;
  mc.seed = 33;
  const sim::Model model(topo, mc);
  const double end_time = 30.0;
  const sim::SimResult want = sim::run_serial_sim(model, end_time);

  sim::ShardedSimConfig cfg;
  cfg.queue.shards = 3;
  cfg.node_capacity = 32;
  cfg.batch = 32;
  cfg.band_width = 0.0;  // auto
  cfg.queue.workers = 2;
  cfg.queue.overlap_putback = true;
  const sim::ShardedSimResult got = sim::run_sharded_sim(model, end_time, cfg);
  EXPECT_TRUE(got.sim.same_outcome(want));
  EXPECT_GT(got.shard.parallel_cycles, 0u);
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
  // The new structures ride the full adversarial differential runner: the
  // concurrent sharded configs bit-exact, the engine surface bit-exact, the
  // flat-combining team under conservation checking.
  for (const char* name :
       {"sharded_heap_conc", "sharded_heap_wide", "engine_team",
        "flat_combining_mt"}) {
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
  // "wide" asks for 5 workers over 3 shards; the team holds only 3.
  ShardedHeap<U64>::Config wide = base_cfg(3);
  wide.workers = 5;
  EXPECT_EQ(ShardedHeap<U64>(8, wide).live().worker_busy_ns.size(), 3u);
}

}  // namespace
}  // namespace ph
