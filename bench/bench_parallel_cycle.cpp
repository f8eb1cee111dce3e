// E15 — the parallel cycle: concurrent shard pipelines against the two
// classic frontends that bracket the design space.
//
//  * strict sharded  — ShardedHeap with K=4 shard pipelines pulled by a
//    worker team (W∈{0,1,2,4,6}; W=6 > K asks for more workers than shards,
//    which the team caps at K=4 striped threads), putback overlapped with
//    the caller's think phase, cross-shard min hint on. EXACT: the deletion stream is
//    REQUIRED to be bit-identical to the W=0 serial run — the bench hashes
//    the full stream and exits nonzero on any mismatch, making it a
//    correctness gate as well as a measurement.
//  * relaxed MultiQueues-style — LocalHeaps with 2 partitions per thread,
//    random-partition inserts, partition-local pops (the "just relax the
//    semantics" school; pops are NOT global minima).
//  * flat combining — FlatCombiningPQ: exact global-min pops, all ops
//    serialized through one combiner lock that batches them.
//
// On a single-core container the strict rows cannot show wall-clock speedup;
// the hardware-independent evidence is (a) exact=1 at every W, (b) per-worker
// occupancy from the Live mirror (busy-ns / wall-ns — the work really ran on
// the team), and (c) hint_skips/putback counters showing the min hint
// removing the putback round-trips. EXPERIMENTS.md E15 documents the bound.
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/flat_combining_pq.hpp"
#include "baselines/local_heaps.hpp"
#include "bench_common.hpp"
#include "core/sharded_heap.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workloads/hold_model.hpp"

namespace {

using U64 = std::uint64_t;

constexpr std::size_t kShards = 4;
constexpr std::size_t kNodeCap = 512;

ph::HoldConfig hold_cfg() {
  ph::HoldConfig cfg;
  cfg.n = 1 << 15;
  cfg.ops = 1 << 17;
  return cfg;
}

struct StrictRow {
  double ns_per_op = 0;
  std::uint64_t ops = 0;
  std::uint64_t hash = 0;  ///< order-sensitive fold of the deletion stream
  double occupancy = 0;    ///< mean worker busy-ns / wall-ns (0 when W=0)
  ph::ShardedStats stats;
};

/// Hold run over the sharded heap that hashes the deletion stream in order
/// (position-dependent, so any reordering or substitution flips it) — the
/// bit-exactness witness the strict rows are compared by.
StrictRow run_strict(unsigned workers, bool overlap) {
  const ph::HoldConfig cfg = hold_cfg();
  ph::ShardedHeap<U64>::Config qcfg;
  qcfg.shards = kShards;
  qcfg.rebalance_interval = 64;
  qcfg.sample_capacity = 2048;
  qcfg.workers = workers;
  qcfg.overlap_putback = overlap;
  ph::ShardedHeap<U64> q(kNodeCap, qcfg);
  q.register_gauges("parallel-w" + std::to_string(workers));
  q.build(ph::hold_initial(cfg));

  ph::Xoshiro256 rng(cfg.seed ^ 0x9e3779b97f4a7c15ull);
  StrictRow out;
  std::vector<U64> deleted, fresh;
  ph::Timer t;
  while (out.ops < cfg.ops) {
    const std::size_t k = static_cast<std::size_t>(
        std::min<std::uint64_t>(kNodeCap, cfg.ops - out.ops));
    deleted.clear();
    q.cycle(fresh, k, deleted);
    fresh.clear();
    for (U64 v : deleted) {
      out.hash = (out.hash ^ v) * 0x100000001b3ull;  // FNV-style, order-sensitive
      fresh.push_back(v + ph::to_fixed(ph::draw_increment(rng, cfg.dist)));
    }
    out.ops += deleted.size();
    if (deleted.empty()) break;
  }
  std::vector<U64> sink;
  q.cycle(fresh, 0, sink);
  q.quiesce();  // join any overlapped putback before reading the clock
  const double wall_ns = t.seconds() * 1e9;
  out.ns_per_op = wall_ns / static_cast<double>(out.ops);
  out.stats = q.sharded_stats();
  const auto& team = q.live().worker_busy_ns;  // min(W, K) threads
  if (!team.empty()) {
    std::uint64_t busy = 0;
    for (const auto& b : team) busy += b.load(std::memory_order_relaxed);
    out.occupancy = static_cast<double>(busy) /
                    (wall_ns * static_cast<double>(team.size()));
  }
  return out;
}

/// MultiQueues-style relaxed hold: each thread pops its own partition's min
/// (stealing only when empty) and reinserts into a random partition.
double run_multiqueue(unsigned threads, std::uint64_t total_ops) {
  ph::LocalHeaps<U64> q(2 * threads);
  const ph::HoldConfig cfg = hold_cfg();
  {
    std::size_t i = 0;
    for (U64 v : ph::hold_initial(cfg)) q.push(v, i++);
  }
  ph::ThreadTeam team(threads, /*pin=*/false, "bench-mq");
  ph::Timer t;
  team.run([&](unsigned tid) {
    ph::Xoshiro256 rng(cfg.seed ^ (0xabcdull + tid));
    const std::uint64_t mine = total_ops / threads;
    for (std::uint64_t i = 0; i < mine; ++i) {
      U64 v = 0;
      if (!q.try_pop(tid, v)) break;
      q.push(v + ph::to_fixed(ph::draw_increment(rng, cfg.dist)),
             static_cast<std::size_t>(rng() % (2 * threads)));
    }
  });
  return static_cast<double>(total_ops) / t.seconds();
}

struct FcRow {
  double ops_per_s = 0;
  double ops_per_combine = 0;
};

/// Flat-combining hold: exact global-min pops, every op funneled through
/// whichever thread holds the combiner lock.
FcRow run_flat_combining(unsigned threads, std::uint64_t total_ops) {
  ph::FlatCombiningPQ<U64> q(threads);
  const ph::HoldConfig cfg = hold_cfg();
  for (U64 v : ph::hold_initial(cfg)) q.push(0, v);
  const std::uint64_t base_combines = q.combines();
  const std::uint64_t base_ops = q.combined_ops();
  ph::ThreadTeam team(threads, /*pin=*/false, "bench-fc");
  ph::Timer t;
  team.run([&](unsigned tid) {
    ph::Xoshiro256 rng(cfg.seed ^ (0x5151ull + tid));
    const std::uint64_t mine = total_ops / threads;
    for (std::uint64_t i = 0; i < mine; ++i) {
      U64 v = 0;
      if (!q.try_pop(tid, v)) break;
      q.push(tid, v + ph::to_fixed(ph::draw_increment(rng, cfg.dist)));
    }
  });
  FcRow out;
  out.ops_per_s = static_cast<double>(total_ops) / t.seconds();
  const std::uint64_t combines = q.combines() - base_combines;
  out.ops_per_combine =
      combines ? static_cast<double>(q.combined_ops() - base_ops) /
                     static_cast<double>(combines)
               : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);
  using namespace ph::bench;

  header("E15 parallel cycle: concurrent shard pipelines vs relaxed and "
         "flat-combining frontends",
         "claim: worker-team pulls keep the deletion stream bit-exact at any "
         "W (gated here), with per-worker occupancy and hint-skip counters "
         "carrying the scalability shape on single-core hosts");

  const unsigned kWorkers[] = {0, 1, 2, 4, 6};
  bool all_exact = true;
  StrictRow serial;

  columns("mode,workers,ns_per_op,occupancy,hint_skips,putbacks,par_cycles,exact");
  for (const unsigned w : kWorkers) {
    const StrictRow r = run_strict(w, /*overlap=*/w > 0);
    const bool exact =
        w == 0 || (r.hash == serial.hash && r.ops == serial.ops);
    if (w == 0) serial = r;
    all_exact = all_exact && exact;
    row("strict,%u,%.0f,%.2f,%llu,%llu,%llu,%d", w, r.ns_per_op, r.occupancy,
        static_cast<unsigned long long>(r.stats.hint_skips),
        static_cast<unsigned long long>(r.stats.putbacks),
        static_cast<unsigned long long>(r.stats.parallel_cycles), exact ? 1 : 0);
    json_metric("strict_ns_per_op_w" + std::to_string(w), r.ns_per_op);
    json_metric("strict_occupancy_w" + std::to_string(w), r.occupancy);
    json_metric("strict_exact_w" + std::to_string(w), exact ? 1.0 : 0.0);
    json_metric("strict_hint_skips_w" + std::to_string(w),
                static_cast<double>(r.stats.hint_skips));
  }

  // The min hint's effect in isolation: same serial run with the hint off.
  {
    ph::ShardedHeap<U64>::Config qcfg;
    qcfg.shards = kShards;
    qcfg.rebalance_interval = 64;
    qcfg.sample_capacity = 2048;
    qcfg.min_hint = false;
    ph::ShardedHeap<U64> q(kNodeCap, qcfg);
    q.build(ph::hold_initial(hold_cfg()));
    const ph::HoldResult res = ph::batch_hold(q, hold_cfg(), kNodeCap);
    (void)res;
    note("min_hint off: putbacks=%llu (vs %llu with the hint on)",
         static_cast<unsigned long long>(q.sharded_stats().putbacks),
         static_cast<unsigned long long>(serial.stats.putbacks));
    json_metric("strict_putbacks_nohint",
                static_cast<double>(q.sharded_stats().putbacks));
    json_metric("strict_putbacks_hint",
                static_cast<double>(serial.stats.putbacks));
  }

  const std::uint64_t kOps = hold_cfg().ops;
  columns("mode,threads,ops_per_s,ops_per_combine,exact");
  for (const unsigned t : {1u, 2u, 4u}) {
    const double mq = run_multiqueue(t, kOps);
    row("multiqueue,%u,%.0f,,0", t, mq);
    json_metric("mq_ops_per_s_t" + std::to_string(t), mq);
  }
  for (const unsigned t : {1u, 2u, 4u}) {
    const FcRow fc = run_flat_combining(t, kOps);
    row("flat_combining,%u,%.0f,%.1f,1", t, fc.ops_per_s, fc.ops_per_combine);
    json_metric("fc_ops_per_s_t" + std::to_string(t), fc.ops_per_s);
    json_metric("fc_ops_per_combine_t" + std::to_string(t), fc.ops_per_combine);
  }

  note("strict rows are a correctness gate: exact=0 fails the binary; "
       "multiqueue pops are partition minima (relaxed), flat_combining pops "
       "are exact but serialized");
  if (!all_exact) {
    std::fprintf(stderr,
                 "bench_parallel_cycle: FAIL — deletion stream diverged from "
                 "the serial reference\n");
    return 1;
  }
  return 0;
}
