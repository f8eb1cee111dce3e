// E15 — the sharded cycle against the two classic frontends that bracket
// the design space.
//
//  * strict sharded  — ShardedHeap with K=4 shard pipelines on one serial
//    cycle, run twice: cross-shard min hint on and off. EXACT: the two
//    deletion streams are REQUIRED to be bit-identical — the bench hashes
//    each full stream and exits nonzero on any mismatch, so the hint's
//    exactness claim is a correctness gate as well as a measurement.
//  * relaxed MultiQueues-style — LocalHeaps with 2 partitions per thread,
//    random-partition inserts, partition-local pops (the "just relax the
//    semantics" school; pops are NOT global minima).
//  * flat combining — FlatCombiningPQ: exact global-min pops, all ops
//    serialized through one combiner lock that batches them.
//
// The hint_skips/putbacks counters show the min hint removing the putback
// round-trips. EXPERIMENTS.md E15 documents the numbers.
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
  ph::ShardedStats stats;
};

/// Hold run over the sharded heap that hashes the deletion stream in order
/// (position-dependent, so any reordering or substitution flips it) — the
/// bit-exactness witness the hint-on and hint-off rows are compared by.
StrictRow run_strict(bool min_hint) {
  const ph::HoldConfig cfg = hold_cfg();
  ph::ShardedHeap<U64>::Config qcfg;
  qcfg.shards = kShards;
  qcfg.rebalance_interval = 64;
  qcfg.sample_capacity = 2048;
  qcfg.min_hint = min_hint;
  ph::ShardedHeap<U64> q(kNodeCap, qcfg);
  q.register_gauges(min_hint ? "strict-hint" : "strict-nohint");
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
  out.ns_per_op = t.seconds() * 1e9 / static_cast<double>(out.ops);
  out.stats = q.sharded_stats();
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

  header("E15 sharded cycle vs relaxed and flat-combining frontends",
         "claim: the cross-shard min hint removes putback round-trips without "
         "changing one deleted item (gated here)");

  columns("mode,min_hint,ns_per_op,hint_skips,putbacks,exact");
  const StrictRow hint = run_strict(true);
  const StrictRow nohint = run_strict(false);
  const bool exact = hint.hash == nohint.hash && hint.ops == nohint.ops;
  for (const StrictRow* r : {&hint, &nohint}) {
    row("strict,%d,%.0f,%llu,%llu,%d", r == &hint ? 1 : 0, r->ns_per_op,
        static_cast<unsigned long long>(r->stats.hint_skips),
        static_cast<unsigned long long>(r->stats.putbacks), exact ? 1 : 0);
  }
  json_metric("strict_ns_per_op_w0", hint.ns_per_op);
  json_metric("strict_exact_w0", exact ? 1.0 : 0.0);
  json_metric("strict_hint_skips_w0", static_cast<double>(hint.stats.hint_skips));
  json_metric("strict_putbacks_hint", static_cast<double>(hint.stats.putbacks));
  json_metric("strict_putbacks_nohint", static_cast<double>(nohint.stats.putbacks));

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
  if (!exact) {
    std::fprintf(stderr,
                 "bench_parallel_cycle: FAIL — the min hint changed the "
                 "deletion stream\n");
    return 1;
  }
  return 0;
}
