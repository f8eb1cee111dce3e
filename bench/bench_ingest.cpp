// E16 — the ingestion tier: PIPQ-style per-producer staging buffers in
// front of the batch-cycle heaps (PR8's tentpole; DESIGN.md §13).
//
// Two phases:
//
//  * exactness gate — staging must be BIT-EXACT against direct
//    insertion at every producer count P∈{1,2,4,8}: real producer threads
//    stage their slices concurrently, the driver cycles, and the deletion
//    stream is compared item-for-item per cycle against a reference heap
//    fed the same items directly. Any divergence exits nonzero — the CI
//    smoke runs this binary as a correctness gate. The gate runs over both
//    a pipelined inner heap and a 3-shard one (the full
//    producer → staging → route → shard pipeline).
//  * throughput — sustained hold-model ops/sec across r∈{64..1024} and
//    P∈{1,2,4} producer threads over the pipelined inner heap. On a
//    single-core container wall-clock speedup cannot manifest; the
//    hardware-independent evidence is the admitted-item count and the
//    run-size telemetry (wide coalesced runs = fewer root-merge entries per
//    item).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "ingest/ingest_tier.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using U64 = std::uint64_t;

/// Deterministic per-cycle batch of fresh keys (same stream every run —
/// the gate's two sides must consume identical items).
std::vector<U64> gen_batch(ph::Xoshiro256& rng, std::size_t n, U64 bound) {
  std::vector<U64> v(n);
  for (auto& x : v) x = rng() % bound;
  return v;
}

/// Exactness gate for one inner-heap maker: P producer threads
/// stage slices of each cycle's batch concurrently (joined at the cycle
/// boundary), the reference gets the identical batch directly. Returns true
/// iff every cycle's deletion stream matched.
template <typename MakeInner>
bool run_gate(const char* label, std::size_t r, unsigned producers,
              std::size_t cycles, MakeInner make_inner) {
  ph::ingest::IngestConfig ic;
  ic.producers = producers;
  ph::ingest::IngestTier<decltype(make_inner())> tier(make_inner(), ic);
  auto ref = make_inner();

  ph::Xoshiro256 rng(0x51c9 ^ (r * 131) ^ producers);
  ph::ThreadTeam team(producers, /*pin=*/false, "ingest-prod");
  std::vector<U64> got, want;
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::vector<U64> batch = gen_batch(rng, r, U64{1} << 20);
    team.run([&](unsigned tid) {
      // Producer tid stages its contiguous slice — real concurrent stage()
      // calls racing each other (and nothing else: cycle() is driver-only).
      const std::size_t per = (batch.size() + producers - 1) / producers;
      const std::size_t lo = std::min<std::size_t>(tid * per, batch.size());
      const std::size_t hi = std::min<std::size_t>(lo + per, batch.size());
      tier.stage(tid, std::span<const U64>(batch).subspan(lo, hi - lo));
    });
    got.clear();
    want.clear();
    tier.cycle({}, r / 2, got);
    ref.cycle(batch, r / 2, want);
    if (got != want) {
      std::fprintf(stderr,
                   "bench_ingest: GATE FAIL %s r=%zu P=%u cycle %zu: strict "
                   "stream diverged from direct insertion (%zu vs %zu items)\n",
                   label, r, producers, c, got.size(), want.size());
      return false;
    }
  }
  // Drain both sides to empty through the same interface.
  for (int guard = 0; guard < 1 << 14; ++guard) {
    got.clear();
    want.clear();
    const std::size_t nq = tier.cycle({}, r, got);
    const std::size_t no = ref.cycle({}, r, want);
    if (got != want) {
      std::fprintf(stderr, "bench_ingest: GATE FAIL %s r=%zu P=%u: drain diverged\n",
                   label, r, producers);
      return false;
    }
    if (nq == 0 && no == 0) break;
  }
  return true;
}

struct ThroughputRow {
  double mops = 0;             ///< staged+deleted ops per second, millions
  std::uint64_t admitted = 0;
  std::uint64_t runs = 0;
  double mean_run = 0;
};

/// Hold-style throughput: P producers re-stage the previous cycle's
/// deletions (bumped) while the driver cycles the tier.
ThroughputRow run_throughput(std::size_t r, unsigned producers,
                             std::size_t ops_target) {
  ph::ingest::IngestConfig ic;
  ic.producers = producers;
  ph::ingest::IngestTier<ph::PipelinedParallelHeap<U64>> tier(
      ph::PipelinedParallelHeap<U64>(r), ic);
  tier.register_gauges("e16-r" + std::to_string(r) + "-p" + std::to_string(producers));

  ph::Xoshiro256 rng(0xe16 ^ (r * 31) ^ producers);
  {
    const std::vector<U64> seed = gen_batch(rng, 1 << 12, U64{1} << 30);
    tier.inner().build(seed);
  }
  ph::ThreadTeam team(producers, /*pin=*/false, "ingest-hold");
  std::vector<U64> deleted;
  std::uint64_t ops = 0;
  ph::Timer t;
  while (ops < ops_target) {
    deleted.clear();
    tier.cycle({}, r, deleted);
    ops += deleted.size();
    if (deleted.empty() && tier.empty()) break;
    team.run([&](unsigned tid) {
      // Each producer re-stages its slice of the deletions with a hold bump.
      const std::size_t per = (deleted.size() + producers - 1) / producers;
      const std::size_t lo = std::min<std::size_t>(tid * per, deleted.size());
      const std::size_t hi = std::min<std::size_t>(lo + per, deleted.size());
      for (std::size_t i = lo; i < hi; ++i) {
        tier.stage(tid, deleted[i] + 1 + (deleted[i] & 0x3ff));
      }
    });
  }
  const double secs = t.seconds();
  const ph::ingest::IngestStats st = tier.ingest_stats();
  ThroughputRow out;
  // Each logical op is one staged insert + one delete-min; ops counts cycles'
  // deletions, and every deletion was staged first.
  out.mops = 2.0 * static_cast<double>(ops) / secs / 1e6;
  out.admitted = st.admitted_items;
  out.runs = st.runs;
  out.mean_run =
      st.runs ? static_cast<double>(st.admitted_items) / static_cast<double>(st.runs) : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);
  using namespace ph::bench;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  header("E16 ingestion tier: staged producer buffers vs direct insertion",
         "claim: strict staging is bit-exact against direct insertion at any "
         "producer count (gated here), and coalesced sorted runs sustain "
         "insert throughput that direct root-merge insertion cannot");

  // Phase 1: exactness gate (the CI contract).
  const std::size_t gate_cycles = quick ? 40 : 120;
  bool all_exact = true;
  columns("gate,inner,r,producers,exact");
  for (const std::size_t r : {std::size_t{64}, std::size_t{256}}) {
    for (const unsigned p : {1u, 2u, 4u, 8u}) {
      const bool ok_pipe = run_gate("pipelined", r, p, gate_cycles, [&] {
        return ph::PipelinedParallelHeap<U64>(r);
      });
      row("gate,pipelined,%zu,%u,%d", r, p, ok_pipe ? 1 : 0);
      const bool ok_shard = run_gate("sharded", r, p, gate_cycles, [&] {
        return ph::ShardedHeap<U64>(r, {/*shards=*/3});
      });
      row("gate,sharded,%zu,%u,%d", r, p, ok_shard ? 1 : 0);
      all_exact = all_exact && ok_pipe && ok_shard;
      json_metric("gate_exact_r" + std::to_string(r) + "_p" + std::to_string(p),
                  (ok_pipe && ok_shard) ? 1.0 : 0.0);
    }
  }

  // Phase 2: sustained throughput. The JSON keys keep their strict_ prefix
  // so the committed trajectory files stay comparable.
  const std::size_t ops_target = quick ? 1 << 15 : 1 << 17;
  columns("r,producers,mops_per_s,admitted,runs,mean_run");
  for (const std::size_t r :
       {std::size_t{64}, std::size_t{128}, std::size_t{256}, std::size_t{512},
        std::size_t{1024}}) {
    for (const unsigned p : {1u, 2u, 4u}) {
      const ThroughputRow tr = run_throughput(r, p, ops_target);
      row("%zu,%u,%.2f,%llu,%llu,%.1f", r, p, tr.mops,
          static_cast<unsigned long long>(tr.admitted),
          static_cast<unsigned long long>(tr.runs), tr.mean_run);
      json_metric("strict_mops_r" + std::to_string(r) + "_p" + std::to_string(p),
                  tr.mops);
    }
  }

  note("gate rows are a correctness contract: exact=0 fails the binary");
  if (!all_exact) {
    std::fprintf(stderr,
                 "bench_ingest: FAIL — strict staging diverged from direct "
                 "insertion\n");
    return 1;
  }
  return 0;
}
