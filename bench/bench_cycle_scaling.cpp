// E1 — steady-state cost per op vs heap size (google-benchmark).
//
// Claim (ICPP'90 / J.Supercomputing'92 complexity): one insert-delete cycle
// of r items costs O(r log n) total work, so at fixed r the work per op
// should grow logarithmically in n, not linearly.
//
// Each heap runs the hold model at n = 2^14 .. 2^22 (×4 steps), r = k = 512:
// a bulk load, 4n untimed hold ops to reach steady state (the bulk-loaded
// layout has no dirty paths), then a fixed 2^18 timed ops. Per n and heap
// the binary emits cycle_scaling_{ns,items_merged,items_written}_per_op_n<n>
// _<heap> (heap = sync or pipelined): wall time per op and the HeapStats
// work counters per op over exactly the timed ops, so every row averages
// the same op count. Both also emit cycle_scaling_forward_refills_per_op
// _n<n>_<heap>: delete-update refills that rewrote a child from its slot
// base (HeapStats::forward_refills) per timed op. The pipelined heap also
// emits cycle_scaling_procs_per_op_n<n>_pipelined: update processes
// serviced (PipelineStats::procs_serviced) per timed op. Both are
// report-only figures.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/parallel_heap.hpp"
#include "core/pipelined_heap.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads/distributions.hpp"
#include "workloads/hold_model.hpp"

namespace {

constexpr std::size_t kR = 512;
constexpr std::uint64_t kTimedOps = 1u << 18;

template <typename Heap>
void steady_hold(benchmark::State& state, const char* heap_name) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ph::HoldConfig cfg;
  cfg.n = n;
  cfg.dist = ph::Dist::kExponential;
  cfg.seed = 7;
  Heap heap(kR);
  heap.build(ph::hold_initial(cfg));
  cfg.ops = 4 * static_cast<std::uint64_t>(n);
  ph::batch_hold(heap, cfg, kR);  // warm-up, untimed
  heap.reset_stats();
  cfg.seed = 11;
  cfg.ops = kTimedOps;
  ph::HoldResult res;
  double secs = 0;
  for (auto _ : state) {
    ph::Timer t;
    res = ph::batch_hold(heap, cfg, kR);
    secs = t.seconds();
    benchmark::DoNotOptimize(res);
  }
  const auto& st = heap.stats();
  const auto ops = static_cast<double>(res.ops);
  const double ns = secs * 1e9 / ops;
  const double merged = static_cast<double>(st.items_merged) / ops;
  const double written = static_cast<double>(st.items_written) / ops;
  state.counters["ns_per_op"] = ns;
  state.counters["items_merged_per_op"] = merged;
  state.counters["items_written_per_op"] = written;
  state.counters["nodes_touched_per_op"] = static_cast<double>(st.nodes_touched) / ops;
  const double forward = static_cast<double>(st.forward_refills) / ops;
  state.counters["forward_refills_per_op"] = forward;
  const std::string tail = "_n" + std::to_string(n) + "_" + heap_name;
  ph::bench::json_metric("cycle_scaling_ns_per_op" + tail, ns);
  ph::bench::json_metric("cycle_scaling_items_merged_per_op" + tail, merged);
  ph::bench::json_metric("cycle_scaling_items_written_per_op" + tail, written);
  ph::bench::json_metric("cycle_scaling_forward_refills_per_op" + tail, forward);
  if constexpr (requires { heap.pipeline_stats(); }) {
    const double procs = static_cast<double>(heap.pipeline_stats().procs_serviced) / ops;
    state.counters["procs_per_op"] = procs;
    ph::bench::json_metric("cycle_scaling_procs_per_op" + tail, procs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(res.ops));
}

void BM_SyncHeapHold(benchmark::State& state) {
  steady_hold<ph::ParallelHeap<std::uint64_t>>(state, "sync");
}
BENCHMARK(BM_SyncHeapHold)->RangeMultiplier(4)->Range(1 << 14, 1 << 22)->Iterations(1);

void BM_PipelinedHeapHold(benchmark::State& state) {
  steady_hold<ph::PipelinedParallelHeap<std::uint64_t>>(state, "pipelined");
}
BENCHMARK(BM_PipelinedHeapHold)->RangeMultiplier(4)->Range(1 << 14, 1 << 22)->Iterations(1);

/// Uniform random keys for the engine run.
std::vector<std::uint64_t> content(std::size_t n) {
  ph::Xoshiro256 rng(7);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(1ull << 40);
  return v;
}

// The full multithreaded engine on a hold-model workload: per cycle the
// think team processes the r smallest while the maintenance worker advances
// the pipeline. This is the variant whose --trace output shows the
// think/maintenance overlap (driver, think-*, and maint-* tracks).
void BM_EngineCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ph::EngineConfig cfg;
  cfg.node_capacity = kR;
  cfg.think_threads = 2;
  cfg.maintenance_threads = 1;
  ph::ParallelHeapEngine<std::uint64_t> eng(cfg);
  eng.seed(content(n));
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const ph::EngineReport rep = eng.run(
        [](unsigned, std::span<const std::uint64_t> mine,
           std::span<const std::uint64_t>, std::vector<std::uint64_t>& out) {
          for (std::uint64_t v : mine) {
            out.push_back(v + 1 + (v * 2654435761u) % (1u << 20));
          }
        },
        /*max_items=*/kR * 8);
    cycles += rep.cycles;
    benchmark::DoNotOptimize(cycles);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kR) * 8);
}
BENCHMARK(BM_EngineCycle)->Arg(1 << 14);

}  // namespace

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);  // strips --json/--trace first
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
