// E9 — design ablation: pipelined vs synchronous maintenance.
//
// Claim (the reason the paper pipelines): both variants do the same total
// merge work per cycle in steady state, but the synchronous variant performs
// all of it *inside* the cycle (critical path O(r log n)), while the
// pipelined variant performs only the root work plus one level-service per
// half-step (critical path O(r)), spreading the rest across later cycles.
// We report per-cycle wall time and the work counters at growing n: the
// synchronous per-cycle cost grows with log n, the pipelined one stays flat.
// Per n the binary emits the json scalars pipeline_ablation_{sync,pipe}
// _{us,items_merged}_per_cycle_n<n>.
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel_heap.hpp"
#include "core/pipelined_heap.hpp"
#include "util/timer.hpp"
#include "workloads/hold_model.hpp"

namespace {
constexpr std::size_t kR = 512;
constexpr std::uint64_t kOps = 1 << 20;
}  // namespace

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);
  using namespace ph;
  using namespace ph::bench;

  header("E9 ablation: synchronous vs pipelined maintenance",
         "claim: equal total work; pipelined flattens the per-cycle critical "
         "path from O(r log n) to O(r)");
  columns("n,sync_us_per_cycle,pipe_us_per_cycle,sync_merged_per_cycle,"
          "pipe_merged_per_cycle,pipe_inflight_peak");

  for (std::size_t n = 1 << 12; n <= (1u << 22); n <<= 2) {
    HoldConfig cfg;
    cfg.n = n;
    cfg.ops = kOps;

    ParallelHeap<std::uint64_t> sync(kR);
    sync.build(hold_initial(cfg));
    sync.reset_stats();
    Timer ts;
    batch_hold(sync, cfg, kR);
    const double sync_secs = ts.seconds();

    PipelinedParallelHeap<std::uint64_t> pipe(kR);
    pipe.build(hold_initial(cfg));
    pipe.reset_stats();
    Timer tp;
    batch_hold(pipe, cfg, kR);
    const double pipe_secs = tp.seconds();

    const auto& ss = sync.stats();
    const auto& sp = pipe.stats();
    const double sync_us = sync_secs / static_cast<double>(ss.cycles) * 1e6;
    const double pipe_us = pipe_secs / static_cast<double>(sp.cycles) * 1e6;
    const double sync_merged =
        static_cast<double>(ss.items_merged) / static_cast<double>(ss.cycles);
    const double pipe_merged =
        static_cast<double>(sp.items_merged) / static_cast<double>(sp.cycles);
    row("%zu,%.2f,%.2f,%.0f,%.0f,%llu", n, sync_us, pipe_us, sync_merged, pipe_merged,
        static_cast<unsigned long long>(pipe.pipeline_stats().max_inflight));
    const std::string tail = "_per_cycle_n" + std::to_string(n);
    json_metric("pipeline_ablation_sync_us" + tail, sync_us);
    json_metric("pipeline_ablation_pipe_us" + tail, pipe_us);
    json_metric("pipeline_ablation_sync_items_merged" + tail, sync_merged);
    json_metric("pipeline_ablation_pipe_items_merged" + tail, pipe_merged);
  }
  note("in a threaded engine the pipelined half-steps also overlap the think "
       "phase, which the synchronous variant cannot do at all");
  return 0;
}
