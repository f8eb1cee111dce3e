// E2 — effect of node size r (lineage: "speedup vs parallel heap node size",
// where the plotted curves peak at an interior r).
//
// Claim: throughput as a function of r has an interior optimum — tiny nodes
// cannot amortize per-cycle overheads or expose batch parallelism; huge
// nodes waste merge work and (in simulation use) defer more events. We run
// the hold model at fixed n and sweep r, reporting throughput plus the two
// work counters whose opposing trends produce the optimum:
//   merge work per item  (falls then flattens as r grows)
//   root-phase share     (serial fraction; falls with r)
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pipelined_heap.hpp"
#include "util/timer.hpp"
#include "workloads/hold_model.hpp"

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);
  using namespace ph;
  using namespace ph::bench;

  header("E2 node-size sweep (hold model, pipelined parallel heap)",
         "claim: interior optimum in r; merge work per item falls with r");
  columns("r,Mops,us_per_cycle,items_merged_per_op,items_written_per_op,nodes_touched_per_cycle");

  HoldConfig cfg;
  cfg.n = 1 << 18;
  cfg.ops = 1 << 21;
  cfg.dist = Dist::kExponential;

  for (std::size_t r = 16; r <= (1u << 15); r *= 4) {
    PipelinedParallelHeap<std::uint64_t> q(r);
    q.build(hold_initial(cfg));
    q.reset_stats();
    Timer t;
    const HoldResult res = batch_hold(q, cfg, r);
    const double secs = t.seconds();
    const auto& st = q.stats();
    const double merged_per_op =
        static_cast<double>(st.items_merged) / static_cast<double>(res.ops);
    const double written_per_op =
        static_cast<double>(st.items_written) / static_cast<double>(res.ops);
    row("%zu,%.2f,%.2f,%.2f,%.2f,%.2f", r,
        static_cast<double>(res.ops) / secs / 1e6,
        secs / static_cast<double>(st.cycles) * 1e6, merged_per_op, written_per_op,
        static_cast<double>(st.nodes_touched) / static_cast<double>(st.cycles));
    json_metric("node_size_ns_per_op_r" + std::to_string(r),
                secs / static_cast<double>(res.ops) * 1e9);
    json_metric("node_size_items_merged_per_op_r" + std::to_string(r), merged_per_op);
    json_metric("node_size_items_written_per_op_r" + std::to_string(r), written_per_op);
  }
  note("n=%zu ops=%llu; r is also the batch width handed to workers per cycle",
       cfg.n, static_cast<unsigned long long>(cfg.ops));
  return 0;
}
