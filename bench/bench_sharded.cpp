// E13 — key-range sharding: 1–8 shard engines behind the sharded front end
// (core/sharded_heap.hpp) on the hold model and on DES (sim/sharded_sim.hpp).
//
// Claim shapes: the routing/merge overhead of K > 1 is bounded and visible
// as putback traffic and merge width (≈ 1 when the partition map is good, so
// the delete path stays effectively single-shard); rebalancing keeps the
// routing imbalance near 1 under the hold model's advancing key horizon; the
// DES outcome is bit-exact at every shard count (checked here against the
// serial reference). On a 1-core container the win is architectural — K
// independent pipelines that *could* run on K hosts — so the numbers to
// watch are the hardware-independent counters, not wall clock.
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "core/sharded_heap.hpp"
#include "sim/model.hpp"
#include "sim/network.hpp"
#include "sim/serial_sim.hpp"
#include "sim/sharded_sim.hpp"
#include "util/timer.hpp"
#include "workloads/hold_model.hpp"

namespace {

struct HoldRow {
  double ns_per_op = 0;
  ph::ShardedStats stats;
};

HoldRow time_sharded_hold(std::size_t shards, std::size_t n, std::uint64_t ops,
                          std::size_t r) {
  ph::HoldConfig cfg;
  cfg.n = n;
  cfg.ops = ops;
  ph::ShardedHeap<std::uint64_t> q(
      r, ph::ShardedHeap<std::uint64_t>::Config{shards, /*rebalance_interval=*/64,
                                                /*sample_capacity=*/2048});
  // Live gauges: with --metrics-port/--metrics-file a scraper watches this
  // run's per-shard sizes and cycle counters advance mid-benchmark.
  q.register_gauges("hold-k" + std::to_string(shards));
  q.build(ph::hold_initial(cfg));
  ph::Timer t;
  const ph::HoldResult res = ph::batch_hold(q, cfg, r);
  HoldRow out;
  out.ns_per_op = t.seconds() / static_cast<double>(res.ops) * 1e9;
  out.stats = q.sharded_stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);
  using namespace ph;
  using namespace ph::bench;

  const std::size_t kShardCounts[] = {1, 2, 4, 8};

  header("E13 key-range sharding: 1-8 shard engines, hold model + DES",
         "claim: merge width ~1 and bounded putback traffic with a rebalanced "
         "partition map; DES outcome exact at every shard count");

  columns("workload,shards,ns_per_op,imbalance,merge_width,putback_frac,rebalances");
  for (const std::size_t shards : kShardCounts) {
    const HoldRow h = time_sharded_hold(shards, 1 << 16, 1 << 17, 512);
    const double putback_frac =
        h.stats.routed ? static_cast<double>(h.stats.putbacks) /
                             static_cast<double>(h.stats.routed)
                       : 0.0;
    row("hold,%zu,%.0f,%.2f,%.2f,%.3f,%llu", shards, h.ns_per_op,
        h.stats.imbalance(shards), h.stats.avg_merge_width(), putback_frac,
        static_cast<unsigned long long>(h.stats.rebalances));
    json_metric("hold_ns_per_op_shards" + std::to_string(shards), h.ns_per_op);
    json_metric("hold_imbalance_shards" + std::to_string(shards),
                h.stats.imbalance(shards));
    json_metric("hold_merge_width_shards" + std::to_string(shards),
                h.stats.avg_merge_width());
    json_metric("hold_putback_frac_shards" + std::to_string(shards), putback_frac);
  }

  const sim::Topology topo = sim::make_torus(64, 64);
  sim::ModelConfig mc;
  mc.seed = 11;
  const sim::Model model(topo, mc);
  const double horizon = 30.0;
  const sim::SimResult serial = sim::run_serial_sim(model, horizon);

  columns("workload,shards,events,ev_per_s,imbalance,merge_width,putback_frac,exact");
  for (const std::size_t shards : kShardCounts) {
    sim::ShardedSimConfig cfg;
    cfg.queue.shards = shards;
    cfg.node_capacity = 256;
    cfg.batch = 256;
    const sim::ShardedSimResult res = sim::run_sharded_sim(model, horizon, cfg);
    const double putback_frac =
        res.shard.routed ? static_cast<double>(res.shard.putbacks) /
                               static_cast<double>(res.shard.routed)
                         : 0.0;
    const bool exact = res.sim.same_outcome(serial);
    row("des_torus64,%zu,%llu,%.0f,%.2f,%.2f,%.3f,%d", shards,
        static_cast<unsigned long long>(res.sim.processed),
        static_cast<double>(res.sim.processed) / res.sim.seconds,
        res.shard.imbalance(shards), res.shard.avg_merge_width(), putback_frac,
        exact ? 1 : 0);
    json_metric("des_ev_per_s_shards" + std::to_string(shards),
                static_cast<double>(res.sim.processed) / res.sim.seconds);
    json_metric("des_merge_width_shards" + std::to_string(shards),
                res.shard.avg_merge_width());
    json_metric("des_exact_shards" + std::to_string(shards), exact ? 1.0 : 0.0);
  }
  note("exact=1 means processed count and fingerprint match the serial "
       "reference; sharded DES is exact by construction at any K");
  return 0;
}
