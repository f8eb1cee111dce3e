// Sharded DES driver — the first consumer of the key-range-sharded heap
// (core/sharded_heap.hpp), per ROADMAP's "shard the heap by key range across
// engine instances (the DES simulator is the first consumer)".
//
// Nothing about the conservative window scheme changes: ShardedHeap exposes
// the same cycle(span, k, out)-with-sorted-output contract the parallel heap
// does, so it plugs straight into run_sync_sim (sync_sim.hpp) and the result
// is exact by construction — same processed count and order-insensitive
// fingerprint as the serial reference, which test_sharded.cpp asserts via
// SimResult::same_outcome. Sharding by *timestamp* range is a natural fit
// for DES: the hold-model property (children are scheduled at or after their
// parent plus lookahead) keeps the near-future shard hot on the delete side
// while inserts land in later shards, and periodic rebalancing tracks the
// advancing GVT horizon as earlier time ranges drain.
#pragma once

#include <cstddef>

#include "core/sharded_heap.hpp"
#include "sim/event.hpp"
#include "sim/model.hpp"
#include "sim/sync_sim.hpp"

namespace ph::sim {

/// The global queue type DES runs shard: timestamp-ordered events.
using ShardedEventHeap = ShardedHeap<Event, EventOrder>;

struct ShardedSimConfig {
  /// The sharded queue's own knobs (shards, rebalancing, quarantine, min
  /// hint), passed through as is; `router` is set from band_width.
  ShardedEventHeap::Config queue{/*shards=*/2, /*rebalance_interval=*/32};
  std::size_t node_capacity = 64;  ///< r of each shard engine
  std::size_t batch = 64;          ///< deletion budget per cycle (<= r)
  /// Timestamp-band routing, the delete-hotspot fix (sim::band_router):
  /// > 0 explicit band width in sim-time units; 0 the model's lookahead;
  /// < 0 disabled, keep the quantile partitioner.
  double band_width = -1.0;
};

struct ShardedSimResult {
  SimResult sim;
  ShardedStats shard;  ///< routing/putback/merge-width counters of the run
};

/// Runs the conservative window simulation over a key-range-sharded global
/// event queue. Exact for any shard count; cfg.queue.shards == 1
/// degenerates to run_sync_sim over a single pipelined heap.
inline ShardedSimResult run_sharded_sim(const Model& model, double end_time,
                                        const ShardedSimConfig& cfg) {
  ShardedEventHeap::Config qcfg = cfg.queue;
  qcfg.router = band_router(model, cfg.band_width);
  ShardedEventHeap q(cfg.node_capacity, qcfg);
  ShardedSimResult res;
  res.sim = run_sync_sim(q, model, end_time, cfg.batch);
  res.shard = q.sharded_stats();
  return res;
}

}  // namespace ph::sim
