// Parallel synchronous window simulator on the ParallelHeapEngine: the
// library's flagship configuration — a global parallel-heap event queue,
// think workers handling each cycle's earliest events in parallel, and heap
// maintenance overlapped with the think phase. Semantics are identical to
// sync_sim.hpp (conservative lookahead window, exact results); GVT per cycle
// is the deleted batch's front, i.e. the first element of the parallel
// heap's root node, exactly as the paper observes.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "sim/event.hpp"
#include "sim/model.hpp"
#include "util/cacheline.hpp"
#include "util/timer.hpp"
#include "workloads/grain.hpp"

namespace ph::sim {

struct EngineSimConfig {
  std::size_t node_capacity = 512;  ///< r
  unsigned think_threads = 1;
  unsigned maintenance_threads = 0;
  bool pin_threads = false;
  std::size_t batch = 0;            ///< k per cycle; 0 → node_capacity
  std::size_t lane_fault_limit = 0; ///< retire a lane after this many straight faults
};

struct EngineSimResult {
  SimResult sim;
  EngineReport engine;
};

inline EngineSimResult run_engine_sim(const Model& model, double end_time,
                                      const EngineSimConfig& cfg) {
  EngineConfig ecfg;
  ecfg.node_capacity = cfg.node_capacity;
  ecfg.think_threads = cfg.think_threads;
  ecfg.maintenance_threads = cfg.maintenance_threads;
  ecfg.pin_threads = cfg.pin_threads;
  ecfg.batch = cfg.batch;
  ecfg.lane_fault_limit = cfg.lane_fault_limit;
  ParallelHeapEngine<Event, EventOrder> engine(ecfg);

  {
    std::vector<Event> init = model.initial_events();
    std::erase_if(init, [end_time](const Event& e) { return !(e.ts < end_time); });
    engine.seed(init);
  }

  const double lookahead = model.lookahead();
  const unsigned lanes = cfg.think_threads == 0 ? 1 : cfg.think_threads;
  struct LaneStats {
    std::uint64_t processed = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t deferred = 0;
    std::uint64_t sink = 0;
    double max_clock = 0;
  };
  std::vector<Padded<LaneStats>> lane_stats(lanes);

  const EngineReport rep = engine.run(
      [&](unsigned tid, std::span<const Event> mine, std::span<const Event> batch,
          std::vector<Event>& out) {
        LaneStats& ls = *lane_stats[tid];
        const double window = batch.front().ts + lookahead;
        for (const Event& e : mine) {
          if (e.ts < window) {
            ++ls.processed;
            ls.fingerprint += event_fingerprint(e);
            if (e.ts > ls.max_clock) ls.max_clock = e.ts;
            if (model.config().grain != 0) {
              ls.sink ^= spin_work(model.config().grain, e.tag);
            }
            const Event child = model.handle(e);
            if (child.ts < end_time) out.push_back(child);
          } else {
            ++ls.deferred;
            out.push_back(e);  // defer: back into the global queue
          }
        }
      });

  EngineSimResult res;
  res.engine = rep;
  res.sim.cycles = rep.cycles;
  res.sim.seconds = rep.seconds;
  for (const auto& ls : lane_stats) {
    res.sim.processed += ls->processed;
    res.sim.fingerprint += ls->fingerprint;
    res.sim.deferred += ls->deferred;
    res.sim.sink ^= ls->sink;
    if (ls->max_clock > res.sim.max_clock) res.sim.max_clock = ls->max_clock;
  }
  return res;
}

}  // namespace ph::sim
