// Distributed DES driver — the first consumer of the shard supervisor
// (dist/supervisor.hpp), per ROADMAP's "distribute a simulation across OS
// processes, kill one mid-run, and recover it from its own WAL while
// survivors keep cycling".
//
// The conservative window scheme is untouched: ShardSupervisor exposes the
// same cycle(span, k, out)-with-sorted-output contract, so it plugs straight
// into run_sync_sim and the result is exact by construction — same processed
// count and order-insensitive fingerprint as the serial reference — even
// when a shard process is SIGKILLed mid-run and recovered from its own WAL
// (test_dist.cpp asserts via SimResult::same_outcome). Routing uses the same
// timestamp-band scheme as the sharded driver: a cycle's delete wave is at
// most `lookahead` wide, so banding by one conservative window spreads it.
#pragma once

#include <cstddef>
#include <string>

#include "dist/supervisor.hpp"
#include "sim/event.hpp"
#include "sim/model.hpp"
#include "sim/sync_sim.hpp"

namespace ph::sim {

using DistEventSupervisor = dist::ShardSupervisor<Event, EventOrder>;

struct DistSimConfig {
  std::size_t shards = 2;
  std::size_t node_capacity = 64;
  std::size_t batch = 64;
  std::string dir;  ///< durable base directory (required)
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kNever;
  std::size_t checkpoint_interval = 32;
  bool use_processes = true;
  /// Fault drill: SIGKILL shard `kill_shard` just before this cycle number
  /// (1-based; 0 = no kill). Detection and recovery run mid-simulation.
  std::uint64_t kill_at_cycle = 0;
  std::size_t kill_shard = 0;
  /// Timestamp-band width (sim::band_router): > 0 explicit, 0 = the
  /// model's lookahead, < 0 = stateless value-hash routing.
  double band_width = 0.0;
};

struct DistSimResult {
  SimResult sim;
  DistEventSupervisor::Stats sup;  ///< spawns/takeovers/respawns of the run
};

namespace dist_detail {
/// Thin cycle adapter: forwards to the supervisor and injects the
/// configured kill at its cycle mark — from the driver's point of view the
/// queue just keeps answering.
struct KillingQueue {
  DistEventSupervisor& sup;
  std::uint64_t kill_at;
  std::size_t victim;
  std::uint64_t cycles = 0;

  std::size_t cycle(std::span<const Event> fresh, std::size_t k,
                    std::vector<Event>& out) {
    ++cycles;
    if (kill_at != 0 && cycles == kill_at) sup.kill_shard(victim);
    return sup.cycle(fresh, k, out);
  }
};
}  // namespace dist_detail

/// Runs the conservative window simulation over supervised shard processes.
/// Exact for any shard count, with or without the configured mid-run kill.
inline DistSimResult run_dist_sim(const Model& model, double end_time,
                                  const DistSimConfig& cfg) {
  DistEventSupervisor::Config qcfg;
  qcfg.shards = cfg.shards;
  qcfg.node_capacity = cfg.node_capacity;
  qcfg.dir = cfg.dir;
  qcfg.fsync = cfg.fsync;
  qcfg.checkpoint_interval = cfg.checkpoint_interval;
  qcfg.use_processes = cfg.use_processes;
  qcfg.router = band_router(model, cfg.band_width);
  DistEventSupervisor sup(std::move(qcfg));
  dist_detail::KillingQueue q{sup, cfg.kill_at_cycle, cfg.kill_shard};
  DistSimResult res;
  res.sim = run_sync_sim(q, model, end_time, cfg.batch);
  res.sup = sup.stats();
  return res;
}

}  // namespace ph::sim
