// Tests for the multithreaded ParallelHeapEngine: batch delivery order,
// determinism across team sizes, overlap plumbing, the maintenance-team
// parallel path, think-lane quarantine, and the public cycle() surface
// (directly and through the "engine_team" differential-registry entry).
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "testing/op_trace.hpp"
#include "testing/oracle.hpp"
#include "testing/structures.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

using Engine = ParallelHeapEngine<std::uint64_t>;

std::vector<std::uint64_t> random_items(std::size_t n, std::uint64_t seed,
                                        std::uint64_t bound = 1u << 30) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(bound);
  return v;
}

TEST(Engine, DrainsSeededHeapInAscendingBatches) {
  EngineConfig cfg;
  cfg.node_capacity = 16;
  cfg.think_threads = 2;
  Engine eng(cfg);
  auto items = random_items(500, 1);
  eng.seed(items);

  std::mutex mu;
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> batch_maxes;
  const EngineReport rep = eng.run(
      [&](unsigned, std::span<const std::uint64_t> mine,
          std::span<const std::uint64_t>, std::vector<std::uint64_t>&) {
        std::lock_guard lk(mu);
        seen.insert(seen.end(), mine.begin(), mine.end());
      });

  EXPECT_EQ(rep.items_processed, items.size());
  EXPECT_EQ(seen.size(), items.size());
  std::sort(seen.begin(), seen.end());
  std::sort(items.begin(), items.end());
  EXPECT_EQ(seen, items);
  EXPECT_GT(rep.cycles, items.size() / 16 - 1);
  EXPECT_TRUE(eng.heap().empty());
}

TEST(Engine, BatchesAreGloballyOrdered) {
  // Batch b+1's smallest item must be >= batch b's largest: the engine hands
  // out the k globally smallest per cycle.
  EngineConfig cfg;
  cfg.node_capacity = 8;
  cfg.think_threads = 1;
  Engine eng(cfg);
  auto items = random_items(400, 2);
  eng.seed(items);

  std::vector<std::uint64_t> batch_sorted;
  std::uint64_t prev_max = 0;
  bool first = true;
  bool ordered = true;
  eng.run([&](unsigned, std::span<const std::uint64_t> mine,
              std::span<const std::uint64_t>, std::vector<std::uint64_t>&) {
    // Single think thread: `mine` is the whole batch (round-robin of 1).
    batch_sorted.assign(mine.begin(), mine.end());
    std::sort(batch_sorted.begin(), batch_sorted.end());
    if (!first && !batch_sorted.empty() && batch_sorted.front() < prev_max) {
      ordered = false;
    }
    if (!batch_sorted.empty()) {
      prev_max = batch_sorted.back();
      first = false;
    }
  });
  EXPECT_TRUE(ordered);
}

// Hold-model think: every consumed item produces one new item with a larger
// key, value-deterministic so results are comparable across configurations.
void hold_think(std::span<const std::uint64_t> mine, std::vector<std::uint64_t>& out) {
  for (std::uint64_t v : mine) {
    out.push_back(v + 1 + (v * 2654435761u) % 1000);
  }
}

TEST(Engine, SteadyStateHoldModelStopsAtMaxItems) {
  EngineConfig cfg;
  cfg.node_capacity = 32;
  cfg.think_threads = 2;
  Engine eng(cfg);
  eng.seed(random_items(1000, 3, 1u << 20));
  const EngineReport rep = eng.run(
      [&](unsigned, std::span<const std::uint64_t> mine,
          std::span<const std::uint64_t>, std::vector<std::uint64_t>& out) {
        hold_think(mine, out);
      },
      /*max_items=*/5000);
  EXPECT_GE(rep.items_processed, 5000u);
  EXPECT_LT(rep.items_processed, 5000u + cfg.node_capacity);
  // Steady state: one insert per delete, heap stays ~1000.
  EXPECT_EQ(eng.heap().size(), 1000u);
}

TEST(Engine, DeterministicAcrossThinkTeamSizes) {
  // The multiset of processed items must be identical for 0, 1, 2, 4 think
  // threads (the hold think is value-deterministic).
  std::vector<std::vector<std::uint64_t>> results;
  for (unsigned threads : {0u, 1u, 2u, 4u}) {
    EngineConfig cfg;
    cfg.node_capacity = 16;
    cfg.think_threads = threads;
    Engine eng(cfg);
    eng.seed(random_items(300, 4, 1u << 16));
    std::mutex mu;
    std::vector<std::uint64_t> seen;
    eng.run(
        [&](unsigned, std::span<const std::uint64_t> mine,
            std::span<const std::uint64_t>, std::vector<std::uint64_t>& out) {
          {
            std::lock_guard lk(mu);
            seen.insert(seen.end(), mine.begin(), mine.end());
          }
          hold_think(mine, out);
        },
        /*max_items=*/3000);
    std::sort(seen.begin(), seen.end());
    results.push_back(std::move(seen));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "config " << i;
  }
}

TEST(Engine, MaintenanceTeamMatchesSerialMaintenance) {
  std::vector<std::vector<std::uint64_t>> results;
  for (unsigned mt : {0u, 2u, 4u}) {
    EngineConfig cfg;
    cfg.node_capacity = 16;
    cfg.think_threads = 1;
    cfg.maintenance_threads = mt;
    Engine eng(cfg);
    eng.seed(random_items(400, 5, 1u << 18));
    std::vector<std::uint64_t> seen;
    eng.run(
        [&](unsigned, std::span<const std::uint64_t> mine,
            std::span<const std::uint64_t>, std::vector<std::uint64_t>& out) {
          seen.insert(seen.end(), mine.begin(), mine.end());
          hold_think(mine, out);
        },
        /*max_items=*/4000);
    std::sort(seen.begin(), seen.end());
    results.push_back(std::move(seen));
  }
  EXPECT_EQ(results[1], results[0]);
  EXPECT_EQ(results[2], results[0]);
}

TEST(Engine, RoundRobinDealAcrossWorkers) {
  EngineConfig cfg;
  cfg.node_capacity = 8;
  cfg.think_threads = 4;
  Engine eng(cfg);
  std::vector<std::uint64_t> items(8);
  for (std::size_t i = 0; i < 8; ++i) items[i] = i;
  eng.seed(items);
  std::mutex mu;
  std::vector<std::vector<std::uint64_t>> per_tid(4);
  eng.run([&](unsigned tid, std::span<const std::uint64_t> mine,
              std::span<const std::uint64_t>, std::vector<std::uint64_t>&) {
    std::lock_guard lk(mu);
    per_tid[tid].insert(per_tid[tid].end(), mine.begin(), mine.end());
  });
  // 8 items over 4 workers round-robin: worker t gets {t, t+4}.
  for (unsigned t = 0; t < 4; ++t) {
    ASSERT_EQ(per_tid[t].size(), 2u) << "tid " << t;
    EXPECT_EQ(per_tid[t][0], t);
    EXPECT_EQ(per_tid[t][1], t + 4);
  }
}

TEST(Engine, EmptyHeapRunsZeroCycles) {
  EngineConfig cfg;
  cfg.node_capacity = 8;
  Engine eng(cfg);
  const EngineReport rep = eng.run(
      [&](unsigned, std::span<const std::uint64_t>, std::span<const std::uint64_t>,
          std::vector<std::uint64_t>&) {
        FAIL() << "think must not run on an empty heap";
      });
  EXPECT_EQ(rep.cycles, 0u);
  EXPECT_EQ(rep.items_processed, 0u);
}

TEST(Engine, SmallBatchConfig) {
  EngineConfig cfg;
  cfg.node_capacity = 64;
  cfg.batch = 8;  // delete fewer than r per cycle
  cfg.think_threads = 2;
  Engine eng(cfg);
  auto items = random_items(256, 6);
  eng.seed(items);
  std::mutex mu;
  std::vector<std::uint64_t> seen;
  const EngineReport rep = eng.run(
      [&](unsigned, std::span<const std::uint64_t> mine,
          std::span<const std::uint64_t>, std::vector<std::uint64_t>&) {
        std::lock_guard lk(mu);
        seen.insert(seen.end(), mine.begin(), mine.end());
      });
  EXPECT_EQ(rep.items_processed, 256u);
  EXPECT_GE(rep.cycles, 32u);
  std::sort(seen.begin(), seen.end());
  std::sort(items.begin(), items.end());
  EXPECT_EQ(seen, items);
}

TEST(Engine, QuarantineRetiresFlappingLaneAndConservesItems) {
  // Lane 1 throws on every cycle. After lane_fault_limit consecutive faults
  // it is retired from the deal; each failed share was requeued, so every
  // seeded item is eventually thought — exactly once, by a healthy lane —
  // and the heap drains empty.
  EngineConfig cfg;
  cfg.node_capacity = 16;
  cfg.think_threads = 2;
  cfg.lane_fault_limit = 3;
  Engine eng(cfg);
  auto items = random_items(200, 8);
  eng.seed(items);

  std::mutex mu;
  std::vector<std::uint64_t> seen;
  const EngineReport rep = eng.run(
      [&](unsigned tid, std::span<const std::uint64_t> mine,
          std::span<const std::uint64_t>, std::vector<std::uint64_t>&) {
        if (tid == 1) throw std::runtime_error("flapping lane");
        std::lock_guard lk(mu);
        seen.insert(seen.end(), mine.begin(), mine.end());
      });

  EXPECT_EQ(rep.lanes_quarantined, 1u);
  EXPECT_GE(rep.think_faults, 3u);  // at least the streak that retired it
  EXPECT_TRUE(eng.heap().empty());
  std::sort(seen.begin(), seen.end());
  std::sort(items.begin(), items.end());
  EXPECT_EQ(seen, items);  // no loss, no duplication across the requeues

  // The retirement left a black-box record in the flight ring.
  bool recorded = false;
  for (const auto& ev : obs::FlightRecorder::instance().snapshot()) {
    if (ev.kind == obs::FlightKind::kLaneQuarantine && ev.a == 1) {
      recorded = true;
    }
  }
  EXPECT_TRUE(recorded);
}

TEST(Engine, EmptyShareDoesNotResetFaultStreakOfFlappingLane) {
  // Regression for the streak-bookkeeping bug: when requeues shrink the
  // batch below the lane count, a flapping lane is sometimes dealt an EMPTY
  // share, which trivially "succeeds". The old code reset lane_streak_ on
  // that no-op, so a lane that faults on every real share could evade the
  // quarantine limit forever. Deterministic trace (r=2, two lanes, lane 1
  // throws iff its share is nonempty):
  //   c1: deal {10|20}  lane1 faults on {20}   streak 1, requeue {20}
  //   c2: deal {20|30}  lane1 faults on {30}   streak 2, requeue {30}
  //   c3: deal {30|−}   lane1 EMPTY share      streak must STAY 2
  //   c4: deal {40|50}  lane1 faults on {50}   streak 3 → quarantined
  //   c5: lane0 alone processes the requeued {50}
  EngineConfig cfg;
  cfg.node_capacity = 2;
  cfg.think_threads = 2;
  cfg.lane_fault_limit = 3;
  Engine eng(cfg);
  eng.seed(std::vector<std::uint64_t>{10, 20, 30});

  std::mutex mu;
  std::vector<std::uint64_t> seen;
  const EngineReport rep = eng.run(
      [&](unsigned tid, std::span<const std::uint64_t> mine,
          std::span<const std::uint64_t>, std::vector<std::uint64_t>& out) {
        if (tid == 1 && !mine.empty()) throw std::runtime_error("flapping");
        std::lock_guard lk(mu);
        seen.insert(seen.end(), mine.begin(), mine.end());
        for (std::uint64_t v : mine) {
          if (v == 30) {  // one burst of follow-on work keeps c4 two-wide
            out.push_back(40);
            out.push_back(50);
          }
        }
      });

  EXPECT_EQ(rep.lanes_quarantined, 1u);  // old code: 0 (streak reset at c3)
  EXPECT_EQ(rep.think_faults, 3u);
  EXPECT_TRUE(eng.heap().empty());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{10, 20, 30, 40, 50}));
}

TEST(Engine, ThinkItemsCountsSuccessfulThinksOnly) {
  // Regression for the double-count: items thought used to be tallied at
  // share DELIVERY, so a faulted lane's requeued items were counted once
  // per retry and the count drifted past items-actually-thought. It must
  // equal the number of items that passed through a SUCCESSFUL think.
  EngineConfig cfg;
  cfg.node_capacity = 2;
  cfg.think_threads = 2;
  cfg.lane_fault_limit = 3;
  Engine eng(cfg);
  eng.seed(std::vector<std::uint64_t>{10, 20, 30});
  const EngineReport rep = eng.run(
      [&](unsigned tid, std::span<const std::uint64_t> mine,
          std::span<const std::uint64_t>, std::vector<std::uint64_t>& out) {
        if (tid == 1 && !mine.empty()) throw std::runtime_error("flapping");
        for (std::uint64_t v : mine) {
          if (v == 30) {
            out.push_back(40);
            out.push_back(50);
          }
        }
      });

  // Lane 0 successfully thinks exactly {10,20,30,40,50}; lane 1's faulted
  // shares (20, 30, 50 at delivery) must NOT be counted.
  EXPECT_EQ(rep.items_thought, 5u);
  EXPECT_EQ(rep.items_processed, 8u);
}

TEST(Engine, ThinkTeamRunMatchesOracleAcrossTeamSizes) {
  // ROADMAP carry-over: drive the ENGINE'S OWN run() loop — think team,
  // round-robin deal, requeue-free steady state — through a differential
  // trace. The per-cycle deleted batch (the `batch` span every lane
  // receives) must be bit-identical across think-team sizes AND match the
  // sorted-multiset oracle fed the same value-deterministic feedback, which
  // pins the full think-team schedule to the serial semantics.
  constexpr std::size_t kR = 16;
  constexpr std::uint64_t kMaxItems = 4000;
  std::vector<std::vector<std::vector<std::uint64_t>>> streams;

  struct Cfg {
    unsigned think, maint;
  };
  for (const Cfg tc : {Cfg{0, 0}, Cfg{2, 0}, Cfg{3, 2}}) {
    EngineConfig cfg;
    cfg.node_capacity = kR;
    cfg.think_threads = tc.think;
    cfg.maintenance_threads = tc.maint;
    Engine eng(cfg);
    eng.seed(random_items(300, 42, 1u << 20));

    std::mutex mu;
    std::vector<std::vector<std::uint64_t>> batches;
    eng.run(
        [&](unsigned tid, std::span<const std::uint64_t> mine,
            std::span<const std::uint64_t> batch, std::vector<std::uint64_t>& out) {
          if (tid == 0) {  // one recorder per cycle; every lane sees `batch`
            std::lock_guard lk(mu);
            batches.emplace_back(batch.begin(), batch.end());
          }
          // Value-deterministic feedback: the produced multiset depends only
          // on the deleted values, never on the deal or the schedule.
          for (std::uint64_t v : mine) out.push_back(v + 1 + (v & 0xff));
        },
        kMaxItems);
    streams.push_back(std::move(batches));
  }

  ASSERT_EQ(streams[1], streams[0]);
  ASSERT_EQ(streams[2], streams[0]);

  // Oracle lockstep over the recorded stream: batch 0 is the post-seed
  // delete; each later batch deletes after inserting the feedback of the
  // previous one.
  testing::SortedOracle oracle;
  std::vector<std::uint64_t> fresh = random_items(300, 42, 1u << 20);
  for (const auto& batch : streams[0]) {
    std::vector<std::uint64_t> want;
    oracle.cycle(fresh, kR, want);
    ASSERT_EQ(batch, want);
    fresh.clear();
    for (std::uint64_t v : want) fresh.push_back(v + 1 + (v & 0xff));
  }
}

TEST(Engine, LastAliveLaneIsNeverQuarantined) {
  // A single lane that always fails must keep flapping (degraded beats
  // dead): no quarantine, and the max_items bound — which counts failed
  // shares — still terminates the run.
  EngineConfig cfg;
  cfg.node_capacity = 8;
  cfg.think_threads = 1;
  cfg.lane_fault_limit = 2;
  Engine eng(cfg);
  eng.seed(random_items(64, 9));
  const EngineReport rep = eng.run(
      [&](unsigned, std::span<const std::uint64_t>, std::span<const std::uint64_t>,
          std::vector<std::uint64_t>&) -> void {
        throw std::runtime_error("always failing");
      },
      /*max_items=*/500);
  EXPECT_EQ(rep.lanes_quarantined, 0u);
  EXPECT_GT(rep.think_faults, cfg.lane_fault_limit);
  EXPECT_EQ(eng.heap().size(), 64u);  // every share was requeued
}

TEST(Engine, CycleApiMatchesOracleWithMaintenanceTeam) {
  // The public batch surface (cycle()) drives the engine's own maintenance
  // team; its deletion stream must match the sorted-multiset oracle exactly.
  EngineConfig cfg;
  cfg.node_capacity = 8;
  cfg.think_threads = 0;
  cfg.maintenance_threads = 2;
  Engine eng(cfg);
  testing::SortedOracle oracle;
  Xoshiro256 rng(10);
  std::vector<std::uint64_t> got, want, fresh;
  for (int cycle = 0; cycle < 300; ++cycle) {
    fresh.clear();
    for (std::size_t i = rng.next_below(10); i > 0; --i) {
      fresh.push_back(rng.next_below(1u << 18));
    }
    const std::size_t k = rng.next_below(9);
    got.clear();
    want.clear();
    eng.cycle(fresh, k, got);
    oracle.cycle(fresh, k, want);
    ASSERT_EQ(got, want) << "cycle " << cycle;
  }
  for (;;) {
    got.clear();
    want.clear();
    const std::size_t ne = eng.cycle({}, 8, got);
    const std::size_t no = oracle.cycle({}, 8, want);
    ASSERT_EQ(got, want);
    if (ne == 0 && no == 0) break;
  }
  std::string why;
  EXPECT_TRUE(eng.heap().check_invariants(&why)) << why;
}

TEST(Engine, TeamRegistryEntryPassesDifferential) {
  // The "engine_team" registry entry rides the full adversarial
  // differential runner with the engine's own maintenance team, bit-exact.
  for (std::uint64_t seed : {11u, 47u}) {
    testing::GenConfig gen;
    gen.r = 8;
    gen.cycles = 200;
    gen.seed = seed;
    testing::OpTrace t = generate_trace(gen);
    t.structure = "engine_team";
    const auto f = testing::run_trace(t);
    EXPECT_FALSE(f.failed) << "seed " << seed << ": " << f.message;
  }
}

TEST(Engine, ReportsPhaseTimes) {
  EngineConfig cfg;
  cfg.node_capacity = 32;
  cfg.think_threads = 2;
  Engine eng(cfg);
  eng.seed(random_items(2000, 7));
  const EngineReport rep = eng.run(
      [&](unsigned, std::span<const std::uint64_t> mine,
          std::span<const std::uint64_t>, std::vector<std::uint64_t>&) {
        // Tiny spin to make think time visible.
        volatile std::uint64_t sink = 0;
        for (std::uint64_t v : mine) {
          for (int i = 0; i < 50; ++i) sink = sink + v;
        }
      });
  EXPECT_GT(rep.seconds, 0.0);
  EXPECT_GE(rep.maint_seconds, 0.0);
  EXPECT_GE(rep.root_seconds, 0.0);
}

}  // namespace
}  // namespace ph
