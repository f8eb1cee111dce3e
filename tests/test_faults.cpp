// Recovery-path tests for the fault-tolerance subsystem (src/robustness/):
// the fail-point registry's deterministic schedules, the strong-guarantee
// batch wrappers under injected OOM / torn batches / throwing comparators,
// snapshot/restore checkpoints, the engine's at-least-once think recovery,
// the phase watchdog's escalation ladder on a fake clock, the assert-flush
// hook, and SenseBarrier liveness under oversubscription.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/pipelined_heap.hpp"
#include "robustness/fault_matrix.hpp"
#include "robustness/failpoint.hpp"
#include "robustness/watchdog.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/differential.hpp"
#include "testing/op_trace.hpp"
#include "testing/structures.hpp"
#include "testing/oracle.hpp"
#include "util/assert.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

using U64 = std::uint64_t;
namespace rb = ph::robustness;

// The watchdog's rung-2 verdict now persists the flight-recorder ring; keep
// those dumps out of the working tree when this binary walks the ladder.
const bool g_dump_dir_set = [] {
  obs::FlightRecorder::instance().set_dump_dir(::testing::TempDir());
  return true;
}();

/// Every test that arms a site must leave the registry clean even when an
/// EXPECT fails mid-body.
struct DisarmGuard {
  ~DisarmGuard() { rb::disarm_all(); }
};

std::vector<U64> seeded_keys(std::size_t n, U64 stride = 7) {
  std::vector<U64> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1 + i * stride;
  return v;
}

// ------------------------------------------------------------ registry

TEST(Failpoints, ScheduleFiresAtNthThenEveryPeriodUpToMax) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  rb::arm(rb::FailSite::kSkipReservice,
          rb::FireSpec{/*nth=*/3, /*period=*/4, /*max_fires=*/2, /*stall_us=*/0});
  std::vector<int> fired_at;
  for (int i = 1; i <= 16; ++i) {
    if (rb::fire(rb::FailSite::kSkipReservice)) fired_at.push_back(i);
  }
  EXPECT_EQ(fired_at, (std::vector<int>{3, 7}));  // nth=3, then 3+4, capped at 2
  const rb::SiteStats st = rb::stats(rb::FailSite::kSkipReservice);
  EXPECT_EQ(st.evaluations, 16u);
  EXPECT_EQ(st.fires, 2u);
}

TEST(Failpoints, DisarmedSiteNeverFiresAndCountsNothing) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  rb::disarm_all();
  const std::uint64_t evals_before = rb::stats(rb::FailSite::kTornInsert).evaluations;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rb::fire(rb::FailSite::kTornInsert));
  }
  EXPECT_EQ(rb::stats(rb::FailSite::kTornInsert).evaluations, evals_before);
  EXPECT_FALSE(rb::any_armed());
}

TEST(Failpoints, SiteNamesRoundTrip) {
  for (std::size_t i = 0; i < rb::kNumFailSites; ++i) {
    const auto s = static_cast<rb::FailSite>(i);
    rb::FailSite back = rb::FailSite::kCount;
    ASSERT_TRUE(rb::fail_site_from_name(rb::fail_site_name(s), back))
        << rb::fail_site_name(s);
    EXPECT_EQ(back, s);
  }
  rb::FailSite out;
  EXPECT_FALSE(rb::fail_site_from_name("no_such_site", out));
}

TEST(Failpoints, ArmSeededIsDeterministicPerSeed) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  auto schedule = [](std::uint64_t seed) {
    rb::arm_seeded(rb::FailSite::kSkipReservice, seed, /*mean_period=*/10,
                   /*max_fires=*/3, /*stall_us=*/0);
    std::vector<int> fired;
    for (int i = 1; i <= 200; ++i) {
      if (rb::fire(rb::FailSite::kSkipReservice)) fired.push_back(i);
    }
    rb::disarm(rb::FailSite::kSkipReservice);
    return fired;
  };
  const auto a = schedule(42);
  EXPECT_EQ(a, schedule(42));
  EXPECT_EQ(a.size(), 3u);
}

// --------------------------------------- strong-guarantee batch wrappers

TEST(FaultRecovery, InsertBatchRollsBackOnRootAllocOom) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  PipelinedParallelHeap<U64> q(4);
  const std::vector<U64> base = seeded_keys(40);
  q.build(base);
  const std::vector<U64> fresh = seeded_keys(12, 11);

  rb::arm(rb::FailSite::kRootAlloc, rb::FireSpec{1, 0, 1, 0});
  EXPECT_THROW(q.insert_batch(fresh), rb::InjectedOom);
  rb::disarm_all();

  // Strong guarantee: contents exactly the pre-call multiset.
  std::vector<U64> want = base;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(q.sorted_contents(), want);
  std::string why;
  EXPECT_TRUE(q.verify_invariants(&why)) << why;

  // The retry (injection exhausted) succeeds and lands every item.
  q.insert_batch(fresh);
  want.insert(want.end(), fresh.begin(), fresh.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(q.sorted_contents(), want);
}

TEST(FaultRecovery, InsertBatchRollsBackOnSpawnAllocOom) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  PipelinedParallelHeap<U64> q(4);
  const std::vector<U64> base = seeded_keys(64);
  q.build(base);
  // A batch larger than r overflows the root and must spawn an
  // insert-update process — the kSpawnAlloc site sits on that allocation.
  const std::vector<U64> fresh = seeded_keys(16, 13);

  rb::arm(rb::FailSite::kSpawnAlloc, rb::FireSpec{1, 0, 1, 0});
  EXPECT_THROW(q.insert_batch(fresh), rb::InjectedOom);
  EXPECT_GE(rb::stats(rb::FailSite::kSpawnAlloc).fires, 1u);
  rb::disarm_all();

  std::vector<U64> want = base;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(q.sorted_contents(), want);

  q.insert_batch(fresh);
  EXPECT_EQ(q.size(), base.size() + fresh.size());
}

TEST(FaultRecovery, TornInsertBatchRestoresPreCallState) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  PipelinedParallelHeap<U64> q(4);
  const std::vector<U64> base = seeded_keys(32);
  q.build(base);
  // kTornInsert fires between spawn chunks, so the batch must span several
  // chunks of r: some items are already committed when the tear hits.
  const std::vector<U64> fresh = seeded_keys(24, 17);

  rb::arm(rb::FailSite::kTornInsert, rb::FireSpec{1, 0, 1, 0});
  EXPECT_THROW(q.insert_batch(fresh), rb::InjectedFault);
  EXPECT_GE(rb::stats(rb::FailSite::kTornInsert).fires, 1u);
  rb::disarm_all();

  std::vector<U64> want = base;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(q.sorted_contents(), want);
  std::string why;
  EXPECT_TRUE(q.verify_invariants(&why)) << why;
}

TEST(FaultRecovery, DeleteMinBatchRollsBackOnThrowingComparator) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  struct ThrowLess {
    bool operator()(U64 a, U64 b) const {
      rb::fire_fault(rb::FailSite::kCompareThrow);
      return a < b;
    }
  };
  PipelinedParallelHeap<U64, ThrowLess> q(4);
  const std::vector<U64> base = seeded_keys(48);
  q.build(base);

  rb::arm(rb::FailSite::kCompareThrow, rb::FireSpec{10, 0, 1, 0});
  std::vector<U64> out;
  EXPECT_THROW(q.delete_min_batch(8, out), rb::InjectedFault);
  rb::disarm_all();

  // Strong guarantee: nothing left the heap, nothing reached the output.
  EXPECT_TRUE(out.empty());
  std::vector<U64> want = base;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(q.sorted_contents(), want);

  // Injection off: the same call removes exactly the 8 smallest.
  const std::size_t n = q.delete_min_batch(8, out);
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(out, std::vector<U64>(want.begin(), want.begin() + 8));
}

TEST(FaultRecovery, SnapshotRestoreRoundTripsAcrossMutation) {
  PipelinedParallelHeap<U64> q(8);
  const std::vector<U64> base = seeded_keys(100);
  q.build(base);
  const auto snap = q.snapshot();

  std::vector<U64> sink;
  q.cycle(seeded_keys(30, 19), 8, sink);
  q.cycle({}, 8, sink);
  ASSERT_NE(q.size(), base.size());

  q.restore(snap);
  EXPECT_EQ(q.size(), base.size());
  std::vector<U64> want = base;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(q.sorted_contents(), want);
}

TEST(FaultRecovery, VerifyInvariantsSeesMidPipelineState) {
  PipelinedParallelHeap<U64> q(4);
  q.build(seeded_keys(64));
  std::vector<U64> sink;
  // Leave processes in flight (no drain) and verify without disturbing them.
  q.cycle(seeded_keys(12, 23), 4, sink);
  std::string why;
  EXPECT_TRUE(q.verify_invariants(&why)) << why;
  EXPECT_GT(q.inflight(), 0u);  // the check must not have drained
}

// ------------------------------------------------ engine think recovery

TEST(EngineFaults, ThrowingThinkLaneIsRequeuedAtLeastOnce) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  EngineConfig ecfg;
  ecfg.node_capacity = 8;
  ecfg.think_threads = 2;
  ecfg.batch = 8;
  ParallelHeapEngine<U64> engine(ecfg);
  const std::size_t n = 600;
  std::vector<U64> seedv(n);
  for (std::size_t i = 0; i < n; ++i) seedv[i] = static_cast<U64>(i);
  engine.seed(seedv);

  rb::arm(rb::FailSite::kThinkThrow, rb::FireSpec{2, 7, 3, 0});
  std::vector<std::vector<U64>> processed(2);
  const EngineReport rep = engine.run(
      [&](unsigned tid, std::span<const U64> mine, std::span<const U64>,
          std::vector<U64>&) {
        processed[tid].insert(processed[tid].end(), mine.begin(), mine.end());
      });
  rb::disarm_all();

  EXPECT_GE(rep.think_faults, 1u);
  EXPECT_TRUE(engine.heap().empty());
  std::vector<U64> all;
  for (const auto& p : processed) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  // At-least-once: every seeded item was processed (requeue may duplicate).
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(std::binary_search(all.begin(), all.end(), static_cast<U64>(i)))
        << "item " << i << " lost after think-lane requeue";
  }
  EXPECT_GE(all.size(), n);
}

TEST(EngineFaults, UserExceptionIsAlsoContained) {
  // Non-injected throws take the same requeue path (code 1): the run
  // completes and conserves items even when the user callback throws.
  EngineConfig ecfg;
  ecfg.node_capacity = 8;
  ecfg.think_threads = 2;
  ecfg.batch = 8;
  ParallelHeapEngine<U64> engine(ecfg);
  std::vector<U64> seedv(200);
  for (std::size_t i = 0; i < seedv.size(); ++i) seedv[i] = static_cast<U64>(i);
  engine.seed(seedv);

  std::atomic<int> boom{3};
  std::atomic<std::size_t> handled{0};
  const EngineReport rep = engine.run(
      [&](unsigned, std::span<const U64> mine, std::span<const U64>,
          std::vector<U64>&) {
        if (boom.fetch_sub(1) > 0) throw std::runtime_error("user think fault");
        handled.fetch_add(mine.size());
      });
  EXPECT_GE(rep.think_faults, 1u);
  EXPECT_TRUE(engine.heap().empty());
  EXPECT_GE(handled.load(), seedv.size());
}

// --------------------------------------------------------- watchdog

std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now; }

TEST(Watchdog, LadderEscalatesOnFakeClock) {
  rb::PhaseWatchdog::Config cfg;
  cfg.stall_timeout_ns = 1000;
  cfg.dump_after_polls = 3;
  cfg.clock = &fake_clock;
  g_fake_now = 0;
  rb::PhaseWatchdog wd(cfg);
  const std::size_t ch = wd.add_channel("driver");

  wd.beat(ch);
  g_fake_now += 500;
  auto res = wd.poll();
  EXPECT_EQ(res.stalled, 0u);

  // Stall past the timeout: rung 1 counts every poll, rung 2 dumps once on
  // the third consecutive stalled poll.
  g_fake_now += 2000;
  EXPECT_EQ(wd.poll().stalled, 1u);
  EXPECT_FALSE(wd.poll().dumped);
  res = wd.poll();
  EXPECT_EQ(res.stalled, 1u);
  EXPECT_TRUE(res.dumped);
  EXPECT_FALSE(wd.poll().dumped);  // once per episode
  EXPECT_EQ(wd.stalls(), 4u);

  // A beat closes the episode; the next stall dumps again.
  wd.beat(ch);
  EXPECT_EQ(wd.poll().stalled, 0u);
  g_fake_now += 2000;
  wd.poll();
  wd.poll();
  EXPECT_TRUE(wd.poll().dumped);
}

TEST(Watchdog, PerChannelEpisodesAreIndependent) {
  rb::PhaseWatchdog::Config cfg;
  cfg.stall_timeout_ns = 1000;
  cfg.dump_after_polls = 2;
  cfg.clock = &fake_clock;
  g_fake_now = 0;
  rb::PhaseWatchdog wd(cfg);
  const std::size_t a = wd.add_channel("think-0");
  const std::size_t b = wd.add_channel("think-1");
  wd.beat(a);
  wd.beat(b);
  g_fake_now += 5000;
  wd.beat(b);  // only a is stalled
  EXPECT_EQ(wd.poll().stalled, 1u);
  wd.beat(a);
  wd.beat(b);
  EXPECT_EQ(wd.poll().stalled, 0u);
}

TEST(Watchdog, EngineRunBeatsAndReportsNoStallsWhenHealthy) {
  EngineConfig ecfg;
  ecfg.node_capacity = 8;
  ecfg.think_threads = 2;
  ecfg.batch = 8;
  ecfg.watchdog_stall_ns = 60ull * 1000 * 1000 * 1000;  // 60s: never trips
  ParallelHeapEngine<U64> engine(ecfg);
  std::vector<U64> seedv(300);
  for (std::size_t i = 0; i < seedv.size(); ++i) seedv[i] = static_cast<U64>(i);
  engine.seed(seedv);
  const EngineReport rep = engine.run(
      [](unsigned, std::span<const U64>, std::span<const U64>,
         std::vector<U64>&) {});
  EXPECT_TRUE(engine.heap().empty());
  EXPECT_EQ(rep.watchdog_stalls, 0u);
}

using WatchdogDeathTest = ::testing::Test;

TEST(WatchdogDeathTest, AbortRungKillsTheProcess) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        rb::PhaseWatchdog::Config cfg;
        cfg.stall_timeout_ns = 1000;
        cfg.dump_after_polls = 1;
        cfg.abort_on_stall = true;
        cfg.abort_after_polls = 2;
        cfg.clock = &fake_clock;
        g_fake_now = 0;
        rb::PhaseWatchdog wd(cfg);
        wd.add_channel("wedged");
        g_fake_now = 1u << 20;
        wd.poll();
        wd.poll();  // rung 3: dumps trace rings and aborts
      },
      "watchdog");
}

// ------------------------------------------------- assert flush hook

using AssertFlushDeathTest = ::testing::Test;

TEST(AssertFlushDeathTest, AssertFailureFlushesTelemetryBeforeAbort) {
  if (!telemetry::kEnabled) GTEST_SKIP() << "built with PH_TELEMETRY=OFF";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        telemetry::count(telemetry::Counter::kIngestStaged, 123);
        PH_ASSERT_MSG(false, "fault-test induced failure");
      },
      "telemetry at assertion failure");
}

// ------------------------------------------- barrier backoff liveness

TEST(BarrierBackoff, OversubscribedBarrierStaysLive) {
  // 8 threads on however few cores the runner has: the spin->yield->sleep
  // ladder must keep every round completing (a pure spin-wait here can
  // livelock a 1-core container for minutes). Regression for the backoff
  // satellite; the sched-fuzz CI lane perturbs the same crossings.
  constexpr unsigned kThreads = 8;
  constexpr int kRounds = 200;
  SenseBarrier bar(kThreads);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      bool sense = false;
      for (int r = 0; r < kRounds; ++r) {
        sum.fetch_add(t + 1, std::memory_order_relaxed);
        bar.arrive_and_wait(sense);
      }
    });
  }
  for (auto& th : ts) th.join();
  // Every thread contributed every round — no lost wakeups, no deadlock.
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kRounds) * kThreads *
                            (kThreads + 1) / 2);
}

// ------------------------------------------------- fault-matrix smoke

TEST(FaultMatrix, SmokeAllSitesFireAndRecover) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  rb::FaultMatrixConfig cfg;
  cfg.seed = 3;
  cfg.cycles = 120;  // small but enough for every site to fire
  const rb::FaultMatrixReport rep = rb::run_fault_matrix(cfg, nullptr);
  ASSERT_EQ(rep.rows.size(), rb::kNumFailSites);
  for (const auto& row : rep.rows) {
    EXPECT_TRUE(row.fired) << rb::fail_site_name(row.site) << " never fired";
    EXPECT_TRUE(row.ok) << rb::fail_site_name(row.site) << ": " << row.detail;
  }
  EXPECT_TRUE(rep.ok());
}

TEST(FaultMatrix, FaultyStructureIsDetectedByHarness) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  // The registry-backed replacement for the old ad-hoc InjectedFault enum:
  // "pipelined_heap_faulty" arms kSkipReservice {1,1,0} itself and must
  // still be caught by the differential harness (the CI must-fail proof).
  bool detected = false;
  for (std::uint64_t seed = 1; seed <= 6 && !detected; ++seed) {
    testing::GenConfig gen;
    gen.r = 2;
    gen.cycles = 300;
    gen.seed = seed;
    testing::OpTrace t = testing::generate_trace(gen);
    t.structure = "pipelined_heap_faulty";
    detected = testing::run_trace(t).failed;
  }
  EXPECT_TRUE(detected);
}

}  // namespace
}  // namespace ph
