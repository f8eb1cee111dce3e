// Differential tests for the pipelined parallel heap: its deletion stream
// must match (a) a sorted-multiset oracle and (b) the synchronous reference
// ParallelHeap, across randomized and adversarial schedules. This validates
// the central theorem of the paper — that the odd/even level pipeline never
// lets an in-flight item miss its deletion slot.
#include "core/pipelined_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_heap.hpp"
#include "testing/oracle.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

using Pipelined = PipelinedParallelHeap<std::uint64_t>;
using Reference = ParallelHeap<std::uint64_t>;

struct Params {
  std::size_t r;
  std::uint64_t key_bound;
  std::uint64_t seed;
};

class PipelinedVsReference : public ::testing::TestWithParam<Params> {};

// Steady-state simulation pattern: every step() deletes up to k and inserts
// a random batch; this keeps several generations of update processes in
// flight simultaneously, which is the regime the pipeline exists for.
TEST_P(PipelinedVsReference, SteadyStateSteps) {
  const Params p = GetParam();
  Pipelined pipe(p.r);
  Reference ref(p.r);
  Xoshiro256 rng(p.seed);

  std::vector<std::uint64_t> fresh, got, want;
  for (int step = 0; step < 600; ++step) {
    fresh.clear();
    const std::size_t n = rng.next_below(2 * p.r + 1);
    for (std::size_t i = 0; i < n; ++i) fresh.push_back(rng.next_below(p.key_bound));
    const std::size_t k = rng.next_below(p.r + 1);
    got.clear();
    want.clear();
    pipe.step(fresh, k, got);
    ref.cycle(fresh, k, want);
    ASSERT_EQ(got, want) << "step " << step << " r=" << p.r;
    ASSERT_EQ(pipe.size(), ref.size()) << "step " << step;
  }
  // Drained contents must be identical too.
  ASSERT_EQ(pipe.sorted_contents(), ref.sorted_contents());
  std::string why;
  ASSERT_TRUE(pipe.check_invariants(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinedVsReference,
    ::testing::Values(Params{1, 1u << 16, 501}, Params{2, 1u << 16, 502},
                      Params{3, 1u << 16, 503}, Params{4, 1u << 16, 504},
                      Params{5, 1u << 16, 505}, Params{8, 1u << 16, 506},
                      Params{16, 1u << 16, 507}, Params{32, 1u << 16, 508},
                      Params{64, 1u << 16, 509}, Params{128, 1u << 16, 510},
                      // duplicate-heavy and degenerate key spaces
                      Params{4, 8, 511}, Params{8, 2, 512}, Params{16, 1, 513},
                      Params{3, 4, 514}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "r" + std::to_string(info.param.r) + "_keys" +
             std::to_string(info.param.key_bound) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(PipelinedHeap, PureGrowThenPureShrink) {
  Pipelined pipe(8);
  Reference ref(8);
  Xoshiro256 rng(601);
  std::vector<std::uint64_t> fresh, got, want;
  // Grow: many insert generations in flight at once.
  for (int step = 0; step < 100; ++step) {
    fresh.clear();
    for (int i = 0; i < 16; ++i) fresh.push_back(rng.next_below(1u << 20));
    got.clear();
    want.clear();
    pipe.step(fresh, 0, got);
    ref.cycle(fresh, 0, want);
  }
  ASSERT_EQ(pipe.size(), ref.size());
  // Shrink: substitutes must steal from any deliveries still in flight.
  while (ref.size() > 0) {
    got.clear();
    want.clear();
    pipe.step({}, 8, got);
    ref.cycle({}, 8, want);
    ASSERT_EQ(got, want) << "remaining " << ref.size();
  }
  ASSERT_TRUE(pipe.empty());
}

TEST(PipelinedHeap, ImmediateShrinkAfterGrowStealsInFlight) {
  // Insert a large batch (procs in flight) and shrink on the very next
  // step, forcing tail substitutes to come out of carried sets. The heap
  // starts non-empty: a bulk batch into an empty heap is loaded in place
  // and leaves nothing in flight.
  Pipelined pipe(16);
  Reference ref(16);
  Xoshiro256 rng(602);
  std::vector<std::uint64_t> seed(16), fresh(400), got, want;
  for (auto& x : seed) x = rng.next_below(1u << 24);
  pipe.build(seed);
  ref.build(seed);
  for (auto& x : fresh) x = rng.next_below(1u << 24);
  pipe.insert_batch(fresh);
  ref.insert_batch(fresh);
  for (int step = 0; step < 30; ++step) {
    got.clear();
    want.clear();
    pipe.step({}, 16, got);
    ref.cycle({}, 16, want);
    ASSERT_EQ(got, want) << "step " << step;
  }
  EXPECT_GT(pipe.pipeline_stats().steals, 0u);
}

TEST(PipelinedHeap, DescendingKeysEveryStep) {
  // Every fresh batch is a new global minimum: deletions should come from
  // the fresh items while old content sinks; heavily exercises root merges.
  Pipelined pipe(8);
  Reference ref(8);
  std::vector<std::uint64_t> got, want;
  std::uint64_t key = 1u << 30;
  for (int step = 0; step < 300; ++step) {
    std::vector<std::uint64_t> fresh(12);
    for (auto& x : fresh) x = --key;
    got.clear();
    want.clear();
    pipe.step(fresh, 6, got);
    ref.cycle(fresh, 6, want);
    ASSERT_EQ(got, want) << "step " << step;
  }
  ASSERT_EQ(pipe.sorted_contents(), ref.sorted_contents());
}

TEST(PipelinedHeap, AscendingKeysEveryStep) {
  Pipelined pipe(8);
  Reference ref(8);
  std::vector<std::uint64_t> got, want;
  std::uint64_t key = 0;
  for (int step = 0; step < 300; ++step) {
    std::vector<std::uint64_t> fresh(12);
    for (auto& x : fresh) x = ++key;
    got.clear();
    want.clear();
    pipe.step(fresh, 6, got);
    ref.cycle(fresh, 6, want);
    ASSERT_EQ(got, want) << "step " << step;
  }
}

TEST(PipelinedHeap, BuildMatchesReferenceDrain) {
  Xoshiro256 rng(603);
  std::vector<std::uint64_t> items(10000);
  for (auto& x : items) x = rng.next_below(1u << 28);
  Pipelined pipe(64);
  pipe.build(items);
  ASSERT_TRUE(pipe.check_invariants());
  std::vector<std::uint64_t> got;
  pipe.delete_min_batch(items.size(), got);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(got, items);
}

TEST(PipelinedHeap, EmptyAndTinyHeaps) {
  Pipelined pipe(4);
  std::vector<std::uint64_t> got;
  EXPECT_EQ(pipe.step({}, 4, got), 0u);
  EXPECT_TRUE(got.empty());
  pipe.insert_batch(std::vector<std::uint64_t>{5});
  got.clear();
  EXPECT_EQ(pipe.step({}, 4, got), 1u);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{5}));
  EXPECT_TRUE(pipe.empty());
}

TEST(PipelinedHeap, SawtoothSizes) {
  Pipelined pipe(4);
  Reference ref(4);
  Xoshiro256 rng(604);
  std::vector<std::uint64_t> fresh, got, want;
  for (int round = 0; round < 30; ++round) {
    const int grow = 1 + static_cast<int>(rng.next_below(40));
    for (int s = 0; s < grow; ++s) {
      fresh.clear();
      for (int i = 0; i < 6; ++i) fresh.push_back(rng.next_below(1u << 16));
      got.clear();
      want.clear();
      pipe.step(fresh, 2, got);
      ref.cycle(fresh, 2, want);
      ASSERT_EQ(got, want);
    }
    while (pipe.size() > 3) {
      got.clear();
      want.clear();
      pipe.step({}, 4, got);
      ref.cycle({}, 4, want);
      ASSERT_EQ(got, want);
    }
  }
}

TEST(PipelinedHeap, PipelineActuallyPipelines) {
  // With a deep heap and steady cycles, several generations must be in
  // flight at once — that is the whole point. Checked via stats.
  Pipelined pipe(8);
  Xoshiro256 rng(605);
  std::vector<std::uint64_t> seedv(8 * 1024), got;
  for (auto& x : seedv) x = rng.next_below(1u << 30);
  pipe.build(seedv);
  for (int step = 0; step < 50; ++step) {
    std::vector<std::uint64_t> fresh(8);
    for (auto& x : fresh) x = rng.next_below(1u << 30);
    got.clear();
    pipe.step(fresh, 8, got);
    ASSERT_EQ(got.size(), 8u);
  }
  EXPECT_GT(pipe.pipeline_stats().max_inflight, 2u);
  EXPECT_GT(pipe.pipeline_stats().procs_serviced, 100u);
}

TEST(PipelinedHeap, StatsAccounting) {
  Pipelined pipe(8);
  std::vector<std::uint64_t> got;
  pipe.step(std::vector<std::uint64_t>{3, 1, 2}, 2, got);
  const HeapStats& s = pipe.stats();
  EXPECT_EQ(s.items_inserted, 3u);
  EXPECT_EQ(s.items_deleted, 2u);
  EXPECT_EQ(s.cycles, 1u);
  pipe.reset_stats();
  EXPECT_EQ(pipe.stats().cycles, 0u);
}

TEST(PipelinedHeap, GrowthUnderRefilledNodes) {
  // A delete-update's continuation at a refilled child is parked only when
  // that child has committed children. Here insert-heavy cycles (more fresh
  // items than deletions) grow the tail under nodes the delete-heavy cycles
  // have just refilled, so deliveries to a child's children are often still
  // in flight — stored empty, committed full — when the child is refilled.
  // Skipping the re-service on the stored count would leave such a child's
  // fills above the items delivered beneath it.
  for (const std::size_t r : {2u, 3u, 8u}) {
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      Pipelined pipe(r);
      testing::SortedOracle oracle;
      Xoshiro256 rng(700 + 97 * r + seed);
      std::vector<std::uint64_t> fresh, got, want;
      for (int cycle = 0; cycle < 300; ++cycle) {
        const bool grow = cycle % 2 == 0;
        const std::size_t k = grow ? rng.next_below(r) : r;
        const std::size_t n = grow ? k + 1 + rng.next_below(2 * r + 1) : rng.next_below(r);
        fresh.clear();
        for (std::size_t i = 0; i < n; ++i) fresh.push_back(rng.next_below(1u << 10));
        got.clear();
        want.clear();
        pipe.step(fresh, k, got);
        oracle.cycle(fresh, k, want);
        ASSERT_EQ(got, want) << "r=" << r << " seed " << seed << " cycle " << cycle;
        std::string why;
        ASSERT_TRUE(pipe.verify_invariants(&why)) << why;
      }
      std::string why;
      ASSERT_TRUE(pipe.check_invariants(&why)) << "r=" << r << " seed " << seed << ": " << why;
      ASSERT_EQ(pipe.sorted_contents(), oracle.contents());
    }
  }
}

TEST(PipelinedHeap, RootWorkBatchSizesMatchOracle) {
  // Root work sorts each batch with sort_run up to 2r items and with
  // std::sort above (core/sorted_ops.hpp, sort_batch). Cover both sides of
  // that line, the empty and one-item batches, an already sorted batch (the
  // one-pass path) and a 65,536-item bulk insert into an empty heap; the
  // synchronous heap sorts the same way, so it must agree too.
  constexpr std::size_t kR = 512;
  Pipelined pipe(kR);
  Reference ref(kR);
  testing::SortedOracle oracle;
  Xoshiro256 rng(3030);
  std::vector<std::uint64_t> fresh, got, want, ref_got;
  auto cycle = [&](std::size_t n, std::size_t k, bool sorted, const char* what) {
    fresh.clear();
    for (std::size_t i = 0; i < n; ++i) fresh.push_back(rng.next_below(1u << 12));
    if (sorted) std::sort(fresh.begin(), fresh.end());
    got.clear();
    want.clear();
    ref_got.clear();
    pipe.step(fresh, k, got);
    oracle.cycle(fresh, k, want);
    ref.cycle(fresh, k, ref_got);
    ASSERT_EQ(got, want) << what << " n=" << n << " k=" << k;
    ASSERT_EQ(ref_got, want) << what << " n=" << n << " k=" << k;
    std::string why;
    ASSERT_TRUE(pipe.verify_invariants(&why)) << what << ": " << why;
  };
  cycle(65536, kR, false, "bulk insert into an empty heap");
  for (int round = 0; round < 4; ++round) {
    const std::size_t k = rng.next_below(kR + 1);
    cycle(0, k, false, "empty batch");
    cycle(1, k, false, "one item");
    cycle(2 * kR, k, false, "2r items (sort_run)");
    cycle(2 * kR + 1, k, false, "2r + 1 items (std::sort)");
    cycle(2 * kR, k, true, "sorted batch");
  }
  std::string why;
  ASSERT_TRUE(pipe.check_invariants(&why)) << why;
  ASSERT_EQ(pipe.sorted_contents(), oracle.contents());
}

TEST(PipelinedHeap, BulkCycleIntoEmptyHeapLoadsInPlace) {
  // A cycle of more than 2r items into an empty heap loads the batch into
  // the arena in place and spawns no insert-update: its root work parks
  // only the root's delete-update. Two empty starts: a fresh heap, and a
  // heap drained right after a grow burst. The drained heap has nothing
  // parked at root work either: a delivery still in flight then targets a
  // node at depth 2 or more, so the heap holds more than 3r items, and no
  // cycle takes that many.
  for (const std::size_t r : {std::size_t{3}, std::size_t{16}, std::size_t{512}}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, r}) {
      for (const std::size_t n : {2 * r + 1, 4 * r, (std::size_t{1} << 16) + r / 2}) {
        for (const bool drained : {false, true}) {
          const std::string what = "r=" + std::to_string(r) + " k=" + std::to_string(k) +
                                   " n=" + std::to_string(n) +
                                   (drained ? " drained" : " fresh");
          Pipelined pipe(r);
          testing::SortedOracle oracle;
          Xoshiro256 rng(4040 + r + 7 * k + n);
          std::vector<std::uint64_t> fresh, got, want;
          auto make = [&](std::size_t items, std::size_t kk) {
            fresh.clear();
            for (std::size_t i = 0; i < items; ++i) fresh.push_back(rng.next_below(1u << 20));
            got.clear();
            want.clear();
            oracle.cycle(fresh, kk, want);
          };
          auto cycle = [&](std::size_t items, std::size_t kk) {
            make(items, kk);
            pipe.step(fresh, kk, got);
          };
          if (drained) {
            for (int i = 0; i < 4; ++i) cycle(2 * r, 0);
            while (!oracle.empty()) {
              cycle(0, r);
              ASSERT_EQ(got, want) << what << " (drain)";
            }
          }
          ASSERT_TRUE(pipe.empty()) << what;

          // step(), split so the root work's spawns can be counted alone.
          pipe.advance(1);
          ASSERT_EQ(pipe.inflight(), 0u) << what;
          make(n, k);
          const std::uint64_t spawned = pipe.pipeline_stats().procs_spawned;
          pipe.root_work_public(fresh, k, got);
          ASSERT_EQ(got, want) << what;
          // n > 2r and k <= r leave more than the root: its delete-update is
          // the one process root work parks.
          EXPECT_EQ(pipe.pipeline_stats().procs_spawned, spawned + 1) << what;
          EXPECT_EQ(pipe.inflight(), 1u) << what;
          std::string why;
          ASSERT_TRUE(pipe.verify_invariants(&why)) << what << ": " << why;
          pipe.advance(0);
          for (int c = 0; c < 50; ++c) {
            cycle(rng.next_below(3 * r), rng.next_below(r + 1));
            ASSERT_EQ(got, want) << what << " mixed cycle " << c;
          }
          ASSERT_TRUE(pipe.check_invariants(&why)) << what << ": " << why;
          ASSERT_EQ(pipe.sorted_contents(), oracle.contents()) << what;
        }
      }
    }
  }
}

TEST(PipelinedHeap, LongRandomSoak) {
  // A long mixed-schedule soak with per-step oracle checks on the deleted
  // stream (the oracle is the reference heap, itself oracle-tested).
  Pipelined pipe(8);
  Reference ref(8);
  Xoshiro256 rng(606);
  std::vector<std::uint64_t> fresh, got, want;
  for (int step = 0; step < 5000; ++step) {
    fresh.clear();
    const std::size_t n = rng.next_below(18);
    for (std::size_t i = 0; i < n; ++i) fresh.push_back(rng.next_below(1u << 12));
    const std::size_t k = rng.next_below(9);
    got.clear();
    want.clear();
    pipe.step(fresh, k, got);
    ref.cycle(fresh, k, want);
    ASSERT_EQ(got, want) << "step " << step;
  }
}

}  // namespace
}  // namespace ph
