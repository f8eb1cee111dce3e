// Differential tests for the pipelined parallel heap: its deletion stream
// must match (a) a sorted-multiset oracle and (b) the synchronous reference
// ParallelHeap, across randomized and adversarial schedules. This validates
// the central theorem of the paper — that the odd/even level pipeline never
// lets an in-flight item miss its deletion slot.
#include "core/pipelined_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  // step, forcing tail substitutes to come out of carried sets.
  Pipelined pipe(16);
  Reference ref(16);
  Xoshiro256 rng(602);
  std::vector<std::uint64_t> fresh(400), got, want;
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
