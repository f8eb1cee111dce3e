// Edge-case suite for the pipelined heap: drain idempotence, no-op steps,
// build() discarding in-flight state, total steal of a delivery, and long
// k=0 insert streaks followed by a full drain.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/parallel_heap.hpp"
#include "core/pipelined_heap.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

using Pipelined = PipelinedParallelHeap<std::uint64_t>;

TEST(PipelinedEdges, DrainIsIdempotent) {
  Pipelined h(8);
  Xoshiro256 rng(1);
  // A non-empty start, so the batch below spawns insert-updates (a bulk
  // batch into an empty heap is loaded in place).
  std::vector<std::uint64_t> seed(8), fresh(64), out;
  for (auto& x : seed) x = rng.next_below(1u << 20);
  h.build(seed);
  for (auto& x : fresh) x = rng.next_below(1u << 20);
  h.step(fresh, 0, out);
  EXPECT_GT(h.inflight(), 0u);
  h.drain();
  EXPECT_EQ(h.inflight(), 0u);
  const auto snapshot = h.sorted_contents();
  h.drain();
  h.drain();
  EXPECT_EQ(h.sorted_contents(), snapshot);
  EXPECT_TRUE(h.check_invariants());
}

TEST(PipelinedEdges, NoOpStepsLeaveHeapIntact) {
  Pipelined h(8);
  Xoshiro256 rng(2);
  std::vector<std::uint64_t> init(500), out;
  for (auto& x : init) x = rng.next_below(1u << 20);
  h.build(init);
  const auto before = h.sorted_contents();
  for (int i = 0; i < 50; ++i) {
    out.clear();
    EXPECT_EQ(h.step({}, 0, out), 0u);
    EXPECT_TRUE(out.empty());
  }
  EXPECT_EQ(h.sorted_contents(), before);
}

TEST(PipelinedEdges, BuildDiscardsInflightState) {
  Pipelined h(8);
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> seed(8), fresh(100), out;
  for (auto& x : seed) x = rng.next_below(1u << 20);
  h.build(seed);  // non-empty, so the batch below is not loaded in place
  for (auto& x : fresh) x = rng.next_below(1u << 20);
  h.step(fresh, 0, out);
  ASSERT_GT(h.inflight(), 0u);
  std::vector<std::uint64_t> replacement{5, 1, 9, 3};
  h.build(replacement);
  EXPECT_EQ(h.inflight(), 0u);
  EXPECT_EQ(h.size(), 4u);
  out.clear();
  h.delete_min_batch(4, out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 3, 5, 9}));
}

TEST(PipelinedEdges, ShrinkToEmptyWhileDeliveriesInFlight) {
  // Insert a burst (deliveries pending), then drain to zero purely through
  // steps: the substitute stealing must account every committed item.
  Pipelined h(4);
  ParallelHeap<std::uint64_t> ref(4);
  Xoshiro256 rng(4);
  std::vector<std::uint64_t> seed(4), burst(64), got, want, sink;
  for (auto& x : seed) x = rng.next_below(1u << 16);
  h.build(seed);  // non-empty, so the burst spawns deliveries
  ref.build(seed);
  for (auto& x : burst) x = rng.next_below(1u << 16);
  h.step(burst, 0, sink);
  ref.cycle(burst, 0, sink);
  ASSERT_GT(h.inflight(), 0u);
  while (h.size() > 0) {
    got.clear();
    want.clear();
    h.step({}, 4, got);
    ref.cycle({}, 4, want);
    ASSERT_EQ(got, want);
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.check_invariants());
}

TEST(PipelinedEdges, InsertStreakThenFullDrainMatchesSort) {
  Pipelined h(16);
  Xoshiro256 rng(5);
  std::vector<std::uint64_t> all, out;
  for (int s = 0; s < 100; ++s) {
    std::vector<std::uint64_t> fresh(rng.next_below(40));
    for (auto& x : fresh) x = rng.next_below(1u << 28);
    all.insert(all.end(), fresh.begin(), fresh.end());
    out.clear();
    h.step(fresh, 0, out);  // k = 0: pure pipelined insertion
    ASSERT_TRUE(out.empty());
  }
  ASSERT_EQ(h.size(), all.size());
  out.clear();
  h.delete_min_batch(all.size(), out);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(out, all);
}

TEST(PipelinedEdges, AlternatingBuildAndChurn) {
  Pipelined h(8);
  Xoshiro256 rng(6);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::uint64_t> init(rng.next_below(200) + 1);
    for (auto& x : init) x = rng.next_below(1u << 24);
    h.build(init);
    std::vector<std::uint64_t> out;
    for (int s = 0; s < 20; ++s) {
      std::vector<std::uint64_t> fresh(rng.next_below(12));
      for (auto& x : fresh) x = rng.next_below(1u << 24);
      out.clear();
      h.step(fresh, rng.next_below(9), out);
      ASSERT_TRUE(std::is_sorted(out.begin(), out.end()));
    }
    ASSERT_TRUE(h.check_invariants()) << "round " << round;
  }
}

}  // namespace
}  // namespace ph
