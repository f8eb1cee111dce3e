// Cross-structure fuzz: one randomized operation stream drives every exact
// priority-queue implementation in the library side by side; all deletion
// streams must be identical at every step. This is the broadest single
// correctness net in the suite — any divergence in any structure trips it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/binary_heap.hpp"
#include "baselines/calendar_queue.hpp"
#include "baselines/dary_heap.hpp"
#include "baselines/leftist_heap.hpp"
#include "baselines/pairing_heap.hpp"
#include "baselines/pq_concepts.hpp"
#include "baselines/skew_heap.hpp"
#include "core/parallel_heap.hpp"
#include "core/pipelined_heap.hpp"
#include "util/rng.hpp"
#include "workloads/distributions.hpp"

namespace ph {
namespace {

struct FixedKey {
  double operator()(std::uint64_t v) const { return from_fixed(v); }
};

TEST(CrossStructure, AllQueuesAgreeOnMonotoneStream) {
  // Monotone (event-set) stream so the calendar queue's contract holds:
  // inserted keys never precede the last deleted key.
  ParallelHeap<std::uint64_t> par2(8);
  ParallelHeap<std::uint64_t> par4(8, std::less<std::uint64_t>{}, 4);
  PipelinedParallelHeap<std::uint64_t> pipe(8);
  BatchAdapter<BinaryHeap<std::uint64_t>, std::uint64_t> bin;
  BatchAdapter<DaryHeap<std::uint64_t, 4>, std::uint64_t> dary;
  BatchAdapter<SkewHeap<std::uint64_t>, std::uint64_t> skew;
  BatchAdapter<PairingHeap<std::uint64_t>, std::uint64_t> pair;
  BatchAdapter<LeftistHeap<std::uint64_t>, std::uint64_t> leftist;
  BatchAdapter<CalendarQueue<std::uint64_t, FixedKey>, std::uint64_t> cal;

  Xoshiro256 rng(97);
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> fresh;
  std::vector<std::uint64_t> want, got;
  for (int step = 0; step < 500; ++step) {
    fresh.clear();
    const std::size_t n = rng.next_below(12);
    for (std::size_t i = 0; i < n; ++i) {
      fresh.push_back(clock + to_fixed(draw_increment(rng, Dist::kExponential)));
    }
    const std::size_t k = rng.next_below(9);

    want.clear();
    bin.cycle(fresh, k, want);
    if (!want.empty()) clock = want.back();

    auto check = [&](auto& q, const char* name) {
      got.clear();
      q.cycle(fresh, k, got);
      ASSERT_EQ(got, want) << name << " step " << step;
    };
    check(par2, "parheap_d2");
    check(par4, "parheap_d4");
    check(pipe, "pipelined");
    check(dary, "dary4");
    check(skew, "skew");
    check(pair, "pairing");
    check(leftist, "leftist");
    check(cal, "calendar");
  }

  // Everyone drains to the same tail.
  want.clear();
  bin.delete_min_batch(bin.size(), want);
  auto drain_check = [&](auto& q, const char* name) {
    got.clear();
    q.delete_min_batch(want.size() + 1, got);
    ASSERT_EQ(got, want) << name;
  };
  drain_check(par2, "parheap_d2");
  drain_check(par4, "parheap_d4");
  drain_check(pipe, "pipelined");
  drain_check(dary, "dary4");
  drain_check(skew, "skew");
  drain_check(pair, "pairing");
  drain_check(leftist, "leftist");
  drain_check(cal, "calendar");
}

TEST(CrossStructure, ParallelHeapsAgreeOnArbitraryStream) {
  // Non-monotone stream (calendar excluded): the parallel-heap family and
  // the pointer heaps must still agree exactly.
  ParallelHeap<std::uint64_t> par2(16);
  ParallelHeap<std::uint64_t> par8(16, std::less<std::uint64_t>{}, 8);
  PipelinedParallelHeap<std::uint64_t> pipe(16);
  BatchAdapter<BinaryHeap<std::uint64_t>, std::uint64_t> bin;

  Xoshiro256 rng(101);
  std::vector<std::uint64_t> fresh, want, got;
  for (int step = 0; step < 800; ++step) {
    fresh.clear();
    const std::size_t n = rng.next_below(40);
    for (std::size_t i = 0; i < n; ++i) fresh.push_back(rng.next_below(1u << 14));
    const std::size_t k = rng.next_below(17);
    want.clear();
    bin.cycle(fresh, k, want);
    auto check = [&](auto& q, const char* name) {
      got.clear();
      q.cycle(fresh, k, got);
      ASSERT_EQ(got, want) << name << " step " << step;
    };
    check(par2, "parheap_d2");
    check(par8, "parheap_d8");
    check(pipe, "pipelined");
  }
}

// The merge kernels and the node layout may change what a repair costs,
// never what it does: a fixed hold pins the stream and every work counter.
// items_written and forward_refills are the layout-dependent counters (the
// items maintenance stores into node slots, and the child refills that found
// no room behind their items); they are pinned too, so a layout change shows
// here.
template <typename Q>
HeapStats fixed_hold_stats(Q& q, std::uint64_t& stream_hash) {
  constexpr std::size_t kN = 1 << 14;
  constexpr std::size_t kR = 512;
  Xoshiro256 init_rng(5);
  std::vector<std::uint64_t> init(kN);
  for (auto& x : init) x = to_fixed(draw_increment(init_rng, Dist::kExponential));
  q.build(init);
  q.reset_stats();
  Xoshiro256 rng(5 ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::uint64_t> fresh, deleted;
  stream_hash = 1469598103934665603ull;  // FNV-1a over the deletion stream
  for (int cycle = 0; cycle < 64; ++cycle) {
    deleted.clear();
    q.cycle(fresh, kR, deleted);
    fresh.clear();
    for (const std::uint64_t t : deleted) {
      stream_hash = (stream_hash ^ t) * 1099511628211ull;
      fresh.push_back(t + to_fixed(draw_increment(rng, Dist::kExponential)));
    }
  }
  return q.stats();
}

TEST(CrossStructure, FixedHoldWorkCountersAreExact) {
  struct Want {
    std::uint64_t items_merged, nodes_touched, proc_splits, substitutes, items_written;
    std::uint64_t forward_refills;
  };
  static constexpr std::uint64_t kStreamHash = 15512687821801573030ull;
  auto check = [](auto& q, Want w, const char* name) {
    std::uint64_t hash = 0;
    const HeapStats st = fixed_hold_stats(q, hash);
    EXPECT_EQ(hash, kStreamHash) << name;
    EXPECT_EQ(st.items_merged, w.items_merged) << name;
    EXPECT_EQ(st.nodes_touched, w.nodes_touched) << name;
    EXPECT_EQ(st.proc_splits, w.proc_splits) << name;
    EXPECT_EQ(st.substitutes, w.substitutes) << name;
    EXPECT_EQ(st.items_written, w.items_written) << name;
    EXPECT_EQ(st.forward_refills, w.forward_refills) << name;
  };
  PipelinedParallelHeap<std::uint64_t> pipe(512);
  // The pipelined heap hands a repair's fills out by child index; the
  // synchronous heap ranks the children by grandchild minimum.
  check(pipe, {1089536, 791, 546, 512, 583934, 660}, "pipelined");
  // Only delete-updates at nodes with committed children are parked, and
  // this hold spawns no insert-updates, so every serviced process is a
  // delete-update that reached a node with children.
  EXPECT_EQ(pipe.pipeline_stats().procs_serviced, 828u);
  EXPECT_EQ(pipe.pipeline_stats().procs_serviced, pipe.stats().delete_procs);
  ParallelHeap<std::uint64_t> par2(512);
  check(par2, {1181184, 850, 607, 512, 590360, 708}, "parallel d=2");
  ParallelHeap<std::uint64_t> par4(512, std::less<std::uint64_t>{}, 4);
  check(par4, {864256, 433, 315, 512, 451428, 489}, "parallel d=4");
}

}  // namespace
}  // namespace ph
