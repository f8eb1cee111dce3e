// Unit tests for the sorted-run kernels that underlie all heap maintenance.
#include "core/sorted_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ph {
namespace {

using Less = std::less<int>;

std::vector<int> random_sorted(Xoshiro256& rng, std::size_t n, int bound) {
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(bound)));
  std::sort(v.begin(), v.end());
  return v;
}

TEST(SortedOps, IsSortedRun) {
  std::vector<int> empty;
  EXPECT_TRUE(is_sorted_run(std::span<const int>(empty), Less{}));
  std::vector<int> one{42};
  EXPECT_TRUE(is_sorted_run(std::span<const int>(one), Less{}));
  std::vector<int> asc{1, 2, 2, 3};
  EXPECT_TRUE(is_sorted_run(std::span<const int>(asc), Less{}));
  std::vector<int> desc{3, 2};
  EXPECT_FALSE(is_sorted_run(std::span<const int>(desc), Less{}));
}

TEST(SortedOps, Merge2Basic) {
  std::vector<int> a{1, 3, 5}, b{2, 4, 6}, out;
  merge2(std::span<const int>(a), std::span<const int>(b), out, Less{});
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(SortedOps, Merge2EmptySides) {
  std::vector<int> a{1, 2}, empty, out;
  merge2(std::span<const int>(a), std::span<const int>(empty), out, Less{});
  EXPECT_EQ(out, a);
  out.clear();
  merge2(std::span<const int>(empty), std::span<const int>(a), out, Less{});
  EXPECT_EQ(out, a);
  out.clear();
  merge2(std::span<const int>(empty), std::span<const int>(empty), out, Less{});
  EXPECT_TRUE(out.empty());
}

TEST(SortedOps, Merge2StabilityPrefersFirstRun) {
  // Equal keys: run `a`'s copies must precede run `b`'s. Verified via a
  // keyed struct.
  struct Tagged {
    int key;
    char tag;
  };
  auto cmp = [](const Tagged& x, const Tagged& y) { return x.key < y.key; };
  std::vector<Tagged> a{{1, 'a'}, {2, 'a'}}, b{{1, 'b'}, {2, 'b'}}, out;
  merge2(std::span<const Tagged>(a), std::span<const Tagged>(b), out, cmp);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].tag, 'a');
  EXPECT_EQ(out[1].tag, 'b');
  EXPECT_EQ(out[2].tag, 'a');
  EXPECT_EQ(out[3].tag, 'b');
}

TEST(SortedOps, Merge2Appends) {
  std::vector<int> a{5}, b{6}, out{0};
  merge2(std::span<const int>(a), std::span<const int>(b), out, Less{});
  EXPECT_EQ(out, (std::vector<int>{0, 5, 6}));
}

TEST(SortedOps, Merge2Randomized) {
  Xoshiro256 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    auto a = random_sorted(rng, rng.next_below(64), 100);
    auto b = random_sorted(rng, rng.next_below(64), 100);
    std::vector<int> out;
    merge2(std::span<const int>(a), std::span<const int>(b), out, Less{});
    std::vector<int> want = a;
    want.insert(want.end(), b.begin(), b.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(out, want);
  }
}

TEST(SortedOps, SelectSmallest3Basic) {
  std::vector<int> a{10, 20}, b{1, 30}, c{5, 6, 7}, out;
  const Take3 t = select_smallest3(std::span<const int>(a), std::span<const int>(b),
                                   std::span<const int>(c), 4, out, Less{});
  EXPECT_EQ(out, (std::vector<int>{1, 5, 6, 7}));
  EXPECT_EQ(t[0], 0u);
  EXPECT_EQ(t[1], 1u);
  EXPECT_EQ(t[2], 3u);
}

TEST(SortedOps, SelectSmallest3TakesWholeUnion) {
  std::vector<int> a{2}, b{1}, c{3}, out;
  const Take3 t = select_smallest3(std::span<const int>(a), std::span<const int>(b),
                                   std::span<const int>(c), 3, out, Less{});
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(t[0] + t[1] + t[2], 3u);
}

TEST(SortedOps, SelectSmallest3ZeroK) {
  std::vector<int> a{2}, b{1}, c{3}, out;
  const Take3 t = select_smallest3(std::span<const int>(a), std::span<const int>(b),
                                   std::span<const int>(c), 0, out, Less{});
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(t, (Take3{0, 0, 0}));
}

TEST(SortedOps, SelectSmallest3TieBreaksByRunOrder) {
  std::vector<int> a{5}, b{5}, c{5}, out;
  const Take3 t = select_smallest3(std::span<const int>(a), std::span<const int>(b),
                                   std::span<const int>(c), 2, out, Less{});
  // Ties resolve a-then-b-then-c.
  EXPECT_EQ(t, (Take3{1, 1, 0}));
}

TEST(SortedOps, SelectSmallest3Randomized) {
  Xoshiro256 rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    auto a = random_sorted(rng, rng.next_below(32), 50);
    auto b = random_sorted(rng, rng.next_below(32), 50);
    auto c = random_sorted(rng, rng.next_below(32), 50);
    const std::size_t total = a.size() + b.size() + c.size();
    const std::size_t k = rng.next_below(total + 1);
    std::vector<int> out;
    const Take3 t = select_smallest3(std::span<const int>(a), std::span<const int>(b),
                                     std::span<const int>(c), k, out, Less{});
    ASSERT_EQ(out.size(), k);
    ASSERT_EQ(t[0] + t[1] + t[2], k);
    EXPECT_TRUE(is_sorted_run(std::span<const int>(out), Less{}));
    std::vector<int> want = a;
    want.insert(want.end(), b.begin(), b.end());
    want.insert(want.end(), c.begin(), c.end());
    std::sort(want.begin(), want.end());
    want.resize(k);
    EXPECT_EQ(out, want);
    // The taken counts must be prefixes whose union is the selection.
    EXPECT_LE(t[0], a.size());
    EXPECT_LE(t[1], b.size());
    EXPECT_LE(t[2], c.size());
  }
}

TEST(SortedOps, Merge2SplitBasic) {
  std::vector<int> a{1, 4, 9}, b{2, 3, 10}, kept, rest;
  merge2_split(std::span<const int>(a), std::span<const int>(b), 3, kept, rest, Less{});
  EXPECT_EQ(kept, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(rest, (std::vector<int>{4, 9, 10}));
}

TEST(SortedOps, Merge2SplitKeepAll) {
  std::vector<int> a{1}, b{2}, kept, rest;
  merge2_split(std::span<const int>(a), std::span<const int>(b), 2, kept, rest, Less{});
  EXPECT_EQ(kept, (std::vector<int>{1, 2}));
  EXPECT_TRUE(rest.empty());
}

TEST(SortedOps, Merge2SplitKeepNone) {
  std::vector<int> a{1}, b{2}, kept, rest;
  merge2_split(std::span<const int>(a), std::span<const int>(b), 0, kept, rest, Less{});
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(rest, (std::vector<int>{1, 2}));
}

TEST(SortedOps, Merge2SplitRandomized) {
  Xoshiro256 rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    auto a = random_sorted(rng, rng.next_below(48), 64);
    auto b = random_sorted(rng, rng.next_below(48), 64);
    const std::size_t keep = rng.next_below(a.size() + b.size() + 1);
    std::vector<int> kept, rest;
    merge2_split(std::span<const int>(a), std::span<const int>(b), keep, kept, rest,
                 Less{});
    EXPECT_EQ(kept.size(), keep);
    EXPECT_EQ(kept.size() + rest.size(), a.size() + b.size());
    EXPECT_TRUE(is_sorted_run(std::span<const int>(kept), Less{}));
    EXPECT_TRUE(is_sorted_run(std::span<const int>(rest), Less{}));
    if (!kept.empty() && !rest.empty()) {
      EXPECT_LE(kept.back(), rest.front());
    }
  }
}

// ---------------------------------------------------------------------------
// Node-scale property tests for the galloping kernels. Every case is checked
// against std::stable_sort of the concatenation a ++ b on tagged items, so a
// wrong tie order shows as a wrong tag, not just a wrong key.

struct Tagged {
  int key;
  int tag;  // unique per item: position in a ++ b
  bool operator==(const Tagged&) const = default;
};
const auto kByKey = [](const Tagged& x, const Tagged& y) { return x.key < y.key; };

std::vector<Tagged> tag_run(const std::vector<int>& keys, int first_tag) {
  std::vector<Tagged> run;
  for (const int k : keys) run.push_back({k, first_tag++});
  return run;
}

/// Runs every two-run kernel on (a, b) and compares each with the reference.
void check_kernels(const std::vector<int>& ka, const std::vector<int>& kb,
                   Xoshiro256& rng) {
  const auto a = tag_run(ka, 0);
  const auto b = tag_run(kb, static_cast<int>(ka.size()));
  std::vector<Tagged> want = a;
  want.insert(want.end(), b.begin(), b.end());
  std::stable_sort(want.begin(), want.end(), kByKey);
  const std::string where =
      "|a|=" + std::to_string(a.size()) + " |b|=" + std::to_string(b.size());

  std::vector<Tagged> out{{-1, -1}};  // merge2 appends
  merge2(std::span<const Tagged>(a), std::span<const Tagged>(b), out, kByKey);
  ASSERT_EQ(out.size(), want.size() + 1) << where;
  EXPECT_EQ(out.front(), (Tagged{-1, -1})) << where;
  EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin() + 1)) << "merge2 " << where;

  const std::size_t keep = rng.next_below(want.size() + 1);
  std::vector<Tagged> kept, rest;
  merge2_split(std::span<const Tagged>(a), std::span<const Tagged>(b), keep, kept, rest,
               kByKey);
  ASSERT_EQ(kept.size(), keep) << where;
  kept.insert(kept.end(), rest.begin(), rest.end());
  EXPECT_EQ(kept, want) << "merge2_split keep=" << keep << " " << where;

  // In place from the back: a sits at the front of a buffer with room for b.
  std::vector<Tagged> buf = a;
  buf.resize(a.size() + b.size());
  merge_back_into(std::span<Tagged>(buf), a.size(), std::span<const Tagged>(b), kByKey);
  EXPECT_EQ(buf, want) << "merge_back_into " << where;

  // In place forward, output aliasing a: a is the suffix of a buffer whose
  // |b|-item head is free, the shape of a child refill.
  std::vector<Tagged> fwd(b.size(), Tagged{-2, -2});
  fwd.insert(fwd.end(), a.begin(), a.end());
  std::size_t i = b.size(), j = 0;
  Tagged* end = merge_n(std::span<const Tagged>(fwd), i, std::span<const Tagged>(b), j,
                        fwd.size(), fwd.data(), kByKey);
  EXPECT_EQ(end, fwd.data() + fwd.size()) << where;
  EXPECT_EQ(i, fwd.size()) << where;
  EXPECT_EQ(j, b.size()) << where;
  EXPECT_EQ(fwd, want) << "merge_n in place " << where;
}

TEST(SortedOps, KernelsRandomNodeScale) {
  Xoshiro256 rng(17);
  for (int iter = 0; iter < 300; ++iter) {
    const int bound = iter % 3 == 0 ? 8 : (iter % 3 == 1 ? 1000 : 1 << 30);
    const auto a = random_sorted(rng, rng.next_below(601), bound);
    const auto b = random_sorted(rng, rng.next_below(601), bound);
    check_kernels(a, b, rng);
  }
}

TEST(SortedOps, KernelsSkewedFewIntoMany) {
  Xoshiro256 rng(19);
  for (int iter = 0; iter < 300; ++iter) {
    const int bound = iter % 2 == 0 ? 64 : 1 << 20;
    const auto many = random_sorted(rng, 480 + rng.next_below(65), bound);
    const auto few = random_sorted(rng, rng.next_below(17), bound);
    check_kernels(many, few, rng);
    check_kernels(few, many, rng);
  }
}

TEST(SortedOps, KernelsRunsAroundMinGallop) {
  // a and b alternate in blocks of exactly `len` items, so each side wins
  // len times in a row: one short of, exactly at, and one past kMinGallop.
  Xoshiro256 rng(23);
  for (std::size_t len = kMinGallop - 1; len <= kMinGallop + 1; ++len) {
    for (const bool tied_edges : {false, true}) {
      for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
        std::vector<int> a, b;
        int key = 0;
        for (std::size_t blk = 0; blk < blocks; ++blk) {
          auto& side = blk % 2 == 0 ? a : b;
          for (std::size_t x = 0; x < len; ++x) side.push_back(key++);
          if (tied_edges) --key;  // next block starts on this block's last key
        }
        check_kernels(a, b, rng);
        check_kernels(b, a, rng);
      }
    }
  }
}

TEST(SortedOps, KernelsAllEqualKeys) {
  Xoshiro256 rng(29);
  for (const std::size_t na : {0u, 1u, 6u, 7u, 8u, 16u, 512u}) {
    for (const std::size_t nb : {0u, 1u, 6u, 7u, 8u, 16u, 512u}) {
      check_kernels(std::vector<int>(na, 5), std::vector<int>(nb, 5), rng);
    }
  }
}

std::size_t merge_all(const std::vector<std::span<const int>>& runs,
                      std::vector<std::size_t>& taken, std::vector<int>& out) {
  taken.assign(runs.size(), 0);
  return merge_k(std::span<const std::span<const int>>(runs), SIZE_MAX,
                 std::span<std::size_t>(taken), &out, Less{});
}

TEST(SortedOps, MergeKBasic) {
  std::vector<int> r1{1, 5}, r2{2, 6}, r3{0, 9}, out;
  std::vector<std::size_t> taken;
  EXPECT_EQ(merge_all({r1, r2, r3}, taken, out), 6u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 5, 6, 9}));
  EXPECT_EQ(taken, (std::vector<std::size_t>{2, 2, 2}));
}

TEST(SortedOps, MergeKSingleAndEmptyRuns) {
  std::vector<int> r1{3, 4}, r2, out;
  std::vector<std::size_t> taken;
  EXPECT_EQ(merge_all({r1, r2}, taken, out), 2u);
  EXPECT_EQ(out, (std::vector<int>{3, 4}));
  EXPECT_EQ(merge_all({}, taken, out), 0u);
}

TEST(SortedOps, MergeKCopiesTheLastLiveRunInOneBlock) {
  // Once a single run still has items, merge_k takes what it owes in one
  // copy: from a nonzero cursor, cut at k, to the run's end when k is
  // larger, and counting only when out is null.
  const std::vector<int> r1{1, 2}, r2{0, 3, 4, 5, 6, 7, 8}, r3;
  const std::vector<std::span<const int>> runs{r1, r2, r3};
  const std::span<const std::span<const int>> in(runs);

  // r1's cursor is at its end, so r2 (resuming at index 2) is the only
  // live run; k = 3 is less than its remaining 5.
  std::vector<std::size_t> taken{2, 2, 0};
  std::vector<int> out{-1};
  EXPECT_EQ(merge_k(in, 3, std::span<std::size_t>(taken), &out, Less{}), 3u);
  EXPECT_EQ(out, (std::vector<int>{-1, 4, 5, 6}));
  EXPECT_EQ(taken, (std::vector<std::size_t>{2, 5, 0}));
  EXPECT_EQ(merge_k<int>(in, 10, std::span<std::size_t>(taken), nullptr, Less{}), 2u);
  EXPECT_EQ(taken, (std::vector<std::size_t>{2, 7, 0}));
  EXPECT_EQ(merge_k<int>(in, 10, std::span<std::size_t>(taken), nullptr, Less{}), 0u);

  // Item by item while r1 and r2 interleave, then one copy of r2 cut at k.
  for (const std::size_t k : {std::size_t{0}, std::size_t{3}, std::size_t{6},
                              std::size_t{9}, std::size_t{20}}) {
    const std::vector<int> all{0, 1, 2, 3, 4, 5, 6, 7, 8};
    const std::size_t want_n = std::min(k, all.size());
    taken.assign(3, 0);
    out.clear();
    EXPECT_EQ(merge_k(in, k, std::span<std::size_t>(taken), &out, Less{}), want_n);
    const auto cut = all.begin() + static_cast<std::ptrdiff_t>(want_n);
    EXPECT_EQ(out, std::vector<int>(all.begin(), cut));
    std::vector<std::size_t> counted(3, 0);
    EXPECT_EQ(merge_k<int>(in, k, std::span<std::size_t>(counted), nullptr, Less{}),
              want_n);
    EXPECT_EQ(counted, taken) << "k " << k;
  }
}

TEST(SortedOps, MergeKTiesGoToLowestRunIndex) {
  // Tie-heavy runs of tagged items (key, run): the tournament must equal a
  // stable sort of the runs' concatenation, cut at k, with per-run take
  // counts matching the cut; a null output only counts; a nonzero cursor
  // resumes mid-run.
  using Tag = std::pair<int, int>;
  struct KeyLess {
    bool operator()(const Tag& a, const Tag& b) const { return a.first < b.first; }
  };
  Xoshiro256 rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t nruns = 1 + rng.next_below(6);
    std::vector<std::vector<Tag>> runs(nruns);
    std::vector<Tag> all;
    for (std::size_t i = 0; i < nruns; ++i) {
      std::vector<int> keys(rng.next_below(20));
      for (int& key : keys) key = static_cast<int>(rng.next_below(4));
      std::sort(keys.begin(), keys.end());
      for (const int key : keys) runs[i].push_back({key, static_cast<int>(i)});
      all.insert(all.end(), runs[i].begin(), runs[i].end());
    }
    std::stable_sort(all.begin(), all.end(), KeyLess{});
    std::vector<std::span<const Tag>> spans(runs.begin(), runs.end());
    const std::size_t k = rng.next_below(all.size() + 2);
    const std::size_t want_n = std::min(k, all.size());

    std::vector<Tag> out;
    std::vector<std::size_t> taken(nruns, 0);
    const std::span<const std::span<const Tag>> in(spans);
    ASSERT_EQ(merge_k(in, k, std::span<std::size_t>(taken), &out, KeyLess{}), want_n);
    ASSERT_EQ(out, std::vector<Tag>(all.begin(), all.begin() + want_n)) << trial;
    std::vector<std::size_t> want_taken(nruns, 0);
    for (const Tag& t : out) ++want_taken[static_cast<std::size_t>(t.second)];
    EXPECT_EQ(taken, want_taken) << trial;

    std::vector<std::size_t> counted(nruns, 0);
    EXPECT_EQ(merge_k<Tag>(in, k, std::span<std::size_t>(counted), nullptr, KeyLess{}),
              want_n);
    EXPECT_EQ(counted, want_taken) << trial;

    // Resume from the cursors: the rest of the stream follows.
    ASSERT_EQ(merge_k(in, SIZE_MAX, std::span<std::size_t>(taken), &out, KeyLess{}),
              all.size() - want_n);
    EXPECT_EQ(out, all) << trial;
  }
}

}  // namespace
}  // namespace ph
