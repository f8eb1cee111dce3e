// NodeArena (core/node_arena.hpp): the in-place bulk load, the head-advance
// refill and its compaction rule, and — the property the heaps rely on —
// that a node's logical contents after any sequence of repairs, appends and
// truncations equal those of a plain packed run given the same operations.
#include "core/node_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/node_fix.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

/// Items carry a tag so that equal keys from different sources stay
/// distinguishable: the comparisons below check tie order too.
struct Item {
  std::uint64_t key;
  std::uint32_t tag;
  bool operator==(const Item&) const = default;
};
const auto kLess = [](const Item& x, const Item& y) { return x.key < y.key; };
void PrintTo(const Item& x, std::ostream* os) { *os << x.key << "#" << x.tag; }

std::vector<Item> sorted_items(Xoshiro256& rng, std::size_t n, std::uint64_t lo,
                               std::uint64_t span, std::uint32_t& tag) {
  std::vector<Item> v(n);
  for (auto& x : v) x = {lo + rng.next_below(span), tag++};
  std::stable_sort(v.begin(), v.end(), kLess);
  return v;
}

std::vector<Item> as_vector(std::span<const Item> s) { return {s.begin(), s.end()}; }

TEST(NodeArena, BuildLaysOutSortedNodesInPlace) {
  Xoshiro256 rng(3);
  for (const std::size_t r : {1u, 3u, 16u, 512u}) {
    NodeArena<Item> arena(r);
    EXPECT_EQ(arena.stride(), r + std::max<std::size_t>(1, r / 8));
    // Grow, shrink and regrow on the same arena: a rebuild must not read
    // stale slots.
    for (const std::size_t n : {5 * r + r / 2 + 1, std::size_t{0}, 2 * r, 7 * r + 1}) {
      std::uint32_t tag = 0;
      std::vector<Item> items(n);
      for (auto& x : items) x = {rng.next_below(1000), tag++};
      arena.build(std::span<const Item>(items), kLess);
      std::vector<Item> want = items;
      std::stable_sort(want.begin(), want.end(), kLess);
      const std::size_t m = (n + r - 1) / r;
      ASSERT_EQ(arena.nodes(), m) << "r=" << r << " n=" << n;
      std::vector<Item> got;
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(arena.head(i), 0u);
        EXPECT_EQ(arena.count(i), std::min(r, n - i * r)) << "r=" << r << " node " << i;
        const auto s = arena.span(i);
        got.insert(got.end(), s.begin(), s.end());
      }
      // The bulk-load sort is not stable, so compare keys; the layout is the
      // sorted order cut into r-item nodes.
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(got[k].key, want[k].key) << k;
    }
  }
}

TEST(NodeArena, BuildKeepsEveryItemWhenTheLastNodeIsPartial) {
  // Sizes past sort_in_place's insertion-sort range, none a multiple of r,
  // on duplicate-heavy and distinct keys: every node is sorted, each node's
  // items sort no later than the next node's, the last node holds n mod r,
  // and the tags show every input item is there exactly once.
  Xoshiro256 rng(7);
  for (const std::size_t r : {3u, 512u}) {
    for (const std::size_t n : {r * 40 + 1, r * 129 - 1, std::size_t{(1u << 16) + 1}}) {
      if (n % r == 0) continue;
      for (const std::uint64_t domain : {std::uint64_t{5}, std::uint64_t{1} << 40}) {
        std::uint32_t tag = 0;
        std::vector<Item> items(n);
        for (auto& x : items) x = {rng.next_below(domain), tag++};
        NodeArena<Item> arena(r);
        arena.build(std::span<const Item>(items), kLess);
        const std::size_t m = n / r + 1;
        ASSERT_EQ(arena.nodes(), m) << "r=" << r << " n=" << n;
        EXPECT_EQ(arena.count(m - 1), n % r);
        std::vector<bool> seen(n, false);
        for (std::size_t i = 0; i < m; ++i) {
          const auto s = arena.span(i);
          EXPECT_TRUE(std::is_sorted(s.begin(), s.end(), kLess)) << "node " << i;
          if (i + 1 < m) {
            EXPECT_FALSE(kLess(arena.span(i + 1).front(), s.back())) << "node " << i;
          }
          for (const Item& x : s) {
            ASSERT_FALSE(seen[x.tag]) << "tag " << x.tag;
            seen[x.tag] = true;
          }
        }
        EXPECT_EQ(std::count(seen.begin(), seen.end(), true), static_cast<std::ptrdiff_t>(n));
      }
    }
  }
}

TEST(NodeArena, RefillAdvancesHeadThenCompactsToBase) {
  constexpr std::size_t kR = 64;  // headroom 8
  NodeArena<Item> arena(kR);
  std::uint32_t tag = 0;
  Xoshiro256 rng(5);
  const std::vector<Item> init = sorted_items(rng, kR, 0, 1000, tag);
  arena.build(std::span<const Item>(init), kLess);
  std::vector<Item> ref = as_vector(arena.span(0));  // the bulk-load sort is not stable

  // Refills of 3 items: two fit in the headroom (head 0 → 3 → 6), the
  // third would run past the slot (6 + 3 + 64 > 72) and merges forward
  // into the base instead.
  const std::array<std::size_t, 3> want_head{3, 6, 0};
  for (std::size_t step = 0; step < 3; ++step) {
    const std::vector<Item> fills = sorted_items(rng, 3, 500, 1000, tag);
    NodeSlot<Item> s = arena.slot(0);
    const std::size_t written = refill(s, std::span<const Item>(fills), kLess);
    arena.commit(0, s);
    EXPECT_EQ(arena.head(0), want_head[step]) << "step " << step;
    ref.erase(ref.begin(), ref.begin() + 3);
    const std::size_t first_moved = static_cast<std::size_t>(
        std::upper_bound(ref.begin(), ref.end(), fills.front(), kLess) - ref.begin());
    ref.insert(ref.end(), fills.begin(), fills.end());
    std::stable_sort(ref.begin(), ref.end(), kLess);
    ASSERT_EQ(as_vector(arena.span(0)), ref) << "step " << step;
    if (want_head[step] != 0) {
      // Back merge: only the items after the first fill's place move.
      EXPECT_EQ(written, kR - first_moved) << "step " << step;
    } else {
      EXPECT_LE(written, kR) << "step " << step;
    }
  }
}

TEST(NodeArena, MakeRoomCompactsOnlyWhenTheAppendWouldNotFit) {
  constexpr std::size_t kR = 16;  // headroom 2, stride 18
  NodeArena<Item> arena(kR);
  std::uint32_t tag = 0;
  Xoshiro256 rng(7);
  std::vector<Item> ref = sorted_items(rng, kR, 0, 100, tag);
  arena.build(std::span<const Item>(ref), kLess);
  ref = as_vector(arena.span(0));
  arena.truncate(0, 6);
  ref.resize(6);

  // Three refills of 3 on a 6-item node advance the head to 9, well past
  // the r/8 = 2 of headroom a full node has.
  auto merged = [&](std::vector<Item> a, const std::vector<Item>& b) {
    a.insert(a.end(), b.begin(), b.end());
    std::stable_sort(a.begin(), a.end(), kLess);
    return a;
  };
  for (int step = 0; step < 3; ++step) {
    const std::vector<Item> fills = sorted_items(rng, 3, 0, 200, tag);
    NodeSlot<Item> s = arena.slot(0);
    refill(s, std::span<const Item>(fills), kLess);
    arena.commit(0, s);
    ref = merged(std::vector<Item>(ref.begin() + 3, ref.end()), fills);
    ASSERT_EQ(as_vector(arena.span(0)), ref) << "step " << step;
  }
  ASSERT_EQ(arena.head(0), 9u);

  // A delivery that fits behind the items (9 + 6 + 3 = 18) leaves the head
  // where it is and writes only what the merge moves.
  EXPECT_EQ(arena.make_room(0, 3), 0u);
  std::vector<Item> more = sorted_items(rng, 3, 0, 200, tag);
  EXPECT_LE(arena.merge_into(0, std::span<const Item>(more), kLess), 9u);
  EXPECT_EQ(arena.head(0), 9u);
  ref = merged(ref, more);
  ASSERT_EQ(as_vector(arena.span(0)), ref);

  // One that does not (9 + 9 + 4 > 18) compacts the 9 items to the base
  // first, then merges.
  more = sorted_items(rng, 4, 0, 200, tag);
  const std::size_t written = arena.merge_into(0, std::span<const Item>(more), kLess);
  EXPECT_EQ(arena.head(0), 0u);
  EXPECT_GE(written, 9u + 4u);
  EXPECT_LE(written, 9u + 13u);
  ref = merged(ref, more);
  ASSERT_EQ(as_vector(arena.span(0)), ref);
  EXPECT_EQ(arena.count(0), 13u);
}

/// Random repair sequences at node scale: node 0 is the parent, nodes
/// 1..d its children. Every step gives the parent a fresh run, repairs it
/// against the children — on the arena's slots and, as the reference, on
/// plain packed vectors — and sometimes also truncates a child and delivers
/// to it. The logical contents, the outcome and items_moved must agree
/// exactly at every step; only the heads (and items_written) may differ.
void random_fix_sequence(std::size_t r, std::size_t d, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::uint32_t tag = 0;
  const std::uint64_t span = rng.next_below(2) == 0 ? 16 : 1u << 20;
  NodeArena<Item> arena(r);
  std::vector<Item> init;
  for (std::size_t c = 0; c <= d; ++c) {
    const std::vector<Item> run = sorted_items(rng, r, c * span / 4, span, tag);
    init.insert(init.end(), run.begin(), run.end());
  }
  // Nodes 0..d start as consecutive r-item chunks of the sorted keys.
  arena.build(std::span<const Item>(init), kLess);
  std::vector<std::vector<Item>> ref(d + 1);
  for (std::size_t c = 0; c <= d; ++c) ref[c] = as_vector(arena.span(c));

  FixScratch<Item> s_arena, s_ref;
  bool advanced = false;
  for (int step = 0; step < 200; ++step) {
    const std::string where = "r=" + std::to_string(r) + " d=" + std::to_string(d) +
                              " step " + std::to_string(step);
    // Occasionally truncate a child and deliver to it (the tail's life).
    if (rng.next_below(4) == 0) {
      const std::size_t c = 1 + rng.next_below(d);
      const std::size_t keep = rng.next_below(arena.count(c) + 1);
      arena.truncate(c, keep);
      ref[c].resize(keep);
      const std::size_t add = rng.next_below(r - keep + 1);
      const std::vector<Item> more = sorted_items(rng, add, 0, 2 * span, tag);
      arena.merge_into(c, std::span<const Item>(more), kLess);
      ref[c].insert(ref[c].end(), more.begin(), more.end());
      std::stable_sort(ref[c].begin(), ref[c].end(), kLess);
    }
    // A fresh parent run (the root's new content, or a dirty parent).
    const std::size_t nv = 1 + rng.next_below(r);
    const std::vector<Item> parent = sorted_items(rng, nv, rng.next_below(span), span, tag);
    std::copy(parent.begin(), parent.end(), arena.reset(0, nv));
    ref[0] = parent;

    std::vector<Item> grand(d);
    std::vector<const Item*> gms(d, nullptr);
    for (std::size_t c = 0; c < d; ++c) {
      grand[c] = {rng.next_below(3 * span), tag++};
      if (rng.next_below(3) != 0) gms[c] = &grand[c];
    }
    std::array<std::size_t, 16> taken_a{}, taken_r{};
    std::array<bool, 16> viol_a{}, viol_r{};
    std::array<NodeSlot<Item>, 16> slots{}, plain{};
    for (std::size_t c = 0; c < d; ++c) {
      slots[c] = arena.slot(c + 1);
      plain[c] = NodeSlot<Item>(std::span<Item>(ref[c + 1]));
    }
    std::size_t moved_a = 0, moved_r = 0;
    if (d == 2 && step % 2 == 0) {
      const auto out_a = fix_node(arena.span(0), slots[0], slots[1], s_arena, kLess);
      const auto out_r = fix_node(std::span<Item>(ref[0]), plain[0], plain[1], s_ref, kLess);
      taken_a = {out_a.taken_l, out_a.taken_r};
      taken_r = {out_r.taken_l, out_r.taken_r};
      moved_a = out_a.items_moved;
      moved_r = out_r.items_moved;
    } else {
      moved_a = fix_node_multi(arena.span(0), std::span<NodeSlot<Item>>(slots.data(), d),
                               std::span<const Item* const>(gms), std::span(taken_a.data(), d),
                               std::span(viol_a.data(), d), s_arena, kLess);
      moved_r = fix_node_multi(std::span<Item>(ref[0]),
                               std::span<NodeSlot<Item>>(plain.data(), d),
                               std::span<const Item* const>(gms), std::span(taken_r.data(), d),
                               std::span(viol_r.data(), d), s_ref, kLess);
    }
    EXPECT_EQ(moved_a, moved_r) << where;
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_EQ(taken_a[c], taken_r[c]) << where << " child " << c;
      EXPECT_EQ(viol_a[c], viol_r[c]) << where << " child " << c;
      EXPECT_EQ(plain[c].head, 0u) << where;  // plain runs stay packed
      if (taken_a[c] > 0) arena.commit(c + 1, slots[c]);
      advanced = advanced || arena.head(c + 1) > 0;
    }
    for (std::size_t c = 0; c <= d; ++c) {
      ASSERT_EQ(as_vector(arena.span(c)), ref[c]) << where << " node " << c;
    }
  }
  // The sequences must exercise the headroom, not just the packed path.
  EXPECT_TRUE(advanced) << "r=" << r << " d=" << d;
}

TEST(NodeArena, RandomFixSequencesMatchPackedRuns) {
  std::uint64_t seed = 11;
  for (const std::size_t r : {1u, 3u, 16u, 512u}) {
    for (const std::size_t d : {2u, 3u}) random_fix_sequence(r, d, seed++);
  }
}

}  // namespace
}  // namespace ph
