// Property tests for the node-repair kernels (node_fix.hpp) against a
// brute-force reference: the repaired parent must hold exactly the nv
// smallest of parent ∪ children, per-child counts must be preserved, the
// overall multiset must be conserved, and the d-ary kernel's
// residual-violation flags must be exact.
#include "core/node_fix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "util/rng.hpp"

namespace ph {
namespace {

using Less = std::less<std::uint64_t>;

/// fix_node on plain runs: each child is a slot without headroom, so its
/// refill takes the forward path and leaves it packed at offset 0.
template <typename T, typename Compare>
FixOutcome<T> fix_runs(std::span<T> v, std::span<T> l, std::span<T> r, FixScratch<T>& s,
                       Compare cmp) {
  NodeSlot<T> ls(l), rs(r);
  const FixOutcome<T> out = fix_node(v, ls, rs, s, cmp);
  EXPECT_EQ(ls.head + rs.head, 0u);
  return out;
}

std::vector<std::uint64_t> sorted_random(Xoshiro256& rng, std::size_t n,
                                         std::uint64_t bound) {
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(bound);
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FixNode, SimpleExchange) {
  std::vector<std::uint64_t> v{10, 20}, l{1, 30}, r{5, 40};
  FixScratch<std::uint64_t> s;
  const auto out = fix_runs(std::span<std::uint64_t>(v), std::span<std::uint64_t>(l),
                            std::span<std::uint64_t>(r), s, Less{});
  // Smallest 2 of {10,20,1,30,5,40} = {1,5}.
  EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 5}));
  EXPECT_EQ(out.taken_l + out.taken_r, 2u);
  // Children keep their counts; union conserved.
  std::vector<std::uint64_t> rest = l;
  rest.insert(rest.end(), r.begin(), r.end());
  std::sort(rest.begin(), rest.end());
  EXPECT_EQ(rest, (std::vector<std::uint64_t>{10, 20, 30, 40}));
}

TEST(FixNode, NoExchangeWhenOrdered) {
  std::vector<std::uint64_t> v{1, 2}, l{3, 4}, r{5, 6};
  FixScratch<std::uint64_t> s;
  const auto out = fix_runs(std::span<std::uint64_t>(v), std::span<std::uint64_t>(l),
                            std::span<std::uint64_t>(r), s, Less{});
  EXPECT_EQ(out.taken_l, 0u);
  EXPECT_EQ(out.taken_r, 0u);
  EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2}));
}

TEST(FixNode, RandomizedAgainstBruteForce) {
  Xoshiro256 rng(71);
  FixScratch<std::uint64_t> s;
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t nv = 1 + rng.next_below(12);
    auto v = sorted_random(rng, nv, 100);
    auto l = sorted_random(rng, rng.next_below(13), 100);
    auto r = sorted_random(rng, rng.next_below(13), 100);
    if (l.empty() && r.empty()) continue;

    std::vector<std::uint64_t> all = v;
    all.insert(all.end(), l.begin(), l.end());
    all.insert(all.end(), r.begin(), r.end());
    std::sort(all.begin(), all.end());

    const std::size_t nl = l.size(), nr = r.size();
    const auto out =
        fix_runs(std::span<std::uint64_t>(v), std::span<std::uint64_t>(l),
                 std::span<std::uint64_t>(r), s, Less{});

    // Parent: exactly the nv smallest of the union.
    EXPECT_TRUE(std::equal(v.begin(), v.end(), all.begin())) << "iter " << iter;
    // Counts preserved.
    EXPECT_EQ(l.size(), nl);
    EXPECT_EQ(r.size(), nr);
    EXPECT_LE(out.taken_l, nl);
    EXPECT_LE(out.taken_r, nr);
    // Sortedness.
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
    EXPECT_TRUE(std::is_sorted(l.begin(), l.end()));
    EXPECT_TRUE(std::is_sorted(r.begin(), r.end()));
    // Heap condition restored at this level.
    if (!l.empty()) {
      EXPECT_LE(v.back(), l.front());
    }
    if (!r.empty()) {
      EXPECT_LE(v.back(), r.front());
    }
    // Multiset conserved.
    std::vector<std::uint64_t> now = v;
    now.insert(now.end(), l.begin(), l.end());
    now.insert(now.end(), r.begin(), r.end());
    std::sort(now.begin(), now.end());
    EXPECT_EQ(now, all);
  }
}

TEST(FixNodeMulti, ViolationFlagsExact) {
  // A child that received fills violates iff its grandchild minimum sorts
  // before its new largest item; a child without fills reports none.
  Xoshiro256 rng(73);
  FixScratch<std::uint64_t> s;
  for (int iter = 0; iter < 300; ++iter) {
    auto v = sorted_random(rng, 1 + rng.next_below(6), 50);
    auto l = sorted_random(rng, 1 + rng.next_below(6), 50);
    auto r = sorted_random(rng, 1 + rng.next_below(6), 50);
    const std::uint64_t gl = rng.next_below(50);
    const std::uint64_t gr = rng.next_below(50);
    std::array<NodeSlot<std::uint64_t>, 2> kids{std::span<std::uint64_t>(l),
                                                std::span<std::uint64_t>(r)};
    const std::array<const std::uint64_t*, 2> gms{&gl, &gr};
    std::array<std::size_t, 2> taken{};
    std::array<bool, 2> viol{};
    fix_node_multi(std::span<std::uint64_t>(v), std::span<NodeSlot<std::uint64_t>>(kids),
                   std::span<const std::uint64_t* const>(gms), std::span<std::size_t>(taken),
                   std::span<bool>(viol), s, Less{});
    EXPECT_EQ(viol[0], taken[0] > 0 && gl < l.back()) << "iter " << iter;
    EXPECT_EQ(viol[1], taken[1] > 0 && gr < r.back()) << "iter " << iter;
  }
}

TEST(FixNodeMulti, MatchesBinaryKernel) {
  // The binary kernel gives L the lower slice of the fills. With d = 2 the
  // multi kernel does the same whenever its grandmin ranking keeps L first
  // (both absent, only L's present, or L's no later than R's: ties go to
  // the lower index), and then the two must agree exactly: same parent,
  // same children element for element, same taken counts and work count.
  Xoshiro256 rng(79);
  FixScratch<std::uint64_t> s1, s2;
  for (int iter = 0; iter < 600; ++iter) {
    auto v1 = sorted_random(rng, 1 + rng.next_below(8), 60);
    auto l1 = sorted_random(rng, rng.next_below(9), 60);
    auto r1 = sorted_random(rng, rng.next_below(9), 60);
    if (l1.empty() && r1.empty()) continue;
    auto v2 = v1;
    auto l2 = l1;
    auto r2 = r1;
    const std::uint64_t g0 = 30 + rng.next_below(40);
    const std::uint64_t g1 = rng.next_below(4) == 0 ? g0 : g0 + rng.next_below(40);
    std::array<const std::uint64_t*, 2> gms{nullptr, nullptr};
    if (rng.next_below(3) != 0) gms = {&g0, rng.next_below(3) == 0 ? nullptr : &g1};

    const auto out1 = fix_runs(std::span<std::uint64_t>(v1), std::span<std::uint64_t>(l1),
                               std::span<std::uint64_t>(r1), s1, Less{});

    std::array<NodeSlot<std::uint64_t>, 2> kids{std::span<std::uint64_t>(l2),
                                                std::span<std::uint64_t>(r2)};
    std::array<std::size_t, 2> taken{};
    std::array<bool, 2> viol{};
    const std::size_t moved = fix_node_multi(
        std::span<std::uint64_t>(v2), std::span<NodeSlot<std::uint64_t>>(kids),
        std::span<const std::uint64_t* const>(gms.data(), 2), std::span<std::size_t>(taken),
        std::span<bool>(viol), s2, Less{});

    EXPECT_EQ(v1, v2) << "iter " << iter;
    EXPECT_EQ(l1, l2) << "iter " << iter;
    EXPECT_EQ(r1, r2) << "iter " << iter;
    EXPECT_EQ(out1.taken_l, taken[0]) << "iter " << iter;
    EXPECT_EQ(out1.taken_r, taken[1]) << "iter " << iter;
    EXPECT_EQ(out1.items_moved, moved) << "iter " << iter;
  }
}

TEST(FixNodeMulti, FourChildrenBruteForce) {
  Xoshiro256 rng(83);
  FixScratch<std::uint64_t> s;
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t d = 2 + rng.next_below(5);  // 2..6 children
    const std::size_t nv = 1 + rng.next_below(8);
    auto v = sorted_random(rng, nv, 80);
    std::vector<std::vector<std::uint64_t>> kids(d);
    std::vector<std::uint64_t> all = v;
    bool any = false;
    for (auto& kid : kids) {
      kid = sorted_random(rng, rng.next_below(9), 80);
      any = any || !kid.empty();
      all.insert(all.end(), kid.begin(), kid.end());
    }
    if (!any) continue;
    std::sort(all.begin(), all.end());

    std::vector<NodeSlot<std::uint64_t>> spans;
    for (auto& kid : kids) spans.emplace_back(kid);
    std::vector<const std::uint64_t*> gms(d, nullptr);
    std::vector<std::size_t> taken(d, 0);
    // std::vector<bool> cannot form a span<bool>; use a flat array.
    std::array<bool, 16> viol{};
    fix_node_multi(std::span<std::uint64_t>(v),
                   std::span<NodeSlot<std::uint64_t>>(spans),
                   std::span<const std::uint64_t* const>(gms.data(), d),
                   std::span<std::size_t>(taken.data(), d),
                   std::span<bool>(viol.data(), d), s, Less{});

    EXPECT_TRUE(std::equal(v.begin(), v.end(), all.begin())) << "iter " << iter;
    std::vector<std::uint64_t> now = v;
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_TRUE(std::is_sorted(kids[c].begin(), kids[c].end()));
      if (!kids[c].empty()) {
        EXPECT_LE(v.back(), kids[c].front());
      }
      now.insert(now.end(), kids[c].begin(), kids[c].end());
    }
    std::sort(now.begin(), now.end());
    EXPECT_EQ(now, all);
  }
}

// ---------------------------------------------------------------------------
// Layout equality against the copy-based repair the in-place kernels
// replaced: same parent, same children element for element (tie order
// included), same outcome. Items carry a tag so that equal keys from
// different sources stay distinguishable.

struct Item {
  std::uint64_t key;
  std::uint32_t tag;
  bool operator==(const Item&) const = default;
};
const auto kItemLess = [](const Item& x, const Item& y) { return x.key < y.key; };

/// Stable merge of a and b (ties: a first) into a fresh vector.
std::vector<Item> ref_merge(std::span<const Item> a, std::span<const Item> b) {
  std::vector<Item> out;
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out), kItemLess);
  return out;
}

/// The copy-based fix_node: merge into a temporary, copy back; L takes the
/// lower slice of the fills.
FixOutcome<Item> ref_fix_node(std::span<Item> sv, std::span<Item> sl, std::span<Item> sr) {
  const std::size_t nv = sv.size(), nl = sl.size(), nr = sr.size();
  std::vector<Item> kid_prefix;
  std::size_t il = 0, ir = 0, t = 0;
  while (t < nv && (il < nl || ir < nr)) {
    const bool from_l = ir >= nr || (il < nl && !kItemLess(sr[ir], sl[il]));
    const Item& cand = from_l ? sl[il] : sr[ir];
    if (!kItemLess(cand, sv[nv - 1 - t])) break;
    kid_prefix.push_back(cand);
    if (from_l) {
      ++il;
    } else {
      ++ir;
    }
    ++t;
  }
  FixOutcome<Item> out;
  out.taken_l = il;
  out.taken_r = ir;
  if (t == 0) return out;
  const std::vector<Item> dirty(sv.end() - static_cast<std::ptrdiff_t>(t), sv.end());
  auto nv_new = ref_merge(sv.first(nv - t), kid_prefix);
  std::copy(nv_new.begin(), nv_new.end(), sv.begin());
  out.items_moved += nv;
  if (il > 0) {
    const std::vector<Item> suf(sl.begin() + static_cast<std::ptrdiff_t>(il), sl.end());
    auto m = ref_merge(suf, std::span<const Item>(dirty.data(), il));
    std::copy(m.begin(), m.end(), sl.begin());
    out.items_moved += nl;
  }
  if (ir > 0) {
    const std::vector<Item> suf(sr.begin() + static_cast<std::ptrdiff_t>(ir), sr.end());
    auto m = ref_merge(suf, std::span<const Item>(dirty.data() + il, ir));
    std::copy(m.begin(), m.end(), sr.begin());
    out.items_moved += nr;
  }
  return out;
}

/// The copy-based fix_node_multi.
std::size_t ref_fix_node_multi(std::span<Item> sv, std::vector<std::vector<Item>>& kids,
                               const std::vector<const Item*>& gms,
                               std::vector<std::size_t>& taken, std::vector<char>& viol) {
  const std::size_t nv = sv.size(), d = kids.size();
  taken.assign(d, 0);
  viol.assign(d, 0);
  std::vector<Item> kid_prefix;
  std::size_t t = 0;
  while (t < nv) {
    std::size_t best = d;
    for (std::size_t c = 0; c < d; ++c) {
      if (taken[c] >= kids[c].size()) continue;
      if (best == d || kItemLess(kids[c][taken[c]], kids[best][taken[best]])) best = c;
    }
    if (best == d) break;
    const Item& cand = kids[best][taken[best]];
    if (!kItemLess(cand, sv[nv - 1 - t])) break;
    kid_prefix.push_back(cand);
    ++taken[best];
    ++t;
  }
  if (t == 0) return 0;
  const std::vector<Item> dirty(sv.end() - static_cast<std::ptrdiff_t>(t), sv.end());
  auto nv_new = ref_merge(sv.first(nv - t), kid_prefix);
  std::copy(nv_new.begin(), nv_new.end(), sv.begin());
  std::size_t moved = nv;
  std::vector<std::size_t> order(d);
  for (std::size_t c = 0; c < d; ++c) order[c] = c;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (gms[a] == nullptr) return false;
    if (gms[b] == nullptr) return true;
    return kItemLess(*gms[a], *gms[b]);
  });
  std::size_t offset = 0;
  for (const std::size_t c : order) {
    const std::size_t k = taken[c];
    if (k == 0) continue;
    const std::vector<Item> suf(kids[c].begin() + static_cast<std::ptrdiff_t>(k),
                                kids[c].end());
    auto m = ref_merge(suf, std::span<const Item>(dirty.data() + offset, k));
    std::copy(m.begin(), m.end(), kids[c].begin());
    moved += m.size();
    viol[c] = gms[c] != nullptr && kItemLess(*gms[c], m.back());
    offset += k;
  }
  return moved;
}

/// A sorted run of n tagged items with keys in [lo, lo + span).
std::vector<Item> tagged_run(Xoshiro256& rng, std::size_t n, std::uint64_t lo,
                             std::uint64_t span, std::uint32_t& next_tag) {
  std::vector<Item> run(n);
  for (auto& x : run) x = {lo + rng.next_below(span), next_tag++};
  std::stable_sort(run.begin(), run.end(), kItemLess);
  return run;
}

/// Random repair inputs at node scale: the parent's keys start at 0, each
/// child's at a random offset, so the exchange ranges from none to total;
/// narrow key spans force ties across runs.
struct RepairCase {
  std::vector<Item> v;
  std::vector<std::vector<Item>> kids;
  std::vector<Item> grand;  // one candidate grandmin per child
  std::vector<bool> has_grand;
};

RepairCase random_case(Xoshiro256& rng, std::size_t d, bool grandmins) {
  RepairCase rc;
  std::uint32_t tag = 0;
  const std::uint64_t span = rng.next_below(2) == 0 ? 64 : 1u << 20;
  const std::size_t nv = 1 + rng.next_below(512);
  rc.v = tagged_run(rng, nv, 0, span, tag);
  for (std::size_t c = 0; c < d; ++c) {
    const std::size_t n = rng.next_below(4) == 0 ? rng.next_below(17) : rng.next_below(513);
    rc.kids.push_back(tagged_run(rng, n, rng.next_below(span), span, tag));
    rc.grand.push_back({rng.next_below(3 * span), tag++});
    rc.has_grand.push_back(grandmins && rng.next_below(4) != 0);
  }
  return rc;
}

TEST(FixNode, InPlaceLayoutMatchesCopyReference) {
  Xoshiro256 rng(89);
  FixScratch<Item> s;
  for (int iter = 0; iter < 400; ++iter) {
    RepairCase rc = random_case(rng, 2, false);
    auto v2 = rc.v;
    auto l2 = rc.kids[0];
    auto r2 = rc.kids[1];
    const auto want = ref_fix_node(std::span<Item>(rc.v), std::span<Item>(rc.kids[0]),
                                   std::span<Item>(rc.kids[1]));
    const auto got = fix_runs(std::span<Item>(v2), std::span<Item>(l2), std::span<Item>(r2), s,
                              kItemLess);
    ASSERT_EQ(v2, rc.v) << "iter " << iter;
    ASSERT_EQ(l2, rc.kids[0]) << "iter " << iter;
    ASSERT_EQ(r2, rc.kids[1]) << "iter " << iter;
    EXPECT_EQ(got.taken_l, want.taken_l) << "iter " << iter;
    EXPECT_EQ(got.taken_r, want.taken_r) << "iter " << iter;
    EXPECT_EQ(got.items_moved, want.items_moved) << "iter " << iter;
  }
}

TEST(FixNodeMulti, InPlaceLayoutMatchesCopyReference) {
  Xoshiro256 rng(97);
  FixScratch<Item> s;
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t d = 2 + rng.next_below(4);  // 2..5 children
    RepairCase rc = random_case(rng, d, iter % 2 == 1);
    std::vector<const Item*> gms(d, nullptr);
    for (std::size_t c = 0; c < d; ++c) {
      if (rc.has_grand[c]) gms[c] = &rc.grand[c];
    }
    auto v2 = rc.v;
    auto kids2 = rc.kids;
    std::vector<std::size_t> want_taken;
    std::vector<char> want_viol;
    const std::size_t want_moved =
        ref_fix_node_multi(std::span<Item>(rc.v), rc.kids, gms, want_taken, want_viol);

    std::vector<NodeSlot<Item>> spans;
    for (auto& kid : kids2) spans.emplace_back(kid);
    std::vector<std::size_t> taken(d, 0);
    std::array<bool, 16> viol{};
    const std::size_t moved = fix_node_multi(
        std::span<Item>(v2), std::span<NodeSlot<Item>>(spans),
        std::span<const Item* const>(gms.data(), d), std::span<std::size_t>(taken.data(), d),
        std::span<bool>(viol.data(), d), s, kItemLess);
    ASSERT_EQ(v2, rc.v) << "iter " << iter;
    for (std::size_t c = 0; c < d; ++c) {
      ASSERT_EQ(kids2[c], rc.kids[c]) << "iter " << iter << " child " << c;
      EXPECT_EQ(taken[c], want_taken[c]) << "iter " << iter << " child " << c;
      EXPECT_EQ(viol[c], want_viol[c] != 0) << "iter " << iter << " child " << c;
    }
    EXPECT_EQ(moved, want_moved) << "iter " << iter;
  }
}

}  // namespace
}  // namespace ph
