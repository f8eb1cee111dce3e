// The node-local delete-update kernel, shared by the synchronous and
// pipelined heaps.
//
// Given node v (sorted, possibly violating against its children) and its
// children L, R (each internally consistent with its own subtree), restore
// v ≤ L and v ≤ R by the minimal exchange:
//
//   t  = the largest count such that the t smallest items of L ∪ R precede
//        the t largest items of v (discovered with a two-pointer walk, so
//        the common no-op/small-violation cases cost O(t), not O(r));
//   v  keeps its nv − t smallest plus those t child items (newV is exactly
//        the nv smallest of v ∪ L ∪ R);
//   the displaced t items of v ("fills") return to the children by count —
//        tL to L and tR to R, matching the prefixes taken. Any
//        count-preserving assignment is correct (every fill follows every
//        kept item). The binary kernel hands them out by child index, L
//        the lower slice; the d-ary kernel ranks the children by the
//        grandchild minima the caller supplies, so that the child whose own
//        children start later receives the larger fills.
//
// The caller decides how to continue: the result reports, per child, whether
// it received fills (and, for the d-ary kernel, whether its new content
// still violates against the grandchild minimum supplied).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "core/node_arena.hpp"
#include "core/sorted_ops.hpp"
#include "util/assert.hpp"

namespace ph {

/// Scratch buffers for fix_node (reuse across calls to stay allocation-free).
/// kid_prefix only grows: discovery writes its first t slots through a
/// pointer, so a repair neither clears nor zero-fills it.
template <typename T>
struct FixScratch {
  std::vector<T> kid_prefix, dirty;
  std::size_t written = 0;  ///< items stored into v and the children, summed over calls
  std::size_t forward_refills = 0;  ///< child refills that took refill()'s forward path

  /// Room for a discovery against a node of nv items.
  T* prefix_for(std::size_t nv) {
    if (kid_prefix.size() < nv) kid_prefix.resize(nv);
    return kid_prefix.data();
  }
};

template <typename T>
struct FixOutcome {
  std::size_t taken_l = 0;      ///< items pulled up from L (== fills returned)
  std::size_t taken_r = 0;      ///< items pulled up from R
  std::size_t items_moved = 0;  ///< total items written (work accounting)
};

namespace detail {

/// The exchange both repairs end with, once discovery has put the t child
/// items to pull up in s.kid_prefix[0, t) and child c's share in taken[c]. Saves
/// v's t largest as the fills, merges the kid prefix into v's kept part from
/// the back, then refills each child in `order` with the next taken[c]
/// fills (refill(): the child drops its taken prefix and merges the fills
/// in). Returns items moved.
template <typename T, typename Compare>
std::size_t exchange(std::span<T> sv, std::size_t t, std::span<NodeSlot<T>> children,
                     std::span<const std::size_t> order,
                     std::span<const std::size_t> taken, FixScratch<T>& s, Compare cmp) {
  const std::size_t nv = sv.size();
  s.dirty.assign(sv.begin() + static_cast<std::ptrdiff_t>(nv - t), sv.end());
  s.written +=
      merge_back_into(sv, nv - t, std::span<const T>(s.kid_prefix.data(), t), cmp);
  std::size_t moved = nv;

  std::size_t offset = 0;
  for (const std::size_t c : order) {
    const std::size_t k = taken[c];
    if (k == 0) continue;
    NodeSlot<T>& kid = children[c];
    s.written += refill(kid, std::span<const T>(s.dirty.data() + offset, k), cmp);
    // With k > 0 only the forward path leaves the head at the slot base.
    s.forward_refills += kid.head == 0;
    moved += kid.count;
    offset += k;
  }
  PH_ASSERT(offset == t);
  return moved;
}

}  // namespace detail

/// Repairs v against its children in place; the child slots `l`/`r` are
/// refilled in place (a child's head may move — the caller commits it). L
/// takes the lower slice of the fills, R the upper. Preconditions: all runs
/// sorted; the caller has already established that a violation exists.
template <typename T, typename Compare>
FixOutcome<T> fix_node(std::span<T> sv, NodeSlot<T>& l, NodeSlot<T>& r, FixScratch<T>& s,
                       Compare cmp) {
  const std::size_t nv = sv.size();
  const std::span<const T> sl = l.items();
  const std::span<const T> sr = r.items();
  const std::size_t nl = sl.size();
  const std::size_t nr = sr.size();
  PH_ASSERT(nv > 0);

  // Two-pointer exchange discovery: stream the children's merged prefix
  // against v's suffix (largest first). While both children have items the
  // pick is a branch-free select; once one runs out, the other streams alone.
  T* const kp = s.prefix_for(nv);
  std::size_t il = 0, ir = 0, t = 0;
  bool profitable = true;
  while (t < nv && il < nl && ir < nr) {
    // Tie-consistent: prefer L on ties (matches select_smallest3's order).
    const bool from_l = !cmp(sr[ir], sl[il]);
    const T* cand = from_l ? &sl[il] : &sr[ir];
    if (!cmp(*cand, sv[nv - 1 - t])) {  // no longer profitable: done
      profitable = false;
      break;
    }
    kp[t++] = *cand;
    il += from_l;
    ir += !from_l;
  }
  if (profitable) {
    const std::span<const T> rest = il < nl ? sl : sr;
    std::size_t& i = il < nl ? il : ir;
    while (t < nv && i < rest.size() && cmp(rest[i], sv[nv - 1 - t])) kp[t++] = rest[i++];
  }
  FixOutcome<T> out;
  out.taken_l = il;
  out.taken_r = ir;
  if (t == 0) return out;

  std::array<NodeSlot<T>, 2> kids{l, r};
  constexpr std::array<std::size_t, 2> kByIndex{0, 1};
  const std::array<std::size_t, 2> taken{il, ir};
  out.items_moved = detail::exchange(sv, t, std::span<NodeSlot<T>>(kids),
                                     std::span<const std::size_t>(kByIndex),
                                     std::span<const std::size_t>(taken), s, cmp);
  l = kids[0];
  r = kids[1];
  return out;
}

/// Generalization of fix_node to d ≥ 2 children (the d-ary parallel heap).
/// `children[c]` are the child slots (possibly empty; refilled in place),
/// `grandmins[c]` the minima one level below each child (nullptr when
/// none). Writes per-child taken counts and residual-violation flags;
/// returns items moved.
/// Fill routing: children are ranked by tolerance (their grandmin, with
/// "no grandchildren" most tolerant); less tolerant children take lower
/// slices of the displaced pool.
template <typename T, typename Compare>
std::size_t fix_node_multi(std::span<T> sv, std::span<NodeSlot<T>> children,
                           std::span<const T* const> grandmins,
                           std::span<std::size_t> taken_out,
                           std::span<bool> violates_out, FixScratch<T>& s,
                           Compare cmp) {
  const std::size_t nv = sv.size();
  const std::size_t d = children.size();
  PH_ASSERT(nv > 0 && d >= 2);
  PH_ASSERT(taken_out.size() == d && violates_out.size() == d && grandmins.size() == d);
  std::array<std::span<const T>, 16> kid{};
  PH_ASSERT(d <= kid.size());

  // Exchange discovery: d-way tournament over child heads vs v's suffix.
  T* const kp = s.prefix_for(nv);
  for (std::size_t c = 0; c < d; ++c) {
    kid[c] = children[c].items();
    taken_out[c] = 0;
    violates_out[c] = false;
  }
  std::size_t t = 0;
  while (t < nv) {
    std::size_t best = d;
    for (std::size_t c = 0; c < d; ++c) {
      if (taken_out[c] >= kid[c].size()) continue;
      if (best == d || cmp(kid[c][taken_out[c]], kid[best][taken_out[best]])) {
        best = c;
      }
    }
    if (best == d) break;  // all children exhausted
    const T& cand = kid[best][taken_out[best]];
    if (!cmp(cand, sv[nv - 1 - t])) break;
    kp[t++] = cand;
    ++taken_out[best];
  }
  if (t == 0) return 0;

  // Rank children by tolerance: ascending grandmin, nullptr (= unbounded)
  // last. Stable order keeps the operation deterministic.
  std::array<std::size_t, 16> order{};
  for (std::size_t c = 0; c < d; ++c) order[c] = c;
  std::stable_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(d),
                   [&](std::size_t a, std::size_t b) {
                     if (grandmins[a] == nullptr) return false;
                     if (grandmins[b] == nullptr) return true;
                     return cmp(*grandmins[a], *grandmins[b]);
                   });
  const std::size_t moved =
      detail::exchange(sv, t, children, std::span<const std::size_t>(order.data(), d),
                       std::span<const std::size_t>(taken_out.data(), d), s, cmp);
  for (std::size_t c = 0; c < d; ++c) {
    violates_out[c] = taken_out[c] > 0 && grandmins[c] != nullptr &&
                      cmp(*grandmins[c], children[c].items().back());
  }
  return moved;
}

}  // namespace ph
