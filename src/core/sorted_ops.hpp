// Sorted-run kernels.
//
// Every maintenance step of a parallel heap is a merge of small sorted runs:
// insert-update merges the carried set with a node; delete-update selects the
// smallest |v| items of v ∪ left ∪ right and redistributes the leftovers.
// These kernels are the entire inner loop of the data structure, so they are
// kept free of allocation (callers supply output storage) and of virtual
// dispatch.
//
// The two-run merges gallop. A node merge typically folds a dozen items
// into ~r, so the runs interleave only a few times; once one side has won
// kMinGallop times in a row, the rest of its run is found with an
// exponential-then-binary search and copied whole (TimSort's rule). A merge
// then costs about its interleavings plus one block copy; fully interleaved
// runs rarely reach the threshold and keep item-by-item cost.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace ph {

/// True iff `s` is sorted ascending under `cmp` (i.e. no cmp(s[i+1], s[i])).
template <typename T, typename Compare>
bool is_sorted_run(std::span<const T> s, Compare cmp) {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (cmp(s[i], s[i - 1])) return false;
  }
  return true;
}

/// Wins in a row after which a merge stops comparing item by item and
/// searches for the end of the winning side's run.
inline constexpr std::size_t kMinGallop = 7;

namespace detail {

/// Length of the prefix of [first, first + n) on which `pred` holds (`pred`
/// is true, then false, along the range). Exponential then binary search:
/// O(log k) compares for an answer k.
template <typename It, typename Pred>
std::size_t gallop(It first, std::size_t n, Pred pred) {
  std::size_t lo = 0;   // pred holds on [0, lo)
  std::size_t ofs = 1;  // next probe at ofs - 1
  while (ofs <= n && pred(first[static_cast<std::ptrdiff_t>(ofs - 1)])) {
    lo = ofs;
    ofs = 2 * ofs + 1;
  }
  const std::size_t hi = std::min(ofs - 1, n);  // pred fails at hi (or hi == n)
  return static_cast<std::size_t>(
      std::partition_point(first + static_cast<std::ptrdiff_t>(lo),
                           first + static_cast<std::ptrdiff_t>(hi), pred) -
      first);
}

/// Copies [src, src + k) to out, which may overlap it from the front
/// (out <= src); returns the end of the written range.
template <typename T>
T* copy_down(const T* src, std::size_t k, T* out) {
  if (out == src) return out + k;
  return std::copy(src, src + k, out);
}

}  // namespace detail

/// Emits the next `n` items of the stable merge of a[i, |a|) and b[j, |b|)
/// to `out`, advancing the cursors `i` and `j`; returns the end of the
/// written range. Ties take `a` first. The output may alias `a` provided
/// out + (|b| - j) <= a.data() + i on entry: then no write reaches an unread
/// item of `a` (the in-place refill of a run from its own suffix,
/// out == a.data() with i == |b| and j == 0, is the edge case). It must not
/// alias `b`. When `written` is given, adds the items actually stored: an
/// aliased tail of `a` that is already in place is skipped, not counted.
template <typename T, typename Compare>
T* merge_n(std::span<const T> a, std::size_t& i, std::span<const T> b,
           std::size_t& j, std::size_t n, T* out, Compare cmp,
           std::size_t* written = nullptr) {
  PH_ASSERT(i <= a.size() && j <= b.size() && n <= a.size() - i + b.size() - j);
  T* const first = out;
  std::size_t a_wins = 0, b_wins = 0;
  while (n > 0 && i < a.size() && j < b.size()) {
    if (cmp(b[j], a[i])) {
      *out++ = b[j++];
      --n;
      a_wins = 0;
      if (++b_wins == kMinGallop) {
        // b's run: every item strictly before a[i].
        const T& head = a[i];
        const std::size_t k =
            detail::gallop(b.data() + j, std::min(n, b.size() - j),
                           [&](const T& x) { return cmp(x, head); });
        out = std::copy(b.data() + j, b.data() + j + k, out);
        j += k;
        n -= k;
        b_wins = 0;
      }
    } else {
      *out++ = a[i++];
      --n;
      b_wins = 0;
      if (++a_wins == kMinGallop) {
        // a's run: every item not after b[j] (ties stay with a).
        const T& head = b[j];
        const std::size_t k =
            detail::gallop(a.data() + i, std::min(n, a.size() - i),
                           [&](const T& x) { return !cmp(head, x); });
        out = detail::copy_down(a.data() + i, k, out);
        i += k;
        n -= k;
        a_wins = 0;
      }
    }
  }
  const std::size_t ka = std::min(n, a.size() - i);
  // Only this copy can find `a`'s rest already in place (out == a + i with
  // b used up); the gallop above runs while b still has unread items.
  const bool in_place = out == a.data() + i;
  out = detail::copy_down(a.data() + i, ka, out);
  i += ka;
  n -= ka;
  out = std::copy(b.data() + j, b.data() + j + n, out);
  j += n;
  if (written != nullptr) {
    *written += static_cast<std::size_t>(out - first) - (in_place ? ka : 0);
  }
  return out;
}

/// In-place stable merge: buf[0, na) is sorted and buf has room for
/// na + |b| items; merges `b` in from the back so that buf[0, na + |b|) is
/// sorted, with ties keeping buf's items first. Items of buf before the
/// first insertion point never move. `b` must not alias buf. Returns the
/// items written: buf's moved suffix plus all of `b`.
template <typename T, typename Compare>
std::size_t merge_back_into(std::span<T> buf, std::size_t na, std::span<const T> b,
                     Compare cmp) {
  PH_ASSERT(na + b.size() <= buf.size());
  std::size_t i = na, j = b.size();  // unread: buf[0, i) and b[0, j)
  T* out = buf.data() + na + j;      // write cursor, filled downward
  std::size_t a_wins = 0, b_wins = 0;
  while (i > 0 && j > 0) {
    if (cmp(b[j - 1], buf[i - 1])) {
      *--out = buf[--i];
      b_wins = 0;
      if (++a_wins == kMinGallop) {
        // buf's run from the back: every item strictly after b[j - 1].
        const T& head = b[j - 1];
        const std::size_t k =
            detail::gallop(std::make_reverse_iterator(buf.data() + i), i,
                           [&](const T& x) { return cmp(head, x); });
        out = std::copy_backward(buf.data() + i - k, buf.data() + i, out);
        i -= k;
        a_wins = 0;
      }
    } else {
      *--out = b[--j];
      a_wins = 0;
      if (++b_wins == kMinGallop) {
        // b's run from the back: every item not before buf[i - 1].
        const T& head = buf[i - 1];
        const std::size_t k =
            detail::gallop(std::make_reverse_iterator(b.data() + j), j,
                           [&](const T& x) { return !cmp(x, head); });
        out = std::copy_backward(b.data() + j - k, b.data() + j, out);
        j -= k;
        b_wins = 0;
      }
    }
  }
  // buf[0, i) is already in place; only b's remainder is left to write.
  std::copy(b.data(), b.data() + j, buf.data());
  return na + b.size() - i;
}

/// Stable two-way merge of sorted runs `a` and `b`, appended to `out`.
/// Ties keep `a`'s elements first.
template <typename T, typename Compare>
void merge2(std::span<const T> a, std::span<const T> b, std::vector<T>& out,
            Compare cmp) {
  const std::size_t base = out.size();
  const std::size_t n = a.size() + b.size();
  out.resize(base + n);
  std::size_t i = 0, j = 0;
  merge_n(a, i, b, j, n, out.data() + base, cmp);
}

/// Result of a three-way smallest-k selection: how many items were taken
/// from the prefix of each input run (taken[0] + taken[1] + taken[2] == k).
using Take3 = std::array<std::size_t, 3>;

/// Selects the `k` smallest items of the union of three sorted runs,
/// appending them in sorted order to `out`. Returns the per-run prefix
/// lengths consumed. Ties are resolved in run order (a, then b, then c),
/// which makes the operation deterministic.
template <typename T, typename Compare>
Take3 select_smallest3(std::span<const T> a, std::span<const T> b,
                       std::span<const T> c, std::size_t k, std::vector<T>& out,
                       Compare cmp) {
  PH_ASSERT(k <= a.size() + b.size() + c.size());
  Take3 taken{0, 0, 0};
  out.reserve(out.size() + k);
  for (std::size_t n = 0; n < k; ++n) {
    // Pick the smallest current head among the three runs.
    int best = -1;
    for (int run = 0; run < 3; ++run) {
      const std::span<const T>& s = run == 0 ? a : (run == 1 ? b : c);
      if (taken[static_cast<std::size_t>(run)] >= s.size()) continue;
      if (best < 0) {
        best = run;
        continue;
      }
      const std::span<const T>& bs = best == 0 ? a : (best == 1 ? b : c);
      if (cmp(s[taken[static_cast<std::size_t>(run)]],
              bs[taken[static_cast<std::size_t>(best)]])) {
        best = run;
      }
    }
    PH_ASSERT(best >= 0);
    const std::span<const T>& s = best == 0 ? a : (best == 1 ? b : c);
    out.push_back(s[taken[static_cast<std::size_t>(best)]]);
    ++taken[static_cast<std::size_t>(best)];
  }
  return taken;
}

/// Merge `a` and `b`, writing the `keep` smallest into `kept` and the rest
/// into `rest` (both appended; both outputs sorted). This is the node-local
/// step of insert-update: the node keeps its `r` smallest, the remainder is
/// carried down.
template <typename T, typename Compare>
void merge2_split(std::span<const T> a, std::span<const T> b, std::size_t keep,
                  std::vector<T>& kept, std::vector<T>& rest, Compare cmp) {
  PH_ASSERT(keep <= a.size() + b.size());
  const std::size_t spill = a.size() + b.size() - keep;
  const std::size_t kept_base = kept.size();
  const std::size_t rest_base = rest.size();
  kept.resize(kept_base + keep);
  rest.resize(rest_base + spill);
  std::size_t i = 0, j = 0;
  merge_n(a, i, b, j, keep, kept.data() + kept_base, cmp);
  merge_n(a, i, b, j, spill, rest.data() + rest_base, cmp);
}

/// K-way tournament over the heads of sorted runs: takes up to `k` items in
/// ascending order, ties going to the lowest run index, and returns how many
/// it took. `taken[i]` is run i's cursor: the tournament starts at
/// runs[i][taken[i]] and adds what it takes from run i, so callers zero it
/// for a fresh merge and read per-run take counts from it afterwards. The
/// items are appended to `*out` when `out` is non-null. A linear head scan,
/// which is optimal for the small fan-ins used here; once a single run
/// still has items, the rest of what it owes (up to k) is taken in one bulk
/// copy instead of a scan per item. Allocates nothing beyond `out`'s growth.
template <typename T, typename Compare>
std::size_t merge_k(std::span<const std::span<const T>> runs, std::size_t k,
                    std::span<std::size_t> taken, std::vector<T>* out,
                    Compare cmp) {
  PH_ASSERT(taken.size() >= runs.size());
  const std::size_t none = runs.size();
  std::size_t n = 0;
  for (; n < k; ++n) {
    std::size_t best = none, live = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (taken[i] >= runs[i].size()) continue;
      ++live;
      if (best == none || cmp(runs[i][taken[i]], runs[best][taken[best]])) best = i;
    }
    if (best == none) break;
    if (live == 1) {
      const std::size_t m = std::min(k - n, runs[best].size() - taken[best]);
      if (out != nullptr) {
        const auto rest = runs[best].subspan(taken[best], m);
        out->insert(out->end(), rest.begin(), rest.end());
      }
      taken[best] += m;
      return n + m;
    }
    if (out != nullptr) out->push_back(runs[best][taken[best]]);
    ++taken[best];
  }
  return n;
}

}  // namespace ph
