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
//
// Two sorts. sort_run orders each cycle's batch of new items before it
// meets the root. Random keys interleave everywhere, so it does not gallop:
// its compares feed selects, not branches (see its comment). sort_in_place
// orders a bulk load (build, restore, a batch over 2r) without a batch-sized
// scratch: a quicksort whose partition also turns compares into data, not
// branches.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
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

namespace detail {

/// Puts b before a iff b sorts strictly before a: a select, not a branch,
/// and equal items keep their order.
template <typename T, typename Compare>
void order2(T& a, T& b, Compare cmp) {
  const bool swap = cmp(b, a);
  T lo = swap ? b : a;
  T hi = swap ? a : b;
  a = std::move(lo);
  b = std::move(hi);
}

/// Sorts a[0, n), n <= 4, with a fixed network of adjacent exchanges
/// (odd-even transposition). Only neighbours are exchanged, so equal items
/// never pass each other: the network is stable.
template <typename T, typename Compare>
void sort_small(T* a, std::size_t n, Compare cmp) {
  PH_DEBUG_ASSERT(n <= 4);
  if (n == 4) {
    order2(a[0], a[1], cmp);
    order2(a[2], a[3], cmp);
    order2(a[1], a[2], cmp);
    order2(a[0], a[1], cmp);
    order2(a[2], a[3], cmp);
    order2(a[1], a[2], cmp);
  } else if (n == 3) {
    order2(a[0], a[1], cmp);
    order2(a[1], a[2], cmp);
    order2(a[0], a[1], cmp);
  } else if (n == 2) {
    order2(a[0], a[1], cmp);
  }
}

/// Quadsort's parity merge: writes the stable merge of the adjacent sorted
/// runs src[0, h) and src[h, n), h = n / 2, to dst[0, n) (no overlap). A
/// front chain emits the ⌈n/2⌉ smallest items, ties to the left run, while
/// a back chain emits the ⌊n/2⌋ largest, ties to the right run; every step
/// is a select, with no bounds check. Before its last step a chain has
/// emitted fewer items than either run holds, so both its cursors are in
/// their runs. The one exception is the front chain for odd n: it may have
/// used up the left run, whose cursor then sits at src + h, where the right
/// cursor still points, so the select returns that item. Hence the
/// precondition that the runs be adjacent and split exactly at n / 2.
template <typename T, typename Compare>
void parity_merge(const T* src, std::size_t n, T* dst, Compare cmp) {
  PH_DEBUG_ASSERT(n >= 2);
  const std::size_t h = n / 2;
  const T* l = src;           // front cursors
  const T* r = src + h;
  const T* lb = src + h - 1;  // back cursors
  const T* rb = src + n - 1;
  T* out = dst;
  T* out_b = dst + n - 1;
  auto front = [&] {
    const bool left = !cmp(*r, *l);
    *out++ = left ? *l : *r;
    l += left;
    r += !left;
  };
  auto back = [&] {
    const bool left = cmp(*rb, *lb);
    *out_b-- = left ? *lb : *rb;
    lb -= left;
    rb -= !left;
  };
  if (n & 1) front();
  for (std::size_t s = 1; s < h; ++s) {
    front();
    back();
  }
  *out = !cmp(*r, *l) ? *l : *r;
  *out_b = cmp(*rb, *lb) ? *lb : *rb;
}

/// Merge sort of a[0, n) whose result lands in a (to_t false) or in t
/// (to_t true); the other buffer holds the halves. Each level writes the
/// buffer the level above reads, so nothing is copied back.
template <typename T, typename Compare>
void sort_pingpong(T* a, T* t, std::size_t n, bool to_t, Compare cmp) {
  if (n <= 4) {
    sort_small(a, n, cmp);
    if (to_t) std::copy(a, a + n, t);
    return;
  }
  const std::size_t h = n / 2;
  sort_pingpong(a, t, h, !to_t, cmp);
  sort_pingpong(a + h, t + h, n - h, !to_t, cmp);
  if (to_t) {
    parity_merge(a, n, t, cmp);
  } else {
    parity_merge(t, n, a, cmp);
  }
}

}  // namespace detail

/// Stable sort of `a`, using `scratch` (at least |a| items; its contents are
/// clobbered). An already sorted `a` costs one is_sorted_run pass. Otherwise
/// a top-down merge sort: halves of ⌊n/2⌋ and ⌈n/2⌉ items, a stable
/// four-item network at the leaves, and parity_merge at every level, whose
/// compares pick items by select instead of by branch. std::sort's branches
/// mispredict on random keys; this kernel's control flow does not depend
/// on them.
/// For a total order the result equals std::sort's.
template <typename T, typename Compare>
void sort_run(std::span<T> a, std::span<T> scratch, Compare cmp) {
  PH_ASSERT(scratch.size() >= a.size());
  if (is_sorted_run(std::span<const T>(a), cmp)) return;
  detail::sort_pingpong(a.data(), scratch.data(), a.size(), false, cmp);
}

namespace detail {

/// Ranges of at most this many items are insertion-sorted.
inline constexpr std::size_t kQuicksortSmall = 24;
/// Above this many items the pivot is Tukey's ninther, not a median of 3.
inline constexpr std::size_t kQuicksortNinther = 128;
/// Items scanned per offset block of the block partition (offsets fit a byte).
inline constexpr std::size_t kQuicksortBlock = 64;

/// Insertion sort of a[0, n). Unguarded (`guarded` false), the caller
/// promises that a[-1] exists and sorts no later than any item of a[0, n),
/// so the shift loop needs no bounds check.
template <typename T, typename Compare>
void insertion_sort(T* a, std::size_t n, bool guarded, Compare cmp) {
  for (std::size_t i = 1; i < n; ++i) {
    if (!cmp(a[i], a[i - 1])) continue;
    T x = std::move(a[i]);
    T* hole = a + i;
    do {
      *hole = std::move(hole[-1]);
      --hole;
    } while ((!guarded || hole != a) && cmp(x, hole[-1]));
    *hole = std::move(x);
  }
}

/// Orders a <= b <= c with three selects.
template <typename T, typename Compare>
void sort3(T& a, T& b, T& c, Compare cmp) {
  order2(a, b, cmp);
  order2(b, c, cmp);
  order2(a, b, cmp);
}

/// Moves a pivot to a[0], n > kQuicksortSmall: the median of the first,
/// middle and last items, or for n > kQuicksortNinther the median of three
/// such medians. Either way some item of a[1, n) sorts no earlier than the
/// pivot and, unless the pivot is a minimum, some item sorts before it.
template <typename T, typename Compare>
void choose_pivot(T* a, std::size_t n, Compare cmp) {
  const std::size_t h = n / 2;
  if (n > kQuicksortNinther) {
    sort3(a[0], a[h], a[n - 1], cmp);
    sort3(a[1], a[h - 1], a[n - 2], cmp);
    sort3(a[2], a[h + 1], a[n - 3], cmp);
    sort3(a[h - 1], a[h], a[h + 1], cmp);
    std::swap(a[0], a[h]);
  } else {
    sort3(a[h], a[0], a[n - 1], cmp);
  }
}

/// Exchanges the num misplaced items named by the offset blocks: the i-th
/// left offset (from `left`) with the i-th right one (back from `right`).
/// With blocks of unequal fill the exchanges form one cycle of moves, a
/// third of the writes of swaps; equal fills keep plain swaps, which a
/// descending input needs to stay linear.
template <typename T>
void swap_offsets(T* left, T* right, const std::uint8_t* off_l, const std::uint8_t* off_r,
                  std::size_t num, bool use_swaps) {
  if (use_swaps) {
    for (std::size_t i = 0; i < num; ++i) std::swap(left[off_l[i]], *(right - off_r[i]));
    return;
  }
  if (num == 0) return;
  T* l = left + off_l[0];
  T* r = right - off_r[0];
  T tmp = std::move(*l);
  *l = std::move(*r);
  for (std::size_t i = 1; i < num; ++i) {
    l = left + off_l[i];
    *r = std::move(*l);
    r = right - off_r[i];
    *l = std::move(*r);
  }
  *r = std::move(tmp);
}

/// BlockQuicksort's partition (Edelkamp & Weiß) around the pivot at a[0]:
/// afterwards a[0, p) sorts before the pivot, a[p] is the pivot and
/// a[p + 1, n) sorts no earlier. Each side scans a block of up to 64 items
/// and records, as a byte offset, every item on the wrong side: the compare
/// only adds to a count, so its outcome steers no branch. The recorded
/// items are then exchanged pairwise. Returns p.
template <typename T, typename Compare>
std::size_t partition_block(T* a, std::size_t n, Compare cmp) {
  const T pivot = a[0];
  T* first = a;
  T* last = a + n;
  // choose_pivot left an item >= pivot to the right, so this scan stops.
  while (cmp(*++first, pivot)) {
  }
  // If that scan stopped at a[1], no item < pivot need lie left of it, so
  // this scan needs a bound; otherwise a[1] stops it.
  if (first - 1 == a) {
    while (first < last && !cmp(*--last, pivot)) {
    }
  } else {
    while (!cmp(*--last, pivot)) {
    }
  }
  if (first < last) {
    std::swap(*first, *last);
    ++first;
    alignas(64) std::uint8_t off_l[kQuicksortBlock];
    alignas(64) std::uint8_t off_r[kQuicksortBlock];
    T* base_l = first;  // offsets in off_l count from here
    T* base_r = last;   // ... and in off_r back from here
    std::size_t num_l = 0, num_r = 0, start_l = 0, start_r = 0;
    while (first < last) {
      // Refill whichever block is used up; split the unknown middle when
      // both are, so neither scan passes the other.
      const auto unknown = static_cast<std::size_t>(last - first);
      const std::size_t split_l = num_l == 0 ? (num_r == 0 ? unknown / 2 : unknown) : 0;
      const std::size_t split_r = num_r == 0 ? unknown - split_l : 0;
      const std::size_t scan_l = std::min(split_l, kQuicksortBlock);
      for (std::size_t i = 0; i < scan_l; ++i) {
        off_l[num_l] = static_cast<std::uint8_t>(i);
        num_l += !cmp(*first, pivot);
        ++first;
      }
      const std::size_t scan_r = std::min(split_r, kQuicksortBlock);
      for (std::size_t i = 1; i <= scan_r; ++i) {
        off_r[num_r] = static_cast<std::uint8_t>(i);
        num_r += cmp(*--last, pivot);
      }
      const std::size_t num = std::min(num_l, num_r);
      swap_offsets(base_l, base_r, off_l + start_l, off_r + start_r, num, num_l == num_r);
      num_l -= num;
      num_r -= num;
      start_l += num;
      start_r += num;
      if (num_l == 0) {
        start_l = 0;
        base_l = first;
      }
      if (num_r == 0) {
        start_r = 0;
        base_r = last;
      }
    }
    // At most one block still holds misplaced items; move them to the
    // boundary (first == last here), farthest offset first.
    while (num_l > 0) {
      --num_l;
      --first;
      std::swap(base_l[off_l[start_l + num_l]], *first);
    }
    while (num_r > 0) {
      --num_r;
      std::swap(*(base_r - off_r[start_r + num_r]), *first);
      ++first;
    }
  }
  T* const pos = first - 1;
  a[0] = std::move(*pos);
  *pos = pivot;
  return static_cast<std::size_t>(pos - a);
}

/// pdqsort's partition for a pivot equal to a[-1], the pivot of an
/// enclosing partition (so no item of a[0, n) sorts before it): items equal
/// to the pivot go left, larger ones right. Returns the pivot's final index
/// p; a[0, p] are all equal and need no further sorting.
template <typename T, typename Compare>
std::size_t partition_equal(T* a, std::size_t n, Compare cmp) {
  const T pivot = a[0];
  T* first = a;
  T* last = a + n;
  // a[0] still holds the pivot, so this scan stops there at the latest.
  while (cmp(pivot, *--last)) {
  }
  if (last + 1 == a + n) {
    while (first < last && !cmp(pivot, *++first)) {
    }
  } else {
    while (!cmp(pivot, *++first)) {
    }
  }
  while (first < last) {
    std::swap(*first, *last);
    while (cmp(pivot, *--last)) {
    }
    while (!cmp(pivot, *++first)) {
    }
  }
  a[0] = std::move(*last);
  *last = pivot;
  return static_cast<std::size_t>(last - a);
}

/// Quicksort of a[0, n) with `depth` partition levels left before heapsort
/// takes over. `leftmost` is false when a[-1] is an enclosing pivot, which
/// bounds the range from below: it guards the insertion sort, and a pivot
/// equal to it selects the equal-key partition.
template <typename T, typename Compare>
void quicksort(T* a, std::size_t n, std::size_t depth, bool leftmost, Compare cmp) {
  while (n > kQuicksortSmall) {
    if (depth == 0) {  // heapsort
      std::make_heap(a, a + n, cmp);
      for (std::size_t m = n; m > 1; --m) std::pop_heap(a, a + m, cmp);
      return;
    }
    --depth;
    choose_pivot(a, n, cmp);
    if (!leftmost && !cmp(a[-1], a[0])) {
      const std::size_t p = partition_equal(a, n, cmp) + 1;
      a += p;
      n -= p;
      continue;
    }
    const std::size_t p = partition_block(a, n, cmp);
    quicksort(a, p, depth, leftmost, cmp);
    a += p + 1;
    n -= p + 1;
    leftmost = false;
  }
  insertion_sort(a, n, leftmost, cmp);
}

}  // namespace detail

/// Sorts `a` in place, unstably, allocating nothing: for bulk loads, where
/// sort_run's |a|-item scratch would cost memory. An already sorted `a`
/// costs one is_sorted_run pass. Otherwise a quicksort: BlockQuicksort's
/// branch-free block partition (Edelkamp & Weiß, arXiv:1604.06697) around a
/// median-of-3 or ninther pivot, with three parts of pdqsort (Peters,
/// arXiv:2106.05123): the partition that gathers keys equal to an enclosing
/// pivot, so runs of equal keys cost linear time; insertion sort at most
/// kQuicksortSmall items; and heapsort past 2·log2(n) partition levels, so
/// no input costs more than O(n log n).
template <typename T, typename Compare>
void sort_in_place(std::span<T> a, Compare cmp) {
  if (is_sorted_run(std::span<const T>(a), cmp)) return;
  const auto depth = 2 * static_cast<std::size_t>(std::bit_width(a.size()));
  detail::quicksort(a.data(), a.size(), depth, true, cmp);
}

/// Sorts a cycle's batch of new items. Up to `limit` items go through
/// sort_run, with `scratch` grown to the batch (a heap passes its root-merge
/// buffer, which the merge then grows to |root| + |batch| anyway, and
/// limit = 2r). A longer batch is a bulk load and goes through
/// sort_in_place, so it needs no batch-sized scratch.
template <typename T, typename Compare>
void sort_batch(std::vector<T>& batch, std::vector<T>& scratch, std::size_t limit,
                Compare cmp) {
  if (batch.size() > limit) {
    sort_in_place(std::span<T>(batch), cmp);
    return;
  }
  if (scratch.size() < batch.size()) scratch.resize(batch.size());
  sort_run(std::span<T>(batch), std::span<T>(scratch), cmp);
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
