// ParallelHeap — the data structure of Deo & Prasad, "Parallel Heap: An
// Optimal Parallel Priority Queue" (ICPP 1990), with *synchronous*
// maintenance: every insert-update and delete-update process initiated by an
// operation is run to quiescence before the operation returns.
//
// Structure. A complete d-ary tree of nodes (d = 2, the paper's binary
// shape, unless configured otherwise; node i's children are d·i+1 … d·i+d).
// Each node holds up to r items ("node capacity"), kept sorted ascending
// under Compare. Only the last node may hold fewer than r items.
// The PARALLEL HEAP CONDITION: every item of a node precedes-or-equals every
// item of each child (max(node) ≤ min(child)). Hence the root node holds
// exactly the r smallest items of the whole heap, already sorted — a batch
// delete-min of up to r items is O(1) plus repair.
//
// Maintenance.
//  * insert-update: a sorted carried set travels from the root along the
//    ancestor path of the tail (target) node; each full node on the path
//    keeps the r smallest of (node ∪ carried), the remainder is carried
//    down; the survivors land in the target node. Single path, O(r) work
//    per level.
//  * delete-update: after the root batch is deleted, substitute items taken
//    from the heap's tail refill the root, violating the condition. Repair
//    at node v selects the smallest |v| items of v ∪ left ∪ right; leftover
//    items that originated in a child return to that child; displaced
//    substitute ("dirty") items fill the children's vacancies by count, and
//    the repair recurses exactly into the children that received dirty
//    items. Dirty volume is conserved across a level (≤ r per deletion),
//    which is the property that makes the pipelined variant
//    (pipelined_heap.hpp) schedulable level by level.
//
// This synchronous variant is the semantic reference: it is oracle-tested
// against a sorted multiset, and the pipelined/engine variants are
// differential-tested against it.
//
// Requirements on T: copyable and default-constructible (the node arena,
// core/node_arena.hpp, is a contiguous std::vector<T> of fixed-stride
// slots). Compare must be a strict weak order; the heap is a min-heap under
// Compare. Batch operations are deterministic: ties are broken by run
// order, so two heaps fed identical operation sequences hold identical
// nodes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/node_arena.hpp"
#include "core/node_fix.hpp"
#include "core/sorted_ops.hpp"
#include "util/assert.hpp"

namespace ph {

/// Operation counters exposed for the hardware-independent scalability
/// analysis (see DESIGN.md §2): `span_*` counters accumulate the critical
/// path, i.e. the deepest chain of node repairs per operation, while the
/// plain counters accumulate total work.
struct HeapStats {
  std::uint64_t cycles = 0;            ///< combined insert+delete cycles run
  std::uint64_t items_deleted = 0;     ///< items handed to callers
  std::uint64_t items_inserted = 0;    ///< items accepted from callers
  std::uint64_t nodes_touched = 0;     ///< node repairs + path merges
  std::uint64_t items_merged = 0;      ///< total merged items across repairs
  /// Items stored into node slots by maintenance: merges, copies and
  /// compactions that write the arena (scratch runs and bulk loads excluded).
  std::uint64_t items_written = 0;
  /// Delete-update refills that rewrote a child from its slot base: the
  /// child had no room behind its items (node_arena.hpp, refill()).
  std::uint64_t forward_refills = 0;
  std::uint64_t delete_procs = 0;      ///< delete-update node services
  std::uint64_t insert_procs = 0;      ///< insert-update node services
  std::uint64_t substitutes = 0;       ///< items pulled from the tail to refill
  std::uint64_t span_levels = 0;       ///< sum over ops of deepest level repaired
  std::uint64_t span_items = 0;        ///< sum over ops of critical-path items merged
  std::uint64_t proc_splits = 0;       ///< delete-updates that branched into both children
};

template <typename T, typename Compare = std::less<T>>
class ParallelHeap {
 public:
  /// Creates an empty heap whose nodes hold up to `node_capacity` (r ≥ 1)
  /// items. r is the batch width: a delete batch returns up to r items and
  /// maintenance work per level is O(r). `arity` is the node fan-out —
  /// 2 reproduces the paper's binary parallel heap; larger fan-outs
  /// shorten the tree at the cost of wider repair merges (ablated in
  /// bench_arity).
  explicit ParallelHeap(std::size_t node_capacity, Compare cmp = Compare(),
                        std::size_t arity = 2)
      : r_(node_capacity), arity_(arity), cmp_(std::move(cmp)), arena_(node_capacity) {
    PH_ASSERT_MSG(arity_ >= 2 && arity_ <= kMaxArity, "arity must be in [2, 16]");
  }

  std::size_t arity() const noexcept { return arity_; }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t node_capacity() const noexcept { return r_; }

  /// Number of nodes currently holding items.
  std::size_t num_nodes() const noexcept { return (size_ + r_ - 1) / r_; }

  /// Depth of the node tree (levels of nodes; 0 for an empty heap).
  std::size_t levels() const noexcept {
    const std::size_t m = num_nodes();
    return m == 0 ? 0 : level_of(m - 1) + 1;
  }

  /// The global minimum. Precondition: !empty().
  const T& min() const {
    PH_ASSERT(!empty());
    return arena_.span(0).front();
  }

  /// The current root batch: the min(size, r) smallest items, sorted.
  std::span<const T> root_batch() const noexcept { return arena_.span(0); }

  void clear() noexcept {
    size_ = 0;
    arena_.clear();
  }

  /// Preallocates arena capacity for `items` items.
  void reserve(std::size_t items) { arena_.reserve(round_up_nodes(items)); }

  /// Replaces the content with `items` in one O(n log n) bulk load: after
  /// sorting, a breadth-first layout (node 0 gets the smallest r, node 1 the
  /// next r, …) satisfies the parallel heap condition outright, since every
  /// item of node i precedes every item of any node j > i.
  void build(std::span<const T> items) {
    arena_.build(items, cmp_);
    size_ = items.size();
    stats_.items_inserted += items.size();
  }

  /// Inserts all of `items` (any size, any order). Cost O((|items|/r + 1) ·
  /// r log n) — one root-to-tail path per node-aligned chunk.
  void insert_batch(std::span<const T> items) {
    if (items.empty()) return;
    sort_buf_.assign(items.begin(), items.end());
    sort_batch(sort_buf_, merged_, 2 * r_, cmp_);
    insert_sorted_chunks(sort_buf_);
    stats_.items_inserted += items.size();
  }

  /// Removes the k smallest items of the heap, appending them in ascending
  /// order to `out`. k may exceed r (processed in r-sized cycles) and may
  /// exceed size() (stops when empty). Returns the number removed.
  std::size_t delete_min_batch(std::size_t k, std::vector<T>& out) {
    std::size_t removed = 0;
    while (removed < k && size_ > 0) {
      removed += cycle({}, std::min({k - removed, r_, size_}), out);
    }
    return removed;
  }

  /// One combined insert-delete cycle, the paper's primitive: removes the
  /// `k` (≤ r) smallest items of (heap ∪ new_items), appending them sorted
  /// to `out`, and inserts the rest of new_items. This is cheaper than
  /// insert_batch + delete_min_batch because new items are merged at the
  /// root before any of them travel down. Returns the number deleted
  /// (< k only if the heap and new_items together held fewer).
  std::size_t cycle(std::span<const T> new_items, std::size_t k, std::vector<T>& out) {
    PH_ASSERT_MSG(k <= r_, "cycle(): k must not exceed the node capacity r");
    ++stats_.cycles;
    stats_.items_inserted += new_items.size();
    new_buf_.assign(new_items.begin(), new_items.end());
    // The same batch sort as the pipelined heap's root work; merged_ is its
    // scratch until the root merge below.
    sort_batch(new_buf_, merged_, 2 * r_, cmp_);

    const std::size_t span_items_before = stats_.items_merged;

    if (size_ == 0) {
      const std::size_t take = std::min(k, new_buf_.size());
      out.insert(out.end(), new_buf_.begin(),
                 new_buf_.begin() + static_cast<std::ptrdiff_t>(take));
      stats_.items_deleted += take;
      if (take < new_buf_.size()) {
        sort_buf_.assign(new_buf_.begin() + static_cast<std::ptrdiff_t>(take),
                         new_buf_.end());
        insert_sorted_chunks(sort_buf_);
      }
      return take;
    }

    const std::size_t root_cnt = arena_.count(0);
    const std::size_t below = size_ - root_cnt;

    // Merge the sorted new items with the root. Because the parallel heap
    // condition holds, root ∪ new_items contains the global k smallest.
    merged_.clear();
    merge2(std::span<const T>(arena_.span(0)), std::span<const T>(new_buf_), merged_, cmp_);
    const std::size_t take = std::min(k, merged_.size());
    // take < k is only possible when the whole heap fits in the root.
    PH_ASSERT(take == k || below == 0);
    out.insert(out.end(), merged_.begin(),
               merged_.begin() + static_cast<std::ptrdiff_t>(take));
    stats_.items_deleted += take;

    const std::size_t rest = merged_.size() - take;
    const std::size_t new_total = size_ + new_buf_.size() - take;
    const std::size_t new_root_cnt = std::min(r_, new_total);
    auto rest_span = std::span<const T>(merged_).subspan(take);

    if (rest >= new_root_cnt) {
      // Enough survivors at the root; the overflow travels down as inserts.
      std::copy(rest_span.begin(), rest_span.begin() + static_cast<std::ptrdiff_t>(new_root_cnt),
                arena_.reset(0, new_root_cnt));
      stats_.items_written += new_root_cnt;
      size_ = below + new_root_cnt;
      if (rest > new_root_cnt) {
        sort_buf_.assign(rest_span.begin() + static_cast<std::ptrdiff_t>(new_root_cnt),
                         rest_span.end());
        insert_sorted_chunks(sort_buf_);
      }
    } else {
      // Root is short: refill with substitutes from the heap's tail, exactly
      // as the paper's deletion does ("get substitute items from the last
      // node, if needed").
      const std::size_t need = new_root_cnt - rest;
      PH_ASSERT(need <= below);
      subs_.clear();
      take_tail(need, subs_);
      stats_.substitutes += need;
      std::size_t i = 0, j = 0;
      merge_n(rest_span, i, std::span<const T>(subs_), j, new_root_cnt,
              arena_.reset(0, new_root_cnt), cmp_);
      stats_.items_written += new_root_cnt;
      size_ = (below - need) + new_root_cnt;
    }
    // Repair the parallel heap condition at the root (new items and
    // substitutes may exceed the children).
    delete_update(0);

    stats_.span_items += stats_.items_merged - span_items_before;
    return take;
  }

  /// Single-item convenience (maps to a batch of one; for drop-in use where
  /// a scalar priority-queue interface is expected — O(r log n), so prefer
  /// the batch API in performance-sensitive code).
  void push(const T& v) { insert_batch(std::span<const T>(&v, 1)); }

  /// Removes and returns the minimum. Precondition: !empty().
  T pop() {
    PH_ASSERT(!empty());
    one_.clear();
    cycle({}, 1, one_);
    return one_.front();
  }

  /// Verifies every structural invariant: node sortedness, the parallel
  /// heap condition between every parent/child pair, and the "all nodes full
  /// except the last" occupancy rule. O(n). Returns false and fills `why`
  /// on the first violation.
  bool check_invariants(std::string* why = nullptr) const {
    const std::size_t m = num_nodes();
    for (std::size_t i = 0; i < m; ++i) {
      const auto s = arena_.span(i);
      if (i + 1 < m && s.size() != r_) {
        return fail(why, "non-last node " + std::to_string(i) + " is not full");
      }
      if (i + 1 == m && s.size() != size_ - i * r_) {
        return fail(why, "last node " + std::to_string(i) + " holds " +
                             std::to_string(s.size()) + " items, not " +
                             std::to_string(size_ - i * r_));
      }
      if (!is_sorted_run(s, cmp_)) {
        return fail(why, "node " + std::to_string(i) + " is not sorted");
      }
      for (std::size_t c = arity_ * i + 1; c < arity_ * i + 1 + arity_; ++c) {
        const auto cs = arena_.span(c);
        if (c >= m || cs.empty()) continue;
        if (cmp_(cs.front(), s.back())) {
          return fail(why, "heap condition violated between node " +
                               std::to_string(i) + " and child " + std::to_string(c));
        }
      }
    }
    return true;
  }

  /// Copies out the entire content in ascending order without disturbing
  /// the heap (testing/diagnostics; O(n log n)).
  std::vector<T> sorted_contents() const {
    std::vector<T> all;
    all.reserve(size_);
    for (std::size_t i = 0; i < num_nodes(); ++i) {
      const auto s = arena_.span(i);
      all.insert(all.end(), s.begin(), s.end());
    }
    sort_in_place(std::span<T>(all), cmp_);
    return all;
  }

  const HeapStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = HeapStats{}; }
  const Compare& comparator() const noexcept { return cmp_; }

 private:
  static bool fail(std::string* why, std::string msg) {
    if (why) *why = std::move(msg);
    return false;
  }

  std::size_t round_up_nodes(std::size_t items) const noexcept {
    return (items + r_ - 1) / r_;
  }

  /// Level of node i (root = 0), under the configured arity.
  std::size_t level_of(std::size_t i) const noexcept {
    std::size_t level = 0;
    std::size_t last_of_level = 0;  // last node index on `level`
    std::size_t width = 1;
    while (i > last_of_level) {
      width *= arity_;
      last_of_level += width;
      ++level;
    }
    return level;
  }

  /// Smallest item among node i's children (nullptr if i has none): the
  /// threshold below which fills pushed into node i would violate the heap
  /// condition one level further down.
  const T* grandchild_min(std::size_t i) const noexcept {
    const T* best = nullptr;
    const std::size_t first = arity_ * i + 1;
    for (std::size_t c = first; c < first + arity_; ++c) {
      const auto s = arena_.span(c);
      if (s.empty()) continue;
      if (best == nullptr || cmp_(s.front(), *best)) best = &s.front();
    }
    return best;
  }

  /// Removes the last `q` items of the heap (the largest items of the last
  /// node, then of the one before: sorted suffixes of at most two trailing
  /// nodes) and appends them, merged sorted, to `out`. Precondition:
  /// q ≤ size_ − (root count) so the root is never raided.
  void take_tail(std::size_t q, std::vector<T>& out) {
    PH_ASSERT(q + arena_.count(0) <= size_);
    const std::size_t last = (size_ - 1) / r_;
    const auto last_items = arena_.span(last);
    const std::size_t from_last = std::min(q, last_items.size());
    const auto suffix_last = last_items.last(from_last);
    if (from_last == q) {
      out.insert(out.end(), suffix_last.begin(), suffix_last.end());
    } else {
      const std::size_t from_prev = q - from_last;
      PH_ASSERT(last >= 1 && from_prev <= r_);
      const auto prev_items = arena_.span(last - 1);
      merge2(std::span<const T>(prev_items.last(from_prev)), std::span<const T>(suffix_last),
             out, cmp_);
      arena_.truncate(last - 1, prev_items.size() - from_prev);
    }
    arena_.truncate(last, last_items.size() - from_last);
    // size_ is adjusted by the caller (it knows the whole-cycle accounting).
  }

  /// Inserts the sorted run `sorted` by splitting it, largest first, into
  /// chunks that exactly fill tail-node free space, and running one
  /// insert-update path per chunk.
  void insert_sorted_chunks(std::vector<T>& sorted) {
    PH_DEBUG_ASSERT(is_sorted_run(std::span<const T>(sorted), cmp_));
    std::size_t remaining = sorted.size();
    while (remaining > 0) {
      const std::size_t tail_used = size_ % r_;
      const std::size_t free_slots = tail_used == 0 ? r_ : r_ - tail_used;
      const std::size_t chunk = std::min(free_slots, remaining);
      insert_path(std::span<const T>(sorted.data() + (remaining - chunk), chunk));
      remaining -= chunk;
    }
  }

  /// One insert-update: the sorted `chunk` travels from the root to the tail
  /// node, each full path node keeping its r smallest; survivors merge into
  /// the tail node. Precondition: chunk fits in the tail node's free space.
  void insert_path(std::span<const T> chunk) {
    PH_ASSERT(!chunk.empty());
    const std::size_t target = size_ / r_;  // node containing the first free slot
    PH_ASSERT(size_ - target * r_ + chunk.size() <= r_);
    arena_.grow(target + 1);
    size_ += chunk.size();

    carried_.assign(chunk.begin(), chunk.end());
    if (target > 0) {
      // Ancestor path root → parent(target), oldest first.
      path_.clear();
      for (std::size_t a = (target - 1) / arity_;; a = (a - 1) / arity_) {
        path_.push_back(a);
        if (a == 0) break;
      }
      for (std::size_t pi = path_.size(); pi-- > 0;) {
        const std::size_t v = path_[pi];
        const auto sv = arena_.span(v);
        PH_ASSERT(sv.size() == r_);
        ++stats_.insert_procs;
        // Early out: nothing in the carried set precedes this node's max.
        if (!cmp_(carried_.front(), sv.back())) continue;
        kept_.clear();
        rest_.clear();
        merge2_split(std::span<const T>(sv.data(), sv.size()),
                     std::span<const T>(carried_), r_, kept_, rest_, cmp_);
        std::copy(kept_.begin(), kept_.end(), sv.begin());
        stats_.items_written += r_;
        carried_.swap(rest_);
        ++stats_.nodes_touched;
        stats_.items_merged += r_ + carried_.size();
      }
    }
    // Land at the target node.
    stats_.items_written += arena_.merge_into(target, std::span<const T>(carried_), cmp_);
    ++stats_.nodes_touched;
    stats_.items_merged += arena_.count(target);
    stats_.span_levels += level_of(target);
  }

  /// Delete-update: repairs the parallel heap condition below node `v0`
  /// (v0's items may exceed its children; everything deeper is consistent).
  void delete_update(std::size_t v0) {
    work_.clear();
    work_.push_back(v0);
    std::size_t deepest = level_of(v0);
    while (!work_.empty()) {
      const std::size_t v = work_.back();
      work_.pop_back();
      const auto sv = arena_.span(v);
      if (sv.empty()) continue;
      const std::size_t first = arity_ * v + 1;
      bool any_child = false;
      bool violated = false;
      for (std::size_t c = 0; c < arity_; ++c) {
        kids_[c] = arena_.slot(first + c);
        if (kids_[c].count > 0) {
          any_child = true;
          if (cmp_(kids_[c].items().front(), sv.back())) violated = true;
        }
      }
      if (!any_child) continue;
      ++stats_.delete_procs;
      if (!violated) continue;
      deepest = std::max(deepest, level_of(first));

      for (std::size_t c = 0; c < arity_; ++c) gm_[c] = grandchild_min(first + c);
      // Node-local repair (see node_fix.hpp). Because the subtree below is
      // quiescent here, a child whose new content does not violate against
      // its own children needs no further visit.
      const std::size_t moved = fix_node_multi(
          sv, std::span<NodeSlot<T>>(kids_.data(), arity_),
          std::span<const T* const>(gm_.data(), arity_),
          std::span<std::size_t>(taken_.data(), arity_),
          std::span<bool>(viol_.data(), arity_), fix_, cmp_);
      std::size_t branches = 0;
      for (std::size_t c = 0; c < arity_; ++c) {
        if (taken_[c] == 0) continue;
        arena_.commit(first + c, kids_[c]);
        ++branches;
        if (viol_[c]) work_.push_back(first + c);
      }
      if (branches > 1) ++stats_.proc_splits;
      ++stats_.nodes_touched;
      stats_.items_merged += moved;
      stats_.items_written += std::exchange(fix_.written, 0);
      stats_.forward_refills += std::exchange(fix_.forward_refills, 0);
    }
    stats_.span_levels += deepest - level_of(v0);
  }

  static constexpr std::size_t kMaxArity = 16;

  std::size_t r_;
  std::size_t arity_ = 2;
  Compare cmp_;
  NodeArena<T> arena_;
  std::size_t size_ = 0;
  HeapStats stats_;

  // Scratch buffers reused across operations to keep the hot path
  // allocation-free after warm-up.
  std::vector<T> sort_buf_, new_buf_, merged_, subs_, carried_, kept_, rest_, one_;
  FixScratch<T> fix_;
  std::vector<std::size_t> work_, path_;
  std::array<NodeSlot<T>, kMaxArity> kids_{};
  std::array<const T*, kMaxArity> gm_{};
  std::array<std::size_t, kMaxArity> taken_{};
  std::array<bool, kMaxArity> viol_{};
};

}  // namespace ph
