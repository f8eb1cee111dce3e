// NodeArena — node storage shared by ParallelHeap and PipelinedParallelHeap.
//
// Every node owns a slot of r + headroom(r) items in one flat buffer and
// keeps its sorted items at slot[head, head + count). The headroom is what
// makes a delete-update refill cheap. A refill drops a child's k smallest
// items (they moved up to the parent) and merges k fills in. With items
// packed from slot offset 0, closing the hole at the front shifts the whole
// remaining child, ~r items for a dozen fills. With headroom, the head just
// advances past the dropped prefix and the fills merge in from the back, so
// only the items that sort after the smallest fill move. When a slot has no
// room left behind its items, the refill merges forward into the slot base
// and the head returns to 0 — the packed layout's path, at the packed
// layout's cost.
//
// Appends (an insert-update delivering to its tail node) need room behind
// the items too; make_room() compacts a slot to its base when the append
// would not fit. Each compaction moves at most r items and follows at least
// headroom(r) items of head advance, so it costs at most r / headroom(r)
// ≈ 8 moves per item advanced.
//
// The logical content of each node — the sorted run — is independent of
// where its head sits. Snapshots, checkpoints and every HeapStats counter
// except items_written read only that content.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/sorted_ops.hpp"
#include "util/assert.hpp"

namespace ph {

/// One node's storage as the repair kernels see it: `count` sorted items
/// at base[head, head + count) inside a slot of `stride` items. A plain run
/// converts to a slot with no headroom (stride == count, head 0), so its
/// refills take the forward path and leave it packed.
template <typename T>
struct NodeSlot {
  T* base = nullptr;
  std::size_t head = 0;
  std::size_t count = 0;
  std::size_t stride = 0;

  NodeSlot() = default;
  NodeSlot(T* b, std::size_t h, std::size_t n, std::size_t s)
      : base(b), head(h), count(n), stride(s) {}
  NodeSlot(std::span<T> run)  // NOLINT(google-explicit-constructor): plain runs are slots
      : base(run.data()), count(run.size()), stride(run.size()) {}

  std::span<T> items() const noexcept { return {base + head, count}; }
};

/// Replaces slot s's |fills| smallest items with `fills` (sorted), keeping
/// the slot sorted and its count unchanged. With room behind the items the
/// head advances past the dropped prefix and the fills merge in from the
/// back; otherwise the result is merged forward into the slot base and the
/// head becomes 0. Returns the items written. Ties keep s's items first on
/// both paths, so the resulting run is the same either way.
template <typename T, typename Compare>
std::size_t refill(NodeSlot<T>& s, std::span<const T> fills, Compare cmp) {
  const std::size_t k = fills.size();
  PH_ASSERT(k <= s.count && s.head + s.count <= s.stride);
  if (s.head + k + s.count <= s.stride) {
    s.head += k;
    return merge_back_into(s.items(), s.count - k, fills, cmp);
  }
  std::size_t written = 0;
  std::size_t i = k, j = 0;
  merge_n(std::span<const T>(s.items()), i, fills, j, s.count, s.base, cmp, &written);
  s.head = 0;
  return written;
}

template <typename T>
class NodeArena {
 public:
  /// Free slots per node beyond the r items it may hold.
  static constexpr std::size_t headroom(std::size_t r) noexcept {
    return std::max<std::size_t>(1, r / 8);
  }

  explicit NodeArena(std::size_t node_capacity)
      : r_(node_capacity), stride_(node_capacity + headroom(node_capacity)) {
    PH_ASSERT(r_ >= 1);
  }

  std::size_t stride() const noexcept { return stride_; }
  /// Nodes with a slot (stored items or not).
  std::size_t nodes() const noexcept { return meta_.size(); }
  std::size_t count(std::size_t i) const noexcept {
    return i < meta_.size() ? meta_[i].count : 0;
  }
  std::size_t head(std::size_t i) const noexcept {
    return i < meta_.size() ? meta_[i].head : 0;
  }

  std::span<T> span(std::size_t i) noexcept {
    if (count(i) == 0) return {};
    return {buf_.data() + i * stride_ + meta_[i].head, meta_[i].count};
  }
  std::span<const T> span(std::size_t i) const noexcept {
    if (count(i) == 0) return {};
    return {buf_.data() + i * stride_ + meta_[i].head, meta_[i].count};
  }

  /// Node i as a kernel slot; after the kernel has refilled it, commit()
  /// writes its new head back. A node without a slot reads as empty.
  NodeSlot<T> slot(std::size_t i) noexcept {
    if (i >= meta_.size()) return {};
    return {buf_.data() + i * stride_, meta_[i].head, meta_[i].count, stride_};
  }
  void commit(std::size_t i, const NodeSlot<T>& s) noexcept {
    PH_ASSERT(s.count == meta_[i].count && s.head + s.count <= stride_);
    meta_[i].head = s.head;
  }

  /// Ensures nodes [0, m) have slots (new ones empty).
  void grow(std::size_t m) {
    if (meta_.size() >= m) return;
    meta_.resize(m);
    buf_.resize(m * stride_);
  }
  void reserve(std::size_t m) {
    meta_.reserve(m);
    buf_.reserve(m * stride_);
  }
  void clear() noexcept {
    meta_.clear();
    buf_.clear();
  }

  /// Makes room for `extra` more items behind node i's items, compacting
  /// them to the slot base if they would not fit. Returns the items moved.
  std::size_t make_room(std::size_t i, std::size_t extra) {
    Meta& m = meta_[i];
    PH_ASSERT(m.count + extra <= r_);
    if (m.head + m.count + extra <= stride_) return 0;
    T* base = buf_.data() + i * stride_;
    std::copy(base + m.head, base + m.head + m.count, base);
    m.head = 0;
    return m.count;
  }

  /// Merges the sorted `items` into node i (make_room, then an in-place
  /// merge from the back). Returns the items written, compaction included.
  template <typename Compare>
  std::size_t merge_into(std::size_t i, std::span<const T> items, Compare cmp) {
    const std::size_t moved = make_room(i, items.size());
    Meta& m = meta_[i];
    const std::size_t have = m.count;
    m.count += items.size();
    return moved + merge_back_into(span(i), have, items, cmp);
  }

  /// Empties node i and returns its slot base for the caller to write `n`
  /// items (head 0).
  T* reset(std::size_t i, std::size_t n) noexcept {
    PH_ASSERT(n <= r_);
    meta_[i] = Meta{0, n};
    return buf_.data() + i * stride_;
  }

  /// Drops node i's items beyond the first `n` (its largest).
  void truncate(std::size_t i, std::size_t n) noexcept {
    PH_ASSERT(n <= meta_[i].count);
    meta_[i].count = n;
  }

  /// Bulk load: node 0 gets the r smallest of `items`, node 1 the next r,
  /// and so on (a valid parallel-heap layout, every node but the last
  /// full). Sorts in place in the buffer (sort_in_place) and then spreads
  /// the nodes to their slots back to front, so it allocates nothing beyond
  /// the arena.
  template <typename Compare>
  void build(std::span<const T> items, Compare cmp) {
    const std::size_t n = items.size();
    const std::size_t m = (n + r_ - 1) / r_;
    meta_.assign(m, Meta{});
    buf_.resize(m * stride_);
    std::copy(items.begin(), items.end(), buf_.begin());
    sort_in_place(std::span<T>(buf_.data(), n), cmp);
    for (std::size_t i = m; i-- > 0;) {
      const std::size_t cnt = std::min(r_, n - i * r_);
      meta_[i].count = cnt;
      if (i == 0) break;  // node 0 is already at offset 0
      // Node i moves right, from offset i·r to i·stride; the copy only
      // overwrites nodes that have already moved.
      const auto from = buf_.begin() + static_cast<std::ptrdiff_t>(i * r_);
      std::copy_backward(from, from + static_cast<std::ptrdiff_t>(cnt),
                         buf_.begin() + static_cast<std::ptrdiff_t>(i * stride_ + cnt));
    }
  }

 private:
  struct Meta {
    std::size_t head = 0;
    std::size_t count = 0;
  };

  std::size_t r_;
  std::size_t stride_;
  std::vector<T> buf_;
  std::vector<Meta> meta_;
};

}  // namespace ph
