// Per-layer instruments shared by the workloads: the adapter that times and
// spans every cycle() of a queue, the core.* and sharded.* metrics from a
// heap's counters, and the merge-kernel timings on node runs taken from a
// heap snapshot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/parallel_heap.hpp"  // HeapStats
#include "core/sharded_heap.hpp"   // ShardedStats
#include "core/sorted_ops.hpp"
#include "stack.hpp"
#include "util/rng.hpp"

namespace stack {

/// Forwards cycle() to the wrapped queue and times every call. Untraced
/// calls are grouped into segments of `segment_cycles` consecutive calls;
/// a segment yields wall ns per dequeued item, from its first call's entry
/// to the next call's entry (so the caller's work between cycles counts),
/// and the median latency of its calls. While `traced`, each call records a
/// span named `span` instead and belongs to no segment. When `steady` is
/// set, a call it rejects (the queue is filling or draining) abandons the
/// open segment and starts none.
template <typename Q>
class TimedQueue {
 public:
  using value_type = typename Q::value_type;

  TimedQueue(Q& q, Tracer& tr, const char* span, std::size_t segment_cycles)
      : q_(q), tr_(tr), span_(span), segment_cycles_(segment_cycles) {}

  std::size_t cycle(std::span<const value_type> fresh, std::size_t k,
                    std::vector<value_type>& out) {
    const std::uint64_t t0 = mono_ns();
    if (seg_calls_ == segment_cycles_) close_segment(t0);
    const bool segmented = !traced && (!steady || steady());
    if (!segmented) seg_calls_ = 0;
    const std::size_t before = out.size();
    const std::uint32_t id = traced ? tr_.begin(span_) : 0;
    const std::size_t n = q_.cycle(fresh, k, out);
    const std::uint64_t t1 = mono_ns();
    tr_.end(id);
    if (!traced) lat_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (segmented) {
      if (seg_calls_ == 0) {
        seg_t0_ = t0;
        seg_items_ = 0;
        seg_lat_us_.clear();
      }
      ++seg_calls_;
      seg_items_ += out.size() - before;
      seg_lat_us_.push_back(lat_us.back());
    }
    return n;
  }

  /// Forgets everything measured so far (the end of a warm-up).
  void reset() {
    lat_us.clear();
    seg_ns_per_item.clear();
    seg_p50_us.clear();
    seg_calls_ = 0;
  }

  bool traced = false;
  std::function<bool()> steady;
  std::vector<double> lat_us;           ///< every untraced call
  std::vector<double> seg_ns_per_item;  ///< one entry per completed segment
  std::vector<double> seg_p50_us;

 private:
  void close_segment(std::uint64_t t_end) {
    seg_calls_ = 0;
    if (seg_items_ == 0) return;
    seg_ns_per_item.push_back(static_cast<double>(t_end - seg_t0_) /
                              static_cast<double>(seg_items_));
    seg_p50_us.push_back(median(seg_lat_us_));
  }

  Q& q_;
  Tracer& tr_;
  const char* span_;
  std::size_t segment_cycles_;
  std::size_t seg_calls_ = 0;
  std::uint64_t seg_t0_ = 0;
  std::uint64_t seg_items_ = 0;
  std::vector<double> seg_lat_us_;
};

inline double per(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
inline double per(std::uint64_t num, std::uint64_t den) {
  return per(static_cast<double>(num), static_cast<double>(den));
}

/// Pipelined-heap counters over an interval (HeapStats are cumulative).
struct CoreDelta {
  std::uint64_t cycles = 0, items_merged = 0, nodes_touched = 0, splits = 0,
                substitutes = 0;
  void add(const ph::HeapStats& before, const ph::HeapStats& after) {
    cycles += after.cycles - before.cycles;
    items_merged += after.items_merged - before.items_merged;
    nodes_touched += after.nodes_touched - before.nodes_touched;
    splits += after.proc_splits - before.proc_splits;
    substitutes += after.substitutes - before.substitutes;
  }
};

/// core.* from counters over `ops` operations and the spans named `span`
/// (one per pipelined cycle). Call after time_kernels(): core.merge_share
/// prices the merged items at kernel.merge2_split_ns_per_item.
inline void set_core(Results& res, const Tracer& tr, const char* span, const CoreDelta& d,
                     std::uint64_t ops) {
  std::vector<double> cyc = tr.durations_us(span);
  std::vector<double> cyc99 = cyc;
  res.set("core.cycle_us_p50", percentile(cyc, 50.0), "us");
  res.set("core.cycle_us_p99", percentile(cyc99, 99.0), "us");
  res.set("core.items_merged_per_op", per(d.items_merged, ops), "items/op");
  res.set("core.nodes_touched_per_op", per(d.nodes_touched, ops), "nodes/op");
  res.set("core.splits_per_cycle", per(d.splits, d.cycles), "count/cycle");
  res.set("core.substitutes_per_cycle", per(d.substitutes, d.cycles), "items/cycle");
  const double merge_ns =
      static_cast<double>(d.items_merged) * res.get("kernel.merge2_split_ns_per_item");
  res.set("core.merge_share", per(merge_ns, tr.total_us(span) * 1e3), "ratio");
}

/// sharded.* from one ShardedHeap's counters and the spans named `span`
/// (one per sharded cycle).
inline void set_sharded(Results& res, const Tracer& tr, const char* span,
                        const ph::ShardedStats& s, std::size_t shards) {
  std::vector<double> cyc = tr.durations_us(span);
  std::vector<double> cyc99 = cyc;
  res.set("sharded.cycle_us_p50", percentile(cyc, 50.0), "us");
  res.set("sharded.cycle_us_p99", percentile(cyc99, 99.0), "us");
  res.set("sharded.putbacks_per_routed", per(s.putbacks, s.routed), "ratio");
  res.set("sharded.merge_width", s.avg_merge_width(), "shards");
  res.set("sharded.imbalance", s.imbalance(shards), "ratio");
  res.set("sharded.hint_skips_per_cycle", per(s.hint_skips, s.cycles), "count/cycle");
}

/// Node runs of a drained PipelinedParallelHeap: a copy of the heap is run
/// to quiescence, so every node but the last is full and snapshot() lists
/// node i's sorted items at [i*r, (i+1)*r).
template <typename Heap>
std::vector<typename Heap::value_type> drained_nodes(const Heap& heap) {
  Heap copy = heap;
  copy.drain();
  return copy.snapshot().items;
}

/// Sets kernel.select3_ns_per_item and kernel.merge2_split_ns_per_item:
/// select_smallest3(v, 2v+1, 2v+2, r) is the delete-update shape (a node
/// and its two children), merge2_split(v, 2v+1, r) the node-keeps-r-smallest
/// shape, both on real node runs from `nodes` (drained_nodes layout).
/// Each is the median of five timed rounds over 64 sampled nodes, per
/// output item for select_smallest3 and per input item for merge2_split.
/// With fewer than three full nodes both read 0.
template <typename T, typename Compare>
void time_kernels(const std::vector<T>& nodes, std::size_t r, Compare cmp,
                  std::uint64_t seed, Results& res, Tracer& tr) {
  res.set("kernel.select3_ns_per_item", 0.0, "ns/item");
  res.set("kernel.merge2_split_ns_per_item", 0.0, "ns/item");
  const std::size_t full = nodes.size() / r;
  if (full < 3) {
    note("kernel timing skipped: the snapshot holds %zu full nodes", full);
    return;
  }
  auto node = [&](std::size_t i) { return std::span<const T>(nodes).subspan(i * r, r); };
  ph::Xoshiro256 rng(seed ^ 0x6b65726e656cull);
  constexpr std::size_t kSamples = 64;
  constexpr std::size_t kItemsPerRound = 1u << 21;
  std::vector<std::size_t> parents;
  for (std::size_t i = 0; i < kSamples; ++i) {
    parents.push_back(rng.next_below((full - 1) / 2));
  }

  std::vector<T> out, kept, rest;
  out.reserve(r);
  kept.reserve(r);
  rest.reserve(r);
  std::vector<double> sel_ns, split_ns;
  for (int round = 0; round < 5; ++round) {
    {
      Tracer::Scope span(tr, "kernel.select3");
      std::uint64_t items = 0;
      const std::uint64_t t0 = mono_ns();
      for (std::size_t i = 0; items < kItemsPerRound; ++i) {
        const std::size_t v = parents[i % kSamples];
        out.clear();
        ph::select_smallest3(node(v), node(2 * v + 1), node(2 * v + 2), r, out, cmp);
        items += r;
      }
      sel_ns.push_back(per(mono_ns() - t0, items));
    }
    {
      Tracer::Scope span(tr, "kernel.merge2_split");
      std::uint64_t items = 0;
      const std::uint64_t t0 = mono_ns();
      for (std::size_t i = 0; items < kItemsPerRound; ++i) {
        const std::size_t v = parents[i % kSamples];
        kept.clear();
        rest.clear();
        ph::merge2_split(node(v), node(2 * v + 1), r, kept, rest, cmp);
        items += 2 * r;
      }
      split_ns.push_back(per(mono_ns() - t0, items));
    }
  }
  res.set("kernel.select3_ns_per_item", median(sel_ns), "ns/item");
  res.set("kernel.merge2_split_ns_per_item", median(split_ns), "ns/item");
}

}  // namespace stack
