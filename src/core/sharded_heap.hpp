// ShardedHeap — a key-range-sharded front end over K independent
// PipelinedParallelHeap instances. bench/stack runs it at K = 4 in two
// places: the des_torus workload and the svc replay waterfall's sharded
// rung. The cycle below is exactly that configuration and nothing else.
//
// The parallel heap's per-cycle contract — insert a batch, delete the k
// globally smallest — is preserved across shards by a four-part protocol:
//
//   1. Route. Each cycle's insert batch is split by a key-range partition
//      map (KeyRangePartitioner): shard i owns keys in [split[i-1],
//      split[i]). The splits are the K-quantiles of the first nonempty
//      batch (or of the first build()) and never move afterwards.
//
//   2. Pull. Every shard runs one pipelined cycle, yielding its own
//      smallest items as a sorted prefix. The min hint (see
//      compute_pull_budgets()) first counts, for each shard, the other
//      shards' candidates (root node plus routed batch) that rank before
//      its best candidate; at least k of them means the shard provably
//      contributes nothing, so its budget drops to 0: an insert-only cycle,
//      so its pipeline still advances but it skips the pull and the putback
//      round-trip. No prefix is sorted, merged or copied to decide this.
//
//   3. Merge. The global k smallest are selected by a K-way tournament
//      (merge_k) over the prefixes; ties go to the lowest shard index,
//      which under multiset key semantics matches the sorted-multiset oracle
//      exactly. An empty shard participates as an empty prefix.
//
//   4. Putback. Prefix items that lost the tournament are re-inserted into
//      the shard they came from via an insert-only cycle (k = 0). Putback
//      traffic is the price of not peeking across shards and is counted in
//      ShardedStats::putbacks.
//
// With K = 1 the protocol degenerates to exactly one pipelined cycle per
// global cycle — no routing decisions, no putback — so a one-shard heap is
// bit-for-bit the unsharded PipelinedParallelHeap (test_sharded.cpp pins
// this).
//
// The cycle is serial: the driver pulls the shards one after another and
// puts the losers back the same way. The paper's parallelism lives inside
// each pipelined heap, not across shards; DESIGN.md §12 records why.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "obs/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ph {

/// Sharding counters, additive to each shard's own HeapStats/PipelineStats.
struct ShardedStats {
  std::uint64_t cycles = 0;
  std::uint64_t routed = 0;          ///< items routed to shards (inserts)
  std::uint64_t routed_max_sum = 0;  ///< per-cycle max shard share, summed
  std::uint64_t putbacks = 0;        ///< pulled-but-not-taken items returned
  std::uint64_t merge_width_sum = 0; ///< shards contributing >=1 item, summed
  std::uint64_t hint_skips = 0;      ///< shard pulls skipped by the min hint

  /// Mean routing imbalance: K * max-share / fair-share (1.0 = perfectly
  /// balanced, K = everything lands on one shard). NaN-free: 0 when idle.
  double imbalance(std::size_t shards) const noexcept {
    if (routed == 0) return 0.0;
    return static_cast<double>(shards) * static_cast<double>(routed_max_sum) /
           static_cast<double>(routed);
  }
  /// Mean number of shards contributing to a deletion batch.
  double avg_merge_width() const noexcept {
    if (cycles == 0) return 0.0;
    return static_cast<double>(merge_width_sum) / static_cast<double>(cycles);
  }
};

/// Key-range partition map: K-1 sorted split values of T; an item routes to
/// the number of splits at or below it. The splits are set explicitly or as
/// the K-quantiles of a sample.
template <typename T, typename Compare = std::less<T>>
class KeyRangePartitioner {
 public:
  explicit KeyRangePartitioner(std::size_t shards, Compare cmp = Compare())
      : shards_(shards), cmp_(std::move(cmp)) {
    PH_ASSERT(shards_ >= 1);
  }

  std::size_t shards() const noexcept { return shards_; }

  /// Partition of `v`: the count of splits <= v, i.e. shard i owns
  /// [split[i-1], split[i]). Total: every value of T routes to exactly one
  /// shard, and route is monotone under Compare.
  std::size_t route(const T& v) const {
    const auto it = std::upper_bound(splits_.begin(), splits_.end(), v,
                                     [this](const T& a, const T& b) {
                                       return cmp_(a, b);
                                     });
    return static_cast<std::size_t>(it - splits_.begin());
  }

  /// Current split values (size shards-1; empty until the map is set when
  /// K > 1, which routes everything to the first shard — valid, merely
  /// unbalanced).
  const std::vector<T>& splits() const noexcept { return splits_; }

  /// Installs an explicit map (must be sorted ascending, size shards-1).
  void set_splits(std::vector<T> splits) {
    PH_ASSERT(splits.size() + 1 == shards_);
    PH_ASSERT(std::is_sorted(splits.begin(), splits.end(),
                             [this](const T& a, const T& b) { return cmp_(a, b); }));
    splits_ = std::move(splits);
  }

  /// Sets the splits to the K-quantiles of `sample`. An empty sample (or
  /// K = 1) leaves the map unchanged. Duplicate-heavy samples may produce
  /// equal splits; route() stays total (the duplicated range simply has
  /// empty shards between its bounds).
  void set_quantiles(std::span<const T> sample) {
    if (shards_ == 1 || sample.empty()) return;
    std::vector<T> sorted(sample.begin(), sample.end());
    std::sort(sorted.begin(), sorted.end(),
              [this](const T& a, const T& b) { return cmp_(a, b); });
    splits_.clear();
    splits_.reserve(shards_ - 1);
    for (std::size_t i = 1; i < shards_; ++i) {
      splits_.push_back(sorted[i * sorted.size() / shards_]);
    }
  }

 private:
  std::size_t shards_;
  Compare cmp_;
  std::vector<T> splits_;
};

template <typename T, typename Compare = std::less<T>>
class ShardedHeap {
 public:
  using Shard = PipelinedParallelHeap<T, Compare>;
  using value_type = T;
  /// Named by DurableHeap's engine-driver surface, which a ShardedHeap
  /// inner heap never calls.
  using ServiceCtx = typename Shard::ServiceCtx;

  struct Config {
    std::size_t shards = 1;
  };

  ShardedHeap(std::size_t node_capacity, Config cfg, Compare cmp = Compare())
      : r_(node_capacity), cmp_(cmp), part_(std::max<std::size_t>(cfg.shards, 1), cmp) {
    PH_ASSERT(r_ >= 1);
    const std::size_t k = part_.shards();
    shards_.reserve(k);
    for (std::size_t s = 0; s < k; ++s) shards_.emplace_back(r_, cmp_);
    route_buf_.resize(k);
    pulled_.resize(k);
    pull_k_.resize(k);
    runs_.resize(k);
    take_.resize(k);
  }

  std::size_t node_capacity() const noexcept { return r_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }

  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Shard& s : shards_) n += s.size();
    return n;
  }
  bool empty() const noexcept { return size() == 0; }

  const ShardedStats& sharded_stats() const noexcept { return stats_; }
  const Shard& shard(std::size_t i) const { return shards_[i]; }
  /// Per-shard deletion budgets of the last cycle: k, or 0 where the min
  /// hint skipped the pull.
  std::span<const std::size_t> pull_budgets() const noexcept { return pull_k_; }
  const KeyRangePartitioner<T, Compare>& partitioner() const noexcept { return part_; }

  /// Cycle-boundary snapshot of the whole sharded structure: the partition
  /// map and every shard's contents. Same O(n) contract as the pipelined
  /// heap's Snapshot; valid at any cycle boundary.
  struct Snapshot {
    std::vector<T> splits;
    bool seeded = false;
    std::vector<std::vector<T>> shard_items;
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.splits = part_.splits();
    s.seeded = seeded_;
    s.shard_items.reserve(shards_.size());
    for (const Shard& sh : shards_) s.shard_items.push_back(sh.snapshot().items);
    return s;
  }

  /// Rebuilds the structure from a snapshot: the partition map and every
  /// shard's contents return to their captured values. A snapshot taken
  /// before the map was seeded leaves it unseeded; the next batch seeds it.
  void restore(const Snapshot& s) {
    PH_ASSERT(s.shard_items.size() == shards_.size());
    part_ = KeyRangePartitioner<T, Compare>(shards_.size(), cmp_);
    seeded_ = false;
    if (s.splits.size() + 1 == shards_.size()) {
      part_.set_splits(s.splits);
      seeded_ = s.seeded;
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i].build(s.shard_items[i]);
    }
  }

  /// Replaces the content: seeds the partition map from `items` (unless it
  /// is already seeded) and bulk-loads each shard with its range.
  void build(std::span<const T> items) {
    seed(items);
    for (auto& b : route_buf_) b.clear();
    for (const T& v : items) route_buf_[part_.route(v)].push_back(v);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].build(route_buf_[s]);
    }
  }

  /// One sharded insert-delete cycle: routes `fresh` across the shards,
  /// pulls every shard's prefix through one pipelined cycle each, K-way
  /// merges the global k smallest into `out` (sorted), and puts losing
  /// prefix items back. Returns the number deleted.
  std::size_t cycle(std::span<const T> fresh, std::size_t k, std::vector<T>& out) {
    PH_ASSERT_MSG(k <= r_, "cycle(): k must not exceed the node capacity r");
    ++stats_.cycles;

    // Causal identity: every span recorded during this cycle — route, each
    // shard's pipeline levels, merge, putback — carries this id, so the
    // Chrome exporter can stitch one cycle across all K shards into a single
    // flow. The flight recorder logs the same id, linking black-box events
    // to trace spans.
    const std::uint64_t trace_id = telemetry::new_trace_id();
    telemetry::TraceCtxScope trace_scope(trace_id);
    obs::flight(obs::FlightKind::kCycle, trace_id, fresh.size());

    // Phase 1: route. The first nonempty batch seeds the partition map.
    {
      telemetry::SpanScope span(telemetry::Phase::kShardRoute);
      obs::flight(obs::FlightKind::kPhase,
                  static_cast<std::uint64_t>(telemetry::Phase::kShardRoute),
                  trace_id);
      seed(fresh);
      for (auto& b : route_buf_) b.clear();
      for (const T& v : fresh) route_buf_[part_.route(v)].push_back(v);
    }
    if (!fresh.empty()) {
      std::size_t mx = 0;
      for (const auto& b : route_buf_) mx = std::max(mx, b.size());
      stats_.routed += fresh.size();
      stats_.routed_max_sum += mx;
    }

    // Phase 2: pull per-shard prefixes. Every shard cycles every global
    // cycle — even an empty one — so parked update processes keep advancing
    // at the global cycle rate.
    compute_pull_budgets(k);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      pulled_[s].clear();
      telemetry::TraceTagScope shard_tag(static_cast<std::uint32_t>(s));
      shards_[s].cycle(route_buf_[s], pull_k_[s], pulled_[s]);
    }

    // Phase 3: K-way tournament over the sorted prefixes; ties go to the
    // lowest shard index (deterministic; invisible under multiset keys).
    std::size_t taken = 0;
    {
      telemetry::SpanScope span(telemetry::Phase::kShardMerge);
      obs::flight(obs::FlightKind::kPhase,
                  static_cast<std::uint64_t>(telemetry::Phase::kShardMerge),
                  trace_id);
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        runs_[s] = std::span<const T>(pulled_[s]);
      }
      std::fill(take_.begin(), take_.end(), std::size_t{0});
      taken = merge_k(std::span<const std::span<const T>>(runs_), k,
                      std::span<std::size_t>(take_), &out, cmp_);
    }

    // Phase 4: put losing prefix suffixes back where they came from
    // (insert-only cycles; k = 0 advances nothing out of the shard).
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (take_[s] > 0) ++stats_.merge_width_sum;
      if (take_[s] >= pulled_[s].size()) continue;
      stats_.putbacks += pulled_[s].size() - take_[s];
      telemetry::TraceTagScope shard_tag(static_cast<std::uint32_t>(s));
      const auto rest = std::span<const T>(pulled_[s]).subspan(take_[s]);
      sink_.clear();
      shards_[s].cycle(rest, 0, sink_);
    }
    return taken;
  }

  /// Verifies every shard's structural invariants (drains their pipelines).
  bool check_invariants(std::string* why = nullptr) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      std::string inner;
      if (!shards_[s].check_invariants(&inner)) {
        if (why) *why = "shard " + std::to_string(s) + ": " + inner;
        return false;
      }
    }
    return true;
  }

  /// All contents ascending (drains; testing/diagnostics).
  std::vector<T> sorted_contents() {
    std::vector<T> all;
    for (Shard& s : shards_) {
      const std::vector<T> part = s.sorted_contents();
      all.insert(all.end(), part.begin(), part.end());
    }
    std::sort(all.begin(), all.end(), cmp_);
    return all;
  }

 private:
  /// Seeds the partition map from the first nonempty batch it is given.
  void seed(std::span<const T> items) {
    if (seeded_ || items.empty()) return;
    part_.set_quantiles(items);
    seeded_ = true;
  }

  /// The min hint: decide every shard's pull budget BEFORE phase 2. A
  /// shard's next pulled prefix is exactly the first min(k, ·) items of
  /// merge(root, sorted(routed batch)) — the paper's delete-correctness
  /// theorem confines the k smallest of (heap ∪ new) to (root ∪ new), and
  /// the root is stable across the odd half-step
  /// (PipelinedParallelHeap::root_items()). Phase 3 takes nothing from
  /// shard s exactly when at least k prefix items of the other shards rank
  /// before s's best candidate m_s = min(root_s.front(), min of its batch)
  /// under the tournament's order: keys below m_s, plus keys tied with m_s
  /// on a lower-indexed shard. Such a shard's budget drops to 0.
  ///
  /// Exactness: the items of shard j that rank before m_s form a sorted
  /// prefix of root_j ∪ batch_j, so j's predicted prefix holds min(k, c_j)
  /// of them, c_j counted over the whole of root_j ∪ batch_j; and
  /// Σ_j min(k, c_j) ≥ k exactly when Σ_j c_j ≥ k. So counting c_j (a
  /// binary search of the sorted root plus a scan of the unsorted batch,
  /// stopping once the total reaches k) skips exactly the shards a replay
  /// of the tournament over the predicted prefixes would. Removing
  /// candidates that were never selected cannot change the selected
  /// multiset, so contributing shards take exactly what they always did.
  void compute_pull_budgets(std::size_t k) {
    std::fill(pull_k_.begin(), pull_k_.end(), k);
    if (k == 0 || shards_.size() < 2) return;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const T* best = best_candidate(s);
      // A shard without candidates pulls nothing either way; its budget
      // stays k.
      if (best != nullptr && ranked_before(s, *best, k) >= k) {
        pull_k_[s] = 0;
        ++stats_.hint_skips;
      }
    }
  }

  /// Shard s's smallest candidate for this cycle's pull (root front or
  /// routed item), or null when it has neither.
  const T* best_candidate(std::size_t s) const {
    const auto root = shards_[s].root_items();
    const T* best = root.empty() ? nullptr : &root.front();
    for (const T& v : route_buf_[s]) {
      if (best == nullptr || cmp_(v, *best)) best = &v;
    }
    return best;
  }

  /// Number of the other shards' candidates that the tournament ranks
  /// before shard s's best candidate m, counted until it reaches k.
  std::size_t ranked_before(std::size_t s, const T& m, std::size_t k) const {
    std::size_t n = 0;
    for (std::size_t j = 0; j < shards_.size() && n < k; ++j) {
      if (j == s) continue;
      // Ties go to the lower shard index: count x <= m below s, x < m above.
      const bool ties_win = j < s;
      const auto before = [&](const T& x) { return ties_win ? !cmp_(m, x) : cmp_(x, m); };
      const auto root = shards_[j].root_items();
      n += static_cast<std::size_t>(
          std::partition_point(root.begin(), root.end(), before) - root.begin());
      for (auto it = route_buf_[j].begin(); it != route_buf_[j].end() && n < k; ++it) {
        n += before(*it);
      }
    }
    return n;
  }

  std::size_t r_;
  Compare cmp_;
  KeyRangePartitioner<T, Compare> part_;
  std::vector<Shard> shards_;
  bool seeded_ = false;
  ShardedStats stats_;

  // Scratch (reused; allocation-free after warm-up).
  std::vector<std::vector<T>> route_buf_, pulled_;
  std::vector<T> sink_;
  // Phase 3's tournament entries (one per shard) and their take counts.
  std::vector<std::span<const T>> runs_;
  std::vector<std::size_t> take_;
  std::vector<std::size_t> pull_k_;  ///< per-shard deletion budget this cycle
};

}  // namespace ph
