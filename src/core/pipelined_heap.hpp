// PipelinedParallelHeap — the paper's level-pipelined maintenance schedule.
//
// Where ParallelHeap (parallel_heap.hpp) runs every update process to
// quiescence inside each operation, this variant implements the ICPP'90
// pipeline: update processes (insert-updates carrying items toward a tail
// node, delete-updates repairing the order condition behind a deletion) are
// parked per level and advanced in the odd/even half-step schedule of the
// paper's PerformInsertDelete cycle:
//
//   step():  1. service all processes at odd levels   (they move down one)
//            2. root work: merge the new items with the root, extract the k
//               smallest, refill with substitutes if the heap shrank, spawn
//               this generation's processes at the root level
//            3. service all processes at even levels  (they move down one)
//
// (The paper's "think" phase happens between the caller's step() calls.)
// A generation therefore descends two levels per cycle, and successive
// generations stay exactly two levels apart: processes of different
// generations never touch the same node in the same half-step. Better: a
// process at level ℓ touches only nodes at ℓ and ℓ+1, and same-parity
// levels are two apart, so *every process of a half-step that operates on a
// distinct node is independent of every other*. advance_with() exposes
// exactly that parallelism: it groups the half-step's processes by node and
// hands the groups to a caller-supplied runner (the multithreaded engine
// runs them on its maintenance team; the serial API runs them in a loop).
//
// Each cycle is O(r) critical-path work regardless of heap size; total
// maintenance work per cycle is O(r log n) spread across the pipeline.
//
// A delete-update carries nothing, so it is parked as a bare node id in a
// per-level queue (dels_); only insert-updates are ProcT records. A repair
// that refills a child parks the child's re-service only if the child has a
// committed child (occupancy(2c + 1) > 0): committed slots grow only in
// root work, and new items need at least two half-steps to be stored at
// level 2 or deeper, so a child without committed children still has no
// stored children when its re-service would run — and that re-service
// would return at once. The skip therefore changes no repair and no
// HeapStats counter; PipelineStats::procs_spawned/procs_serviced simply no
// longer count these no-ops.
//
// Substitute fetch under pipelining. A shrinking heap must refill the root
// from its logical tail, but the tail slots may belong to deliveries still
// in flight. We then *steal* the substitutes directly from the in-flight
// carried set that owns those slots (back first — its largest items), which
// keeps the committed-slot arithmetic exact without ever stalling the
// pipeline. Steals are counted in pipeline_stats().
//
// Correctness note. That a deletion (the k smallest of root ∪ new items) is
// globally correct even with processes in flight is the central theorem of
// the paper. This implementation is differential-tested against the
// synchronous reference and a sorted-multiset oracle over randomized and
// adversarial schedules (tests/test_pipelined_heap.cpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/node_arena.hpp"
#include "core/node_fix.hpp"
#include "core/parallel_heap.hpp"  // HeapStats
#include "core/sorted_ops.hpp"
#include "robustness/failpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ph {

/// Pipeline-specific counters, additive to HeapStats.
struct PipelineStats {
  std::uint64_t procs_spawned = 0;
  std::uint64_t procs_serviced = 0;
  std::uint64_t steals = 0;        ///< substitute items stolen from carried sets
  std::uint64_t max_inflight = 0;  ///< peak number of pending processes
  std::uint64_t half_steps = 0;    ///< level-service phases executed
  std::uint64_t task_groups = 0;   ///< independent node groups, summed over half-steps
  std::uint64_t max_groups = 0;    ///< peak node groups in one half-step (parallelism width)
};

template <typename T, typename Compare = std::less<T>>
class PipelinedParallelHeap {
 private:
  /// An insert-update. A delete-update carries nothing but the node it
  /// repairs next, so it is parked as a bare node id (dels_).
  struct ProcT {
    std::size_t node;        ///< node to service next
    std::size_t target;      ///< destination (tail) node
    std::uint64_t id;        ///< spawn order; later procs own later tail slots
    std::vector<T> carried;  ///< items in flight (sorted)
  };

 public:
  using value_type = T;

  /// Per-worker service context: scratch buffers, locally spawned processes
  /// and stat deltas, merged back serially after a parallel half-step.
  class ServiceCtx {
   public:
    ServiceCtx() = default;

   private:
    friend class PipelinedParallelHeap;
    std::vector<T> kept_, rest_;
    FixScratch<T> fix_;
    std::vector<ProcT> spawned_;
    std::vector<std::size_t> spawned_dels_;
    HeapStats stats_{};
  };

  explicit PipelinedParallelHeap(std::size_t node_capacity, Compare cmp = Compare())
      : r_(node_capacity), cmp_(std::move(cmp)), arena_(node_capacity) {}

  /// Committed size: stored items plus items in flight in carried sets.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t node_capacity() const noexcept { return r_; }
  std::size_t num_nodes() const noexcept { return (size_ + r_ - 1) / r_; }

  /// Pending update processes (0 when quiescent).
  std::size_t inflight() const noexcept { return inflight_; }

  /// The root node's stored items, ascending. Stable across the odd
  /// half-step: advance(1) services only odd levels and a level-1 process
  /// writes nodes at levels 1 and 2 — never node 0 — so a view taken at
  /// cycle entry still describes the root the next root_work() will merge
  /// against. By the paper's delete-correctness theorem the k ≤ r smallest
  /// of (heap ∪ new) lie within (root ∪ new), which makes this span a sound
  /// per-shard candidate bound for the sharded front end's cross-shard min
  /// hint (sharded_heap.hpp).
  std::span<const T> root_items() const noexcept { return arena_.span(0); }

  /// Replaces the content with `items` in one O(n log n) bulk load (sorted
  /// breadth-first layout; see ParallelHeap::build). Any in-flight
  /// processes are discarded together with the old content.
  void build(std::span<const T> items) {
    load(items);
    stats_.items_inserted += items.size();
  }

  /// One pipelined insert-delete cycle: services odd levels, removes the k
  /// (≤ r) smallest of (heap ∪ new_items) appending them sorted to `out`,
  /// inserts the remaining new items, then services even levels. Returns
  /// the number deleted.
  std::size_t step(std::span<const T> new_items, std::size_t k, std::vector<T>& out) {
    PH_ASSERT_MSG(k <= r_, "step(): k must not exceed the node capacity r");
    ++stats_.cycles;
    stats_.items_inserted += new_items.size();
    advance(/*parity=*/1);
    const std::size_t take = root_work(new_items, k, out);
    advance(/*parity=*/0);
    return take;
  }

  /// The three phases of step(), exposed separately so a driver can overlap
  /// its think phase with maintenance (engine.hpp). The serial-equivalent
  /// schedule is: root_work of cycle g, advance(0), advance(1), root_work of
  /// cycle g+1, ... — identical to repeated step() calls up to the position
  /// of the cycle boundary.
  std::size_t root_work_public(std::span<const T> new_items, std::size_t k,
                               std::vector<T>& out) {
    PH_ASSERT(k <= r_);
    ++stats_.cycles;
    stats_.items_inserted += new_items.size();
    return root_work(new_items, k, out);
  }

  /// Services every process parked at levels of the given parity (0 = even,
  /// 1 = odd) serially on the calling thread.
  void advance(std::size_t parity) {
    advance_with(parity, [this](std::size_t ngroups,
                                const std::function<void(std::size_t, ServiceCtx&)>& fn) {
      for (std::size_t g = 0; g < ngroups; ++g) fn(g, ctx_);
    });
  }

  /// Parallel half-step: collects the parity's processes, groups them by
  /// node (groups are mutually independent — see file comment), and invokes
  ///   runner(ngroups, fn)
  /// which must call fn(g, ctx) exactly once for every g in [0, ngroups),
  /// possibly concurrently, with a distinct ServiceCtx per concurrent
  /// worker. Spawned processes and stat deltas are merged serially after
  /// the runner returns.
  template <typename Runner>
  void advance_with(std::size_t parity, Runner&& runner) {
    ++pstats_.half_steps;
    ibatch_.clear();
    dbatch_.clear();
    for (std::size_t lvl = parity; lvl < procs_.size(); lvl += 2) collect(lvl);
    if (ibatch_.empty() && dbatch_.empty()) return;
    telemetry::SpanScope span(parity == 1 ? telemetry::Phase::kOddHalfStep
                                          : telemetry::Phase::kEvenHalfStep);
    run_batch(std::forward<Runner>(runner));
  }

  /// Harness-interface alias: every global queue in this library exposes
  /// cycle(new_items, k, out); for the pipelined heap a cycle is a step.
  std::size_t cycle(std::span<const T> new_items, std::size_t k, std::vector<T>& out) {
    return step(new_items, k, out);
  }

  /// Convenience wrappers matching the synchronous heap's API. Both carry
  /// the STRONG exception guarantee when guarded (set_batch_guard(true), or
  /// automatically whenever any fail-point is armed): a throw mid-batch —
  /// injected OOM, torn insert, throwing comparator — rolls the heap and the
  /// output vector back to their pre-call state before rethrowing. Unguarded
  /// calls pay nothing (one relaxed load and branch).
  void insert_batch(std::span<const T> items) {
    std::vector<T> sink;
    if (!batch_guarded()) {
      step(items, 0, sink);
      return;
    }
    const Snapshot snap = snapshot();
    try {
      step(items, 0, sink);
    } catch (...) {
      restore(snap);
      throw;
    }
  }
  std::size_t delete_min_batch(std::size_t k, std::vector<T>& out) {
    if (!batch_guarded()) {
      std::size_t removed = 0;
      while (removed < k && size_ > 0) {
        removed += step({}, std::min({k - removed, r_, size_}), out);
      }
      return removed;
    }
    const Snapshot snap = snapshot();
    const std::size_t entry = out.size();
    try {
      std::size_t removed = 0;
      while (removed < k && size_ > 0) {
        removed += step({}, std::min({k - removed, r_, size_}), out);
      }
      return removed;
    } catch (...) {
      restore(snap);
      out.resize(entry);
      throw;
    }
  }

  /// Forces the strong-guarantee path for the batch wrappers even with no
  /// fail-point armed (real allocators and user comparators can throw too).
  void set_batch_guard(bool on) noexcept { batch_guard_ = on; }
  bool batch_guarded() const noexcept {
    return batch_guard_ || robustness::any_armed();
  }

  /// Runs all pending processes to completion (oldest generation first:
  /// deepest level serviced first, so younger processes never observe a
  /// node with an older process still pending below it).
  void drain() {
    while (inflight_ > 0) {
      std::size_t deepest = 0;
      bool found = false;
      for (std::size_t lvl = procs_.size(); lvl-- > 0;) {
        if (!procs_[lvl].empty() || !dels_[lvl].empty()) {
          deepest = lvl;
          found = true;
          break;
        }
      }
      if (!found) break;
      ibatch_.clear();
      dbatch_.clear();
      collect(deepest);
      run_batch([this](std::size_t ngroups,
                       const std::function<void(std::size_t, ServiceCtx&)>& fn) {
        for (std::size_t g = 0; g < ngroups; ++g) fn(g, ctx_);
      });
    }
  }

  /// Verifies structural invariants. Drains first (so not const).
  bool check_invariants(std::string* why = nullptr) {
    drain();
    const std::size_t m = num_nodes();
    for (std::size_t i = 0; i < m; ++i) {
      if (arena_.count(i) != occupancy(i)) {
        return fail(why, "node " + std::to_string(i) + " stored count " +
                             std::to_string(arena_.count(i)) + " != occupancy " +
                             std::to_string(occupancy(i)));
      }
      const auto s = arena_.span(i);
      if (!is_sorted_run(std::span<const T>(s), cmp_)) {
        return fail(why, "node " + std::to_string(i) + " is not sorted");
      }
      for (std::size_t c = 2 * i + 1; c <= 2 * i + 2; ++c) {
        if (c >= m || arena_.count(c) == 0) continue;
        const auto cs = arena_.span(c);
        if (cmp_(cs.front(), s.back())) {
          return fail(why, "heap condition violated between node " +
                               std::to_string(i) + " and child " + std::to_string(c));
        }
      }
    }
    return true;
  }

  /// All contents in ascending order (drains; testing/diagnostics).
  std::vector<T> sorted_contents() {
    drain();
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
  const PipelineStats& pipeline_stats() const noexcept { return pstats_; }
  void reset_stats() noexcept {
    stats_ = HeapStats{};
    pstats_ = PipelineStats{};
  }

  /// A checkpoint of the committed multiset: every stored item plus every
  /// item in flight in a carried set. Taking one is O(n) copying and does
  /// NOT drain — it is valid at any cycle boundary. The pipeline positions
  /// themselves are not captured; restore() rebuilds from the items, which
  /// preserves the deletion stream (the k smallest of a multiset don't
  /// depend on which node holds what).
  struct Snapshot {
    std::vector<T> items;
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.items.reserve(size_);
    for (std::size_t i = 0; i < arena_.nodes(); ++i) {
      const auto node = arena_.span(i);
      s.items.insert(s.items.end(), node.begin(), node.end());
    }
    for (const auto& lvl : procs_) {
      for (const auto& p : lvl) {
        s.items.insert(s.items.end(), p.carried.begin(), p.carried.end());
      }
    }
    PH_ASSERT_MSG(s.items.size() == size_,
                  ("snapshot(): stored + carried items (" +
                   std::to_string(s.items.size()) + ") must equal committed size (" +
                   std::to_string(size_) + ")")
                      .c_str());
    return s;
  }

  /// Rebuilds the heap from a checkpoint, discarding all in-flight state.
  /// After a poisoned cycle (torn batch, mid-cycle throw) this returns the
  /// structure to exactly the checkpointed multiset.
  void restore(const Snapshot& s) { build(std::span<const T>(s.items)); }

  /// Deep self-check that does NOT drain (usable mid-pipeline, const):
  /// conservation (stored + carried == size_), ledger consistency
  /// (inflight_ == parked processes), per-node capacity and sortedness, and
  /// carried-set sortedness. Heap order between parent and child is only
  /// meaningful at quiescence — check_invariants() (draining) covers it.
  bool verify_invariants(std::string* why = nullptr) const {
    std::size_t stored = 0;
    for (std::size_t i = 0; i < arena_.nodes(); ++i) {
      const std::size_t n = arena_.count(i);
      if (n > r_) {
        return fail(why, "node " + std::to_string(i) + " overfull: " + std::to_string(n) +
                             " > r=" + std::to_string(r_));
      }
      if (arena_.head(i) + n > arena_.stride()) {
        return fail(why, "node " + std::to_string(i) + " runs past its slot");
      }
      stored += n;
      if (!is_sorted_run(arena_.span(i), cmp_)) {
        return fail(why, "node " + std::to_string(i) + " is not sorted");
      }
    }
    std::size_t carried = 0;
    std::size_t parked = 0;
    for (const auto& lvl : dels_) parked += lvl.size();
    for (const auto& lvl : procs_) {
      for (const auto& p : lvl) {
        ++parked;
        carried += p.carried.size();
        if (!is_sorted_run(std::span<const T>(p.carried), cmp_)) {
          return fail(why, "carried set of process " + std::to_string(p.id) +
                               " is not sorted");
        }
      }
    }
    if (stored + carried != size_) {
      return fail(why, "conservation violated: stored " + std::to_string(stored) +
                           " + carried " + std::to_string(carried) + " != size " +
                           std::to_string(size_));
    }
    if (parked != inflight_) {
      return fail(why, "inflight ledger mismatch: " + std::to_string(parked) +
                           " parked != inflight " + std::to_string(inflight_));
    }
    return true;
  }

 private:
  static bool fail(std::string* why, std::string msg) {
    if (why) *why = std::move(msg);
    return false;
  }

  /// Committed occupancy of node i (stored + in-flight deliveries); implied
  /// by the contiguous-slot rule.
  std::size_t occupancy(std::size_t i) const noexcept {
    const std::size_t lo = i * r_;
    if (lo >= size_) return 0;
    return std::min(r_, size_ - lo);
  }

  static std::size_t level_of(std::size_t i) noexcept {
    return static_cast<std::size_t>(std::bit_width(i + 1)) - 1;
  }

  /// The kSkipReservice fault's stale check: whether a currently stored
  /// child of node c sorts before c's largest item.
  bool stale_violates(std::size_t c) const {
    const auto sc = arena_.span(c);
    for (std::size_t g = 2 * c + 1; g <= 2 * c + 2; ++g) {
      const auto sg = arena_.span(g);
      if (!sg.empty() && cmp_(sg.front(), sc.back())) return true;
    }
    return false;
  }

  /// Whether a re-service of node c could find anything to repair (see the
  /// file comment): only if c has a committed child.
  bool has_committed_child(std::size_t c) const noexcept { return occupancy(2 * c + 1) > 0; }

  /// Grows both per-level queues to hold level `lvl`.
  void ensure_level(std::size_t lvl) {
    if (procs_.size() <= lvl) {
      procs_.resize(lvl + 1);
      dels_.resize(lvl + 1);
    }
  }

  void note_parked() {
    ++inflight_;
    ++pstats_.procs_spawned;
    pstats_.max_inflight = std::max<std::uint64_t>(pstats_.max_inflight, inflight_);
  }

  void park(ProcT&& p) {
    const std::size_t lvl = level_of(p.node);
    ensure_level(lvl);
    procs_[lvl].push_back(std::move(p));
    note_parked();
  }

  void park_delete(std::size_t node) {
    const std::size_t lvl = level_of(node);
    ensure_level(lvl);
    dels_[lvl].push_back(node);
    note_parked();
  }

  /// Moves level `lvl`'s parked processes onto the batch.
  void collect(std::size_t lvl) {
    dbatch_.insert(dbatch_.end(), dels_[lvl].begin(), dels_[lvl].end());
    inflight_ -= dels_[lvl].size();
    dels_[lvl].clear();
    for (auto& p : procs_[lvl]) ibatch_.push_back(std::move(p));
    inflight_ -= procs_[lvl].size();
    procs_[lvl].clear();
  }

  /// Groups the collected batch by node and runs the groups through the
  /// runner; merges spawned processes and stats afterwards.
  template <typename Runner>
  void run_batch(Runner&& runner) {
    // Node order; within a node delete-updates precede insert-updates, and
    // insert-updates run in spawn order — the deterministic composition for
    // same-generation processes sharing a path prefix. The serial paths park
    // both kinds already in this order (levels are collected ascending, and
    // the groups of ascending nodes spawn their children in ascending
    // order); a runner that merges several contexts may not, so sort then.
    if (!std::is_sorted(dbatch_.begin(), dbatch_.end())) {
      std::sort(dbatch_.begin(), dbatch_.end());
    }
    const auto by_node_id = [](const ProcT& a, const ProcT& b) {
      return a.node != b.node ? a.node < b.node : a.id < b.id;
    };
    if (!std::is_sorted(ibatch_.begin(), ibatch_.end(), by_node_id)) {
      std::sort(ibatch_.begin(), ibatch_.end(), by_node_id);
    }
    const std::size_t nd = dbatch_.size();
    const std::size_t ni = ibatch_.size();
    groups_.clear();
    for (std::size_t d = 0, i = 0; d < nd || i < ni;) {
      const std::size_t node = d == nd   ? ibatch_[i].node
                               : i == ni ? dbatch_[d]
                                         : std::min(dbatch_[d], ibatch_[i].node);
      groups_.push_back(Group{node, d, i});
      while (d < nd && dbatch_[d] == node) ++d;
      while (i < ni && ibatch_[i].node == node) ++i;
    }
    const std::size_t ngroups = groups_.size();
    groups_.push_back(Group{0, nd, ni});

    pstats_.task_groups += ngroups;
    pstats_.max_groups = std::max<std::uint64_t>(pstats_.max_groups, ngroups);
    pstats_.procs_serviced += nd + ni;

    std::function<void(std::size_t, ServiceCtx&)> fn = [this](std::size_t g,
                                                              ServiceCtx& ctx) {
      const Group& grp = groups_[g];
      for (std::size_t d = grp.d; d < groups_[g + 1].d; ++d) service_delete(grp.node, ctx);
      for (std::size_t i = grp.i; i < groups_[g + 1].i; ++i) {
        service_insert(std::move(ibatch_[i]), ctx);
      }
    };
    runner(ngroups, fn);

    // Serial merge of per-worker results. The default serial runner uses
    // ctx_, parallel runners use their own contexts; merge both.
    merge_ctx(ctx_);
  }

 public:
  /// Merges a worker context's spawned processes and stat deltas back into
  /// the heap (must be called serially, once per context, after a parallel
  /// advance_with half-step; the serial paths call it automatically).
  void merge_ctx(ServiceCtx& ctx) {
    for (const std::size_t v : ctx.spawned_dels_) park_delete(v);
    ctx.spawned_dels_.clear();
    for (auto& p : ctx.spawned_) park(std::move(p));
    ctx.spawned_.clear();
    stats_.delete_procs += ctx.stats_.delete_procs;
    stats_.insert_procs += ctx.stats_.insert_procs;
    stats_.nodes_touched += ctx.stats_.nodes_touched;
    stats_.items_merged += ctx.stats_.items_merged;
    stats_.items_written += ctx.stats_.items_written;
    stats_.forward_refills += ctx.stats_.forward_refills;
    stats_.proc_splits += ctx.stats_.proc_splits;
    ctx.stats_ = HeapStats{};
  }

 private:
  /// One node-local delete-update: repairs `v` against its children, pushes
  /// displaced dirty items down, spawns continuations at the children that
  /// received dirty items and have committed children of their own. The
  /// repair reads and writes only v and its children, never a grandchild,
  /// which a same-parity group two levels down may be rewriting
  /// concurrently.
  void service_delete(std::size_t v, ServiceCtx& c) {
    const std::size_t l = 2 * v + 1;
    const std::size_t rc = 2 * v + 2;
    const auto sv = arena_.span(v);
    NodeSlot<T> sl = arena_.slot(l);
    NodeSlot<T> sr = arena_.slot(rc);
    if (sv.empty() || (sl.count == 0 && sr.count == 0)) return;
    ++c.stats_.delete_procs;
    const bool viol_l = sl.count > 0 && cmp_(sl.items().front(), sv.back());
    const bool viol_r = sr.count > 0 && cmp_(sr.items().front(), sv.back());
    if (!viol_l && !viol_r) return;

    // Node-local repair (node_fix.hpp). Unlike the synchronous heap, a
    // child that received fills is re-serviced next half-step whenever it
    // has committed children — the violation check against currently-stored
    // grandchildren can be stale with respect to in-flight processes below,
    // and the deferred re-service (which early-outs in O(1) when clean) is
    // what makes the pipeline sound. A child without committed children is
    // skipped: its re-service would find no stored children and return at
    // once (has_committed_child).
    const FixOutcome<T> out = fix_node(sv, sl, sr, c.fix_, cmp_);
    if (out.taken_l > 0) arena_.commit(l, sl);
    if (out.taken_r > 0) arena_.commit(rc, sr);
    // kSkipReservice re-introduces the documented delete-update revert-note
    // bug: spawn a child's deferred re-service only when the stale violation
    // check (the currently-stored grandchildren) looks dirty. Unsound under
    // pipelining — the check can't see in-flight processes below. This is a
    // wrong-answer fault: nothing throws, the harness must DETECT the bad
    // stream (armed with {nth=1, period=1, max_fires=0} it reproduces the
    // old always-on inject_fault_for_testing behavior). The check reads the
    // grandchildren live, so it runs only when the fault fires, on the
    // serial structure that arms it.
    const bool skip_clean = robustness::fire(robustness::FailSite::kSkipReservice);
    if (out.taken_l > 0 && has_committed_child(l) && !(skip_clean && !stale_violates(l))) {
      c.spawned_dels_.push_back(l);
    }
    if (out.taken_r > 0 && has_committed_child(rc) && !(skip_clean && !stale_violates(rc))) {
      c.spawned_dels_.push_back(rc);
    }
    if (out.taken_l > 0 && out.taken_r > 0) ++c.stats_.proc_splits;
    ++c.stats_.nodes_touched;
    c.stats_.items_merged += out.items_moved;
    c.stats_.items_written += std::exchange(c.fix_.written, 0);
    c.stats_.forward_refills += std::exchange(c.fix_.forward_refills, 0);
  }

  /// One node-local insert-update step: merge the carried set at p.node,
  /// keep the node's r smallest, carry the rest toward p.target; deliver on
  /// arrival.
  void service_insert(ProcT&& p, ServiceCtx& c) {
    ++c.stats_.insert_procs;
    if (p.carried.empty()) return;  // fully stolen while in flight
    const std::size_t v = p.node;
    if (v == p.target) {  // deliver
      c.stats_.items_written += arena_.merge_into(v, std::span<const T>(p.carried), cmp_);
      ++c.stats_.nodes_touched;
      c.stats_.items_merged += arena_.count(v);
      return;
    }
    // Interior path node: full by construction.
    const auto sv = arena_.span(v);
    PH_ASSERT(sv.size() == r_);
    if (cmp_(p.carried.front(), sv.back())) {
      c.kept_.clear();
      c.rest_.clear();
      merge2_split(std::span<const T>(sv.data(), sv.size()),
                   std::span<const T>(p.carried), r_, c.kept_, c.rest_, cmp_);
      std::copy(c.kept_.begin(), c.kept_.end(), sv.begin());
      c.stats_.items_written += r_;
      p.carried.swap(c.rest_);
      ++c.stats_.nodes_touched;
      c.stats_.items_merged += r_ + p.carried.size();
    }
    // Move one level down along the ancestor path of the target.
    p.node = child_toward(v, p.target);
    c.spawned_.push_back(std::move(p));
  }

  /// The child of `v` on the path from `v` to descendant `t` (1-based index
  /// arithmetic: ancestors of t are prefixes of t's binary representation).
  static std::size_t child_toward(std::size_t v, std::size_t t) noexcept {
    const std::size_t v1 = v + 1;
    std::size_t t1 = t + 1;
    const auto dv = static_cast<std::size_t>(std::bit_width(v1));
    const auto dt = static_cast<std::size_t>(std::bit_width(t1));
    PH_ASSERT(dt > dv);
    return (t1 >> (dt - dv - 1)) - 1;
  }

  /// Replaces the content with `items` (build() without the insert count).
  void load(std::span<const T> items) {
    procs_.clear();
    dels_.clear();
    inflight_ = 0;
    // A throw mid-half-step (injected fault, user comparator) can strand
    // already-spawned continuations in the transient scratch; if they
    // survived a rebuild, the next half-step's merge_ctx would park them
    // again and duplicate their carried items.
    ibatch_.clear();
    dbatch_.clear();
    ctx_.spawned_.clear();
    ctx_.spawned_dels_.clear();
    ctx_.stats_ = HeapStats{};
    arena_.build(items, cmp_);
    size_ = items.size();
  }

  /// The root-level work of one cycle (paper step 3).
  std::size_t root_work(std::span<const T> new_items, std::size_t k,
                        std::vector<T>& out) {
    telemetry::SpanScope span(telemetry::Phase::kRootWork);
    // Allocation-failure site at cycle entry: fires before any heap state is
    // touched, modeling the root-work scratch buffers failing to grow.
    robustness::fire_oom(robustness::FailSite::kRootAlloc);
    // A bulk batch (more than 2r items, the limit past which sort_batch
    // treats a batch as a bulk load) into an empty heap is loaded in place as
    // build() loads it; the cycle then goes on as one with no new items. Its
    // output is still the k smallest of the batch, with no batch copy in
    // new_buf_ and no insert-update. Processes still parked carry nothing
    // (size() == 0) and are dropped with the empty content.
    if (size_ == 0 && new_items.size() > 2 * r_) {
      load(new_items);
      new_items = {};
    }
    new_buf_.assign(new_items.begin(), new_items.end());
    // merged_ is free until the root merge below, which grows it to
    // |root| + |batch| anyway: the sort's scratch costs no memory.
    sort_batch(new_buf_, merged_, 2 * r_, cmp_);

    if (size_ == 0) {
      const std::size_t take = std::min(k, new_buf_.size());
      out.insert(out.end(), new_buf_.begin(),
                 new_buf_.begin() + static_cast<std::ptrdiff_t>(take));
      stats_.items_deleted += take;
      if (take < new_buf_.size()) {
        spawn_inserts(std::span<const T>(new_buf_).subspan(take));
      }
      return take;
    }

    const std::size_t root_cnt = arena_.count(0);
    const std::size_t below = size_ - root_cnt;
    // merged_ keeps its high-water size: merge_n writes every item of
    // [0, total), so growing it only to resize it would value-initialise
    // items the merge overwrites.
    const std::size_t total = root_cnt + new_buf_.size();
    if (merged_.size() < total) merged_.resize(total);
    std::size_t ri = 0, bi = 0;
    merge_n(std::span<const T>(arena_.span(0)), ri, std::span<const T>(new_buf_), bi, total,
            merged_.data(), cmp_);
    const std::size_t take = std::min(k, total);
    PH_ASSERT(take == k || below == 0);
    out.insert(out.end(), merged_.begin(),
               merged_.begin() + static_cast<std::ptrdiff_t>(take));
    stats_.items_deleted += take;

    const std::size_t rest = total - take;
    const std::size_t new_total = size_ + new_buf_.size() - take;
    const std::size_t new_root_cnt = std::min(r_, new_total);
    const auto rest_span = std::span<const T>(merged_.data() + take, rest);

    arena_.grow(1);
    if (rest >= new_root_cnt) {
      std::copy(rest_span.begin(),
                rest_span.begin() + static_cast<std::ptrdiff_t>(new_root_cnt),
                arena_.reset(0, new_root_cnt));
      stats_.items_written += new_root_cnt;
      size_ = below + new_root_cnt;
      if (rest > new_root_cnt) {
        spawn_inserts(rest_span.subspan(new_root_cnt));
      }
    } else {
      const std::size_t need = new_root_cnt - rest;
      PH_ASSERT(need <= below);
      subs_.clear();
      take_tail(need, subs_);
      stats_.substitutes += need;
      std::size_t i = 0, j = 0;
      merge_n(rest_span, i, std::span<const T>(subs_), j, new_root_cnt,
              arena_.reset(0, new_root_cnt), cmp_);
      stats_.items_written += new_root_cnt;
      // take_tail already deducted `need`; swapping the old root for the new
      // one nets the rest of the accounting (old root out, rest+subs in).
      size_ = size_ - root_cnt + new_root_cnt;
    }
    if (size_ > arena_.count(0)) park_delete(0);
    return take;
  }

  /// Splits the sorted run into tail-aligned chunks (largest items first)
  /// and spawns one insert-update per chunk at the root level; chunks whose
  /// destination is the root itself are merged in place.
  void spawn_inserts(std::span<const T> sorted) {
    std::size_t remaining = sorted.size();
    while (remaining > 0) {
      // Torn-insert site: fires only once at least one chunk has already
      // committed, so a firing always leaves a genuinely torn batch (part of
      // the insert landed, the rest vanished mid-flight) — the case the
      // strong-guarantee rollback must undo.
      if (remaining < sorted.size()) {
        robustness::fire_fault(robustness::FailSite::kTornInsert);
      }
      const std::size_t used = size_ % r_;
      const std::size_t free_slots = used == 0 ? r_ : r_ - used;
      const std::size_t chunk = std::min(free_slots, remaining);
      const std::size_t target = size_ / r_;
      auto items = sorted.subspan(remaining - chunk, chunk);
      arena_.grow(target + 1);
      if (target == 0) {
        // Root is the tail: place directly.
        stats_.items_written += arena_.merge_into(0, items, cmp_);
      } else {
        // Allocation-failure site: the carried-set vector is the one real
        // allocation on this path.
        robustness::fire_oom(robustness::FailSite::kSpawnAlloc);
        park(ProcT{0, target, next_id_++, std::vector<T>(items.begin(), items.end())});
      }
      size_ += chunk;
      remaining -= chunk;
    }
  }

  /// Removes the last `q` committed items and appends them, sorted, to
  /// `out`. Items still in flight toward the tail are stolen from their
  /// carried sets; materialized items come off stored suffixes. Decrements
  /// size_.
  void take_tail(std::size_t q, std::vector<T>& out) {
    telemetry::SpanScope span(telemetry::Phase::kSteal);
    pieces_.clear();
    while (q > 0) {
      PH_ASSERT(size_ > arena_.count(0));
      const std::size_t lt = (size_ - 1) / r_;
      // Prefer the youngest in-flight delivery to this node: it owns the
      // hindmost committed slots.
      ProcT* victim = nullptr;
      for (auto& lvl : procs_) {
        for (auto& p : lvl) {
          if (p.target != lt || p.carried.empty()) continue;
          if (victim == nullptr || p.id > victim->id) victim = &p;
        }
      }
      std::size_t s;
      if (victim != nullptr) {
        s = std::min(q, victim->carried.size());
        pieces_.emplace_back(victim->carried.end() - static_cast<std::ptrdiff_t>(s),
                             victim->carried.end());
        victim->carried.resize(victim->carried.size() - s);
        pstats_.steals += s;
        // An emptied process stays parked and retires as a no-op.
      } else {
        // No in-flight delivery owns slots here, so the tail node's
        // occupancy is fully materialized.
        const auto sp = arena_.span(lt);
        s = std::min(q, sp.size());
        PH_ASSERT(s > 0);
        pieces_.emplace_back(sp.end() - static_cast<std::ptrdiff_t>(s), sp.end());
        arena_.truncate(lt, sp.size() - s);
      }
      size_ -= s;
      q -= s;
    }
    // Each piece is sorted; merge them all.
    runs_.clear();
    for (const auto& piece : pieces_) runs_.emplace_back(piece.data(), piece.size());
    run_taken_.assign(runs_.size(), 0);
    merge_k(std::span<const std::span<const T>>(runs_), SIZE_MAX,
            std::span<std::size_t>(run_taken_), &out, cmp_);
  }

  std::size_t r_;
  Compare cmp_;
  bool batch_guard_ = false;
  NodeArena<T> arena_;
  std::size_t size_ = 0;
  std::size_t inflight_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<std::vector<ProcT>> procs_;        ///< insert-updates, per level
  std::vector<std::vector<std::size_t>> dels_;   ///< delete-updates (node ids), per level

  HeapStats stats_;
  PipelineStats pstats_;
  ServiceCtx ctx_;  // context for the serial service paths

  // One node's processes in a half-step: dbatch_[d, next.d) and
  // ibatch_[i, next.i); groups_ ends with a sentinel.
  struct Group {
    std::size_t node, d, i;
  };

  // Scratch (reused; the hot path is allocation-free after warm-up).
  std::vector<T> new_buf_, merged_, subs_;
  std::vector<ProcT> ibatch_;
  std::vector<std::size_t> dbatch_;
  std::vector<Group> groups_;
  std::vector<std::vector<T>> pieces_;
  std::vector<std::span<const T>> runs_;
  std::vector<std::size_t> run_taken_;
};

}  // namespace ph
