// Registry of every batch-PQ structure the stress harness can drive.
//
// A structure is named by a string (stored inside each OpTrace, so a
// reproducer file is self-contained) and constructed fresh per run from the
// trace's node capacity r. All structures are driven through the common
// cycle(fresh, k, out) interface; per-structure invariant strides account
// for the cost/side effects of their check_invariants (the pipelined heap's
// check drains the pipeline, so it runs rarely — the per-cycle deletion
// stream is the primary detector there).
//
// "pipelined_heap_faulty" re-introduces the documented delete-update
// revert-note bug (skip the deferred child re-service when the stale
// violation check looks clean; see pipelined_heap.hpp) and exists so the
// harness can prove it detects exactly the class of bug differential testing
// caught historically. It is not part of default_structures().
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/binary_heap.hpp"
#include "baselines/calendar_queue.hpp"
#include "baselines/dary_heap.hpp"
#include "baselines/leftist_heap.hpp"
#include "baselines/local_heaps.hpp"
#include "baselines/locked_pq.hpp"
#include "baselines/pairing_heap.hpp"
#include "baselines/pq_concepts.hpp"
#include "baselines/skew_heap.hpp"
#include "core/engine.hpp"
#include "core/parallel_heap.hpp"
#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "ingest/ingest_tier.hpp"
#include "persist/recovery.hpp"
#include "robustness/failpoint.hpp"
#include "testing/differential.hpp"
#include "testing/op_trace.hpp"
#include "util/thread_pool.hpp"

namespace ph::testing {

namespace structures_detail {
struct U64Key {
  double operator()(std::uint64_t v) const noexcept { return static_cast<double>(v); }
};
}  // namespace structures_detail

/// Pipelined heap whose half-steps dispatch node groups across a real
/// ThreadTeam (the engine's maintenance-path idiom, engine.hpp). The
/// deletion stream must be identical to "pipelined_heap" — group order is
/// irrelevant by design — so this both differentially tests the parallel
/// dispatch path and gives schedule-fuzzed soaks ThreadTeam/SenseBarrier
/// crossings to perturb on every cycle.
class MtPipelinedHeapAdapter {
 public:
  explicit MtPipelinedHeapAdapter(std::size_t r, unsigned threads = 2)
      : q_(r), team_(threads, /*pin=*/false, "stress-maint"), ctx_(threads) {}

  std::size_t cycle(std::span<const std::uint64_t> fresh, std::size_t k,
                    std::vector<std::uint64_t>& out) {
    advance_mt(1);
    const std::size_t n = q_.root_work_public(fresh, k, out);
    advance_mt(0);
    return n;
  }

  bool check_invariants(std::string* why) { return q_.check_invariants(why); }

 private:
  using Heap = PipelinedParallelHeap<std::uint64_t>;

  void advance_mt(std::size_t parity) {
    q_.advance_with(
        parity, [this](std::size_t ngroups,
                       const std::function<void(std::size_t, Heap::ServiceCtx&)>& fn) {
          const unsigned mt = team_.size();
          team_.run([&](unsigned tid) {
            for (std::size_t g = tid; g < ngroups; g += mt) fn(g, ctx_[tid]);
          });
          for (auto& c : ctx_) q_.merge_ctx(c);
        });
  }

  Heap q_;
  ThreadTeam team_;
  std::vector<Heap::ServiceCtx> ctx_;
};

/// LocalHeaps driven as a batch PQ: round-robin pushes across partitions,
/// pops rotate the home partition (steal scan makes try_pop fail only when
/// globally empty, so the batch always returns min(k, size) items). A local
/// pop is a partition minimum, not the global one, so this structure runs
/// under DiffOptions::relaxed (conservation checking).
class LocalHeapsBatchAdapter {
 public:
  explicit LocalHeapsBatchAdapter(std::size_t /*r*/, std::size_t partitions = 4)
      : q_(partitions), parts_(partitions) {}

  std::size_t cycle(std::span<const std::uint64_t> fresh, std::size_t k,
                    std::vector<std::uint64_t>& out) {
    for (std::uint64_t v : fresh) q_.push(v, push_cursor_++ % parts_);
    std::size_t n = 0;
    for (; n < k; ++n) {
      std::uint64_t v = 0;
      if (!q_.try_pop(pop_cursor_++ % parts_, v)) break;
      out.push_back(v);
    }
    return n;
  }

 private:
  LocalHeaps<std::uint64_t> q_;
  std::size_t parts_;
  std::size_t push_cursor_ = 0;
  std::size_t pop_cursor_ = 0;
};

/// LocalHeaps under real thread concurrency: a ThreadTeam pushes the batch
/// (each worker into its own home partition), a barrier, then the team pops
/// its share of k concurrently. The barrier between phases is what makes the
/// *count* deterministic — during the pop phase nothing is pushed, so a
/// partition observed empty stays empty, a fully failed steal scan implies
/// the structure is globally empty, and the batch total is exactly
/// min(k, size) on every schedule even though which thread pops which item
/// (and hence the output order) is schedule-dependent. Conservation checking
/// is order-blind, so this is differentially testable; schedule fuzzing
/// perturbs the team's barrier crossings underneath it.
class MtLocalHeapsAdapter {
 public:
  explicit MtLocalHeapsAdapter(std::size_t /*r*/, unsigned threads = 2)
      : q_(threads), team_(threads, /*pin=*/false, "stress-local"),
        per_thread_(threads) {}

  std::size_t cycle(std::span<const std::uint64_t> fresh, std::size_t k,
                    std::vector<std::uint64_t>& out) {
    const unsigned mt = team_.size();
    team_.run([&](unsigned tid) {
      for (std::size_t i = tid; i < fresh.size(); i += mt) q_.push(fresh[i], tid);
    });
    team_.run([&](unsigned tid) {
      auto& mine = per_thread_[tid];
      mine.clear();
      // Thread tid attempts pops i = tid, tid+mt, ... < k (a fair split of k).
      for (std::size_t i = tid; i < k; i += mt) {
        std::uint64_t v = 0;
        if (!q_.try_pop(tid, v)) break;
        mine.push_back(v);
      }
    });
    std::size_t n = 0;
    for (const auto& mine : per_thread_) {
      out.insert(out.end(), mine.begin(), mine.end());
      n += mine.size();
    }
    return n;
  }

 private:
  LocalHeaps<std::uint64_t> q_;
  ThreadTeam team_;
  std::vector<std::vector<std::uint64_t>> per_thread_;
};

/// The engine's maintenance rotation (engine.hpp advance_both): root work
/// first, then the even and odd half-steps dispatched across a maintenance
/// ThreadTeam. Flattened over repeated cycles this is the same half-step
/// alternation as PipelinedParallelHeap::step() — the leading advance(1) of
/// step() on an empty pipeline is a no-op — so the deletion stream must stay
/// bit-identical to "pipelined_heap"; this covers the engine-level schedule
/// (and its trace points) differentially, which ROADMAP listed as untested.
class EnginePipelineAdapter {
 public:
  explicit EnginePipelineAdapter(std::size_t r, unsigned threads = 2)
      : q_(r), team_(threads, /*pin=*/false, "stress-engine"), ctx_(threads) {}

  std::size_t cycle(std::span<const std::uint64_t> fresh, std::size_t k,
                    std::vector<std::uint64_t>& out) {
    const std::size_t n = q_.root_work_public(fresh, k, out);
    advance_mt(0);
    advance_mt(1);
    return n;
  }

  bool check_invariants(std::string* why) { return q_.check_invariants(why); }

 private:
  using Heap = PipelinedParallelHeap<std::uint64_t>;

  void advance_mt(std::size_t parity) {
    q_.advance_with(
        parity, [this](std::size_t ngroups,
                       const std::function<void(std::size_t, Heap::ServiceCtx&)>& fn) {
          const unsigned mt = team_.size();
          team_.run([&](unsigned tid) {
            for (std::size_t g = tid; g < ngroups; g += mt) fn(g, ctx_[tid]);
          });
          for (auto& c : ctx_) q_.merge_ctx(c);
        });
  }

  Heap q_;
  ThreadTeam team_;
  std::vector<Heap::ServiceCtx> ctx_;
};

/// The engine's public batch surface (engine.hpp cycle()): root work through
/// the engine, then both maintenance half-steps dispatched across its own
/// maintenance ThreadTeam. Unlike EnginePipelineAdapter — which rebuilds the
/// dispatch by hand around a bare heap — this drives ParallelHeapEngine
/// itself, so the engine's worker assignment, trace spans, and watchdog
/// plumbing all sit inside the differentially-tested path. Deletion stream
/// must stay bit-identical to "pipelined_heap".
class EngineTeamAdapter {
 public:
  explicit EngineTeamAdapter(std::size_t r, unsigned maint = 2)
      : eng_(make_cfg(r, maint)) {}

  std::size_t cycle(std::span<const std::uint64_t> fresh, std::size_t k,
                    std::vector<std::uint64_t>& out) {
    return eng_.cycle(fresh, k, out);
  }

  bool check_invariants(std::string* why) {
    return eng_.heap().check_invariants(why);
  }

 private:
  static EngineConfig make_cfg(std::size_t r, unsigned maint) {
    EngineConfig c;
    c.node_capacity = r;
    c.think_threads = 0;  // no think team: cycle() is the driver here
    c.maintenance_threads = maint;
    return c;
  }

  ParallelHeapEngine<std::uint64_t> eng_;
};

/// DurableHeap over the pipelined heap, with the recovery path itself inside
/// the soak loop: every `reopen_every` cycles the adapter CLOSES the durable
/// heap and re-opens it from disk (checkpoint load + WAL replay), so a long
/// stress run restarts the structure dozens of times mid-trace. The deletion
/// stream must stay bit-exact against the oracle across every restart —
/// that's the whole durability claim, soak-tested.
class DurablePipelinedAdapter {
 public:
  explicit DurablePipelinedAdapter(std::size_t r, std::size_t reopen_every = 50)
      : r_(r), reopen_every_(reopen_every), dir_(persist::make_temp_dir("ph-durable")) {
    open();
  }

  DurablePipelinedAdapter(const DurablePipelinedAdapter&) = delete;
  DurablePipelinedAdapter& operator=(const DurablePipelinedAdapter&) = delete;

  ~DurablePipelinedAdapter() {
    q_.reset();  // close the WAL before sweeping the directory
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::size_t cycle(std::span<const std::uint64_t> fresh, std::size_t k,
                    std::vector<std::uint64_t>& out) {
    if (++cycles_ % reopen_every_ == 0) {
      q_.reset();
      open();  // full recovery: newest checkpoint + WAL tail replay
    }
    return q_->cycle(fresh, k, out);
  }

  bool check_invariants(std::string* why) { return q_->check_invariants(why); }

 private:
  void open() {
    persist::DurableOptions opt;
    opt.dir = dir_;
    opt.fsync = persist::FsyncPolicy::kNever;  // soak targets logic, not disks
    opt.checkpoint_interval = 24;
    q_.emplace(PipelinedParallelHeap<std::uint64_t>(r_), opt);
  }

  std::size_t r_;
  std::size_t reopen_every_;
  std::string dir_;
  std::size_t cycles_ = 0;
  std::optional<persist::DurableHeap<PipelinedParallelHeap<std::uint64_t>>> q_;
};

/// The ingestion tier (ingest/ingest_tier.hpp) over an inner batch heap,
/// driven so every trace item arrives through the staging buffers: the
/// adapter stages each fresh item into one of `producers` slots round-robin
/// (standing in for that many producer threads — slot assignment is
/// irrelevant to the admitted multiset), then cycles the tier with NO direct
/// fresh items. Every staged item is admitted at the next cycle boundary,
/// so the deletion stream must be bit-exact against the oracle — the tier's
/// headline claim, differentially tested.
template <typename Inner>
class IngestTierAdapter {
 public:
  IngestTierAdapter(Inner inner, ingest::IngestConfig cfg)
      : tier_(std::move(inner), cfg) {}

  std::size_t cycle(std::span<const std::uint64_t> fresh, std::size_t k,
                    std::vector<std::uint64_t>& out) {
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      tier_.stage(i % tier_.config().producers, fresh[i]);
    }
    return tier_.cycle({}, k, out);
  }

  bool check_invariants(std::string* why) { return tier_.check_invariants(why); }

 private:
  ingest::IngestTier<Inner, std::uint64_t> tier_;
};

/// The structures every stress run covers by default.
inline const std::vector<std::string>& default_structures() {
  static const std::vector<std::string> names = {
      "parallel_heap",      "parallel_heap_d4",   "pipelined_heap",
      "pipelined_heap_mt",  "locked_binary_heap",
      "batch_binary_heap",  "batch_dary4_heap",   "batch_skew_heap",
      "batch_pairing_heap", "batch_leftist_heap", "batch_calendar_queue",
      "sharded_heap",       "engine_pipeline",    "engine_team",
      "local_heaps",        "local_heaps_mt",     "durable_pipelined",
      "ingest_pipelined",   "ingest_sharded_strict"};
  return names;
}

/// Runs `trace` against the structure it names (fresh instance) and the
/// oracle. Unknown names fail immediately rather than passing vacuously.
inline DiffFailure run_trace(const OpTrace& t) {
  using U64 = std::uint64_t;
  const std::string& s = t.structure;
  DiffOptions opt;
  if (s == "parallel_heap") {
    opt.invariant_stride = 1;  // non-mutating full-tree scan
    ParallelHeap<U64> q(t.r);
    return run_differential(q, t, opt);
  }
  if (s == "parallel_heap_d4") {
    opt.invariant_stride = 1;
    ParallelHeap<U64> q(t.r, {}, 4);
    return run_differential(q, t, opt);
  }
  if (s == "pipelined_heap" || s == "pipelined_heap_faulty") {
    opt.invariant_stride = 64;  // check drains the pipeline: keep it rare
    PipelinedParallelHeap<U64> q(t.r);
    if (s == "pipelined_heap_faulty") {
      // The historical revert-note bug, re-introduced through the fail-point
      // registry (the one injection mechanism): fire on every evaluation,
      // unbounded — the registry-spec equivalent of the old always-on
      // inject_fault_for_testing(kSkipDeferredReservice). The structure name
      // is what repro files reference; it stays stable across the migration.
      if (!robustness::kFailpoints) {
        DiffFailure f;
        f.failed = true;
        f.message =
            "pipelined_heap_faulty requires a PH_FAILPOINTS=ON build "
            "(fail-point registry compiled out)";
        return f;
      }
      robustness::arm(robustness::FailSite::kSkipReservice,
                      robustness::FireSpec{/*nth=*/1, /*period=*/1,
                                           /*max_fires=*/0, /*stall_us=*/0});
      DiffFailure f = run_differential(q, t, opt);
      robustness::disarm(robustness::FailSite::kSkipReservice);
      return f;
    }
    return run_differential(q, t, opt);
  }
  if (s == "pipelined_heap_mt") {
    opt.invariant_stride = 64;
    MtPipelinedHeapAdapter q(t.r);
    return run_differential(q, t, opt);
  }
  if (s == "locked_binary_heap") {
    LockedPQ<BinaryHeap<U64>, U64> q;
    return run_differential(q, t, opt);
  }
  if (s == "batch_binary_heap") {
    BatchAdapter<BinaryHeap<U64>, U64> q;
    return run_differential(q, t, opt);
  }
  if (s == "batch_dary4_heap") {
    BatchAdapter<DaryHeap<U64, 4>, U64> q;
    return run_differential(q, t, opt);
  }
  if (s == "batch_skew_heap") {
    BatchAdapter<SkewHeap<U64>, U64> q;
    return run_differential(q, t, opt);
  }
  if (s == "batch_pairing_heap") {
    BatchAdapter<PairingHeap<U64>, U64> q;
    return run_differential(q, t, opt);
  }
  if (s == "batch_leftist_heap") {
    BatchAdapter<LeftistHeap<U64>, U64> q;
    return run_differential(q, t, opt);
  }
  if (s == "batch_calendar_queue") {
    BatchAdapter<CalendarQueue<U64, structures_detail::U64Key>, U64> q;
    return run_differential(q, t, opt);
  }
  if (s == "sharded_heap") {
    opt.invariant_stride = 64;  // drains every shard's pipeline
    ShardedHeap<U64> q(t.r, ShardedHeap<U64>::Config{/*shards=*/3});
    return run_differential(q, t, opt);
  }
  if (s == "engine_pipeline") {
    opt.invariant_stride = 64;
    EnginePipelineAdapter q(t.r);
    return run_differential(q, t, opt);
  }
  if (s == "engine_team") {
    opt.invariant_stride = 64;
    EngineTeamAdapter q(t.r);
    return run_differential(q, t, opt);
  }
  if (s == "local_heaps") {
    opt.relaxed = true;  // partition-local pops: conservation, not ordering
    LocalHeapsBatchAdapter q(t.r);
    return run_differential(q, t, opt);
  }
  if (s == "local_heaps_mt") {
    opt.relaxed = true;
    MtLocalHeapsAdapter q(t.r);
    return run_differential(q, t, opt);
  }
  if (s == "durable_pipelined") {
    opt.invariant_stride = 64;
    DurablePipelinedAdapter q(t.r);
    return run_differential(q, t, opt);
  }
  if (s == "ingest_pipelined") {
    // Strict staging over the pipelined heap: 4 producer slots, everything
    // admitted at the next boundary — stream must be bit-exact.
    opt.invariant_stride = 64;
    ingest::IngestConfig ic;
    ic.producers = 4;
    IngestTierAdapter<PipelinedParallelHeap<U64>> q(
        PipelinedParallelHeap<U64>(t.r), ic);
    return run_differential(q, t, opt);
  }
  if (s == "ingest_sharded_strict") {
    // Staging over a 3-shard heap — the full producer → staging → route →
    // shard pipeline, bit-exact.
    opt.invariant_stride = 64;
    ingest::IngestConfig ic;
    ic.producers = 4;
    IngestTierAdapter<ShardedHeap<U64>> q(ShardedHeap<U64>(t.r, {/*shards=*/3}), ic);
    return run_differential(q, t, opt);
  }
  return {true, 0, "unknown structure '" + s + "' (see structures.hpp)"};
}

}  // namespace ph::testing
