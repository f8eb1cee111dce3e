// Insert-optimized ingestion tier: per-producer staging buffers feeding the
// batch-cycle heaps (PIPQ-style frontend; see PAPERS.md and DESIGN.md §13).
//
// The paper's pipelined heap serializes every insert through the O(r) root
// merge, which caps write throughput long before the delete pipeline
// saturates. PIPQ shows strict semantics can coexist with an insert-optimized
// frontend: producers append into private buffers, and the consumer absorbs
// whole buffers as sorted runs at its own batch granularity. This tier is
// that frontend for any PQ exposing the cycle(fresh, k, out) surface
// (PipelinedParallelHeap, ShardedHeap, DurableHeap, ...):
//
//   producers --> stage(p, items)   padded per-producer slots, one Spinlock
//                                   each; a stage() touches only its own slot
//   cycle(fresh, k, out)            driver-only. 1) FLUSH: swap every slot's
//                                   buffer out under its lock and sort it
//                                   into a run; 2) ADMIT: pick pending runs
//                                   per the staleness policy and coalesce
//                                   them (merge2 cascade) into one sorted
//                                   batch; 3) run the inner heap's cycle with
//                                   admitted ++ fresh as its fresh items.
//
// Strict mode (staleness == 0) — the exactness argument: every staged item
// is admitted at the very next cycle boundary, so the multiset the inner
// heap receives at cycle c is exactly {direct fresh} ∪ {items staged since
// cycle c-1} — the same multiset a direct-insertion run feeds it, in a
// different order. For uint64 keys the delete-min stream is a function of
// the per-cycle input *multisets* (oracle.hpp), so the deletion stream is
// bit-exact against direct insertion at ANY producer count. The differential
// registry (ingest_pipelined / ingest_sharded_strict) and bench_ingest's
// gate re-prove this on every CI run.
//
// Bounded-staleness mode (staleness = S > 0) — MultiQueues-style relaxation
// for consumers that tolerate lag: a flushed run may sit pending for at most
// S cycle boundaries before it must be admitted (it is admitted sooner once
// pending items reach admit_min_items, which amortizes tiny runs into wider
// batch inserts). An item staged before cycle c is therefore visible to the
// consumer no later than cycle c + S: delete-min may miss a fresher minimum
// by up to S cycles of inserts, but items are never lost, duplicated, or
// reordered within a run (the harness checks this under
// DiffOptions::bounded_lag conservation).
//
// Fault injection: the kIngestFlush fail-point models a producer crashing
// mid-flush. It fires BETWEEN slot drains, before the fired slot's buffer is
// committed as a run; the sweep aborts, the in-flight buffer is restaged,
// and every item remains either staged or pending — nothing is lost (the
// fault matrix drills this; strict admission simply lags one cycle, which is
// why fault drills check conservation rather than stream equality).
//
// Concurrency contract: stage() is thread-safe and lock-light (one TTAS
// spinlock per producer slot, slots cache-line padded so producers never
// share a line). cycle()/stats()/check_invariants() are driver-only, like
// every other structure in this repo. stage() concurrent with cycle() is
// allowed: a flush observes either side of each in-flight stage, never a
// torn buffer.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/sorted_ops.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "robustness/failpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cacheline.hpp"
#include "util/spinlock.hpp"
#include "util/timer.hpp"

namespace ph::ingest {

struct IngestConfig {
  /// Staging slots. Producers hash onto slots modulo this, so any number of
  /// real threads may stage; contention is per-slot only.
  std::size_t producers = 1;
  /// 0 = strict (every staged item admitted at the next cycle boundary,
  /// bit-exact vs direct insertion); S > 0 = a flushed run may lag at most S
  /// cycle boundaries before admission.
  std::size_t staleness = 0;
  /// Bounded-staleness only: admit everything once pending items reach this
  /// many (0 = admit on lag alone). Lets tiny runs pool into wide batches.
  std::size_t admit_min_items = 0;
};

/// Driver-side accounting (monotone; read between cycles).
struct IngestStats {
  std::uint64_t staged = 0;          ///< items drained out of producer slots
  std::uint64_t flushes = 0;         ///< cycle-boundary slot sweeps
  std::uint64_t flush_faults = 0;    ///< injected mid-flush failures absorbed
  std::uint64_t runs = 0;            ///< sorted runs formed
  std::uint64_t max_run = 0;         ///< largest single run
  std::uint64_t admitted_runs = 0;   ///< runs handed to the inner heap
  std::uint64_t admitted_items = 0;  ///< items in those runs
  std::uint64_t deferred_runs = 0;   ///< run-cycles spent pending (relaxed)
  std::uint64_t max_lag = 0;         ///< worst admission lag seen, in cycles
};

template <typename PQ, typename T = typename PQ::value_type,
          typename Compare = std::less<T>>
class IngestTier {
 public:
  using value_type = T;

  IngestTier(PQ inner, IngestConfig cfg, Compare cmp = Compare())
      : inner_(std::move(inner)), cfg_(cfg), cmp_(cmp) {
    if (cfg_.producers == 0) cfg_.producers = 1;
    slots_.reserve(cfg_.producers);
    for (std::size_t p = 0; p < cfg_.producers; ++p) {
      slots_.push_back(std::make_unique<Slot>());
    }
    live_ = std::make_unique<Live>();
  }

  PQ& inner() noexcept { return inner_; }
  const PQ& inner() const noexcept { return inner_; }
  const IngestConfig& config() const noexcept { return cfg_; }
  const IngestStats& ingest_stats() const noexcept { return stats_; }

  /// Producer-side: append items to this producer's staging buffer. Safe
  /// from any thread, concurrent with other producers and with cycle().
  void stage(std::size_t producer, std::span<const T> items) {
    if (items.empty()) return;
    Slot& s = *slots_[producer % slots_.size()];
    {
      std::lock_guard<Spinlock> g(s.mu);
      s.buf.insert(s.buf.end(), items.begin(), items.end());
    }
    live_->staged_depth.fetch_add(items.size(), std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::kIngestStaged, items.size());
  }
  void stage(std::size_t producer, const T& v) { stage(producer, std::span<const T>(&v, 1)); }

  /// Driver-only batch cycle: flush + admit staged work, then run the inner
  /// heap's cycle with (admitted ++ fresh) as its fresh items.
  std::size_t cycle(std::span<const T> fresh, std::size_t k, std::vector<T>& out) {
    ++cycle_no_;
    flush_staged();
    admit();
    batch_.assign(admitted_.begin(), admitted_.end());
    batch_.insert(batch_.end(), fresh.begin(), fresh.end());
    return inner_.cycle(batch_, k, out);
  }

  /// Items anywhere in the tier: inner heap + pending runs + (racy while
  /// producers run, exact at quiescent points) staged buffers.
  std::size_t size() const noexcept {
    return inner_.size() + pending_items_ +
           static_cast<std::size_t>(
               live_->staged_depth.load(std::memory_order_relaxed));
  }
  bool empty() const noexcept { return size() == 0; }

  /// Pending (flushed, not yet admitted) runs/items — 0 in strict mode
  /// between cycles.
  std::size_t pending_runs() const noexcept { return pending_.size(); }
  std::size_t pending_items() const noexcept { return pending_items_; }

  /// Tier invariants: every pending run is a sorted run born no earlier than
  /// staleness allows, the pending-items ledger matches, then the inner
  /// heap's own check (when it has one). Driver-only.
  bool check_invariants(std::string* why = nullptr) {
    std::size_t items = 0;
    for (const Run& r : pending_) {
      if (!is_sorted_run(std::span<const T>(r.items), cmp_)) {
        if (why) *why = "pending ingest run is not sorted";
        return false;
      }
      if (cfg_.staleness != 0 && cycle_no_ - r.born > cfg_.staleness) {
        if (why) {
          *why = "pending ingest run exceeds the staleness bound (lag " +
                 std::to_string(cycle_no_ - r.born) + " > S = " +
                 std::to_string(cfg_.staleness) + ")";
        }
        return false;
      }
      items += r.items.size();
    }
    if (items != pending_items_) {
      if (why) *why = "pending-items ledger out of sync";
      return false;
    }
    if constexpr (requires(PQ& q, std::string* w) { q.check_invariants(w); }) {
      return inner_.check_invariants(why);
    } else {
      return true;
    }
  }

  /// Lock-free mirror for gauge callbacks (same contract as ShardedHeap::
  /// Live): producers bump staged_depth as they stage; the driver refreshes
  /// the rest at each cycle boundary. Scrapers never touch the real buffers.
  struct Live {
    std::atomic<std::uint64_t> staged_depth{0};    ///< items sitting in slots
    std::atomic<std::uint64_t> pending_runs{0};
    std::atomic<std::uint64_t> pending_items{0};
    std::atomic<std::uint64_t> admitted_items{0};  ///< cumulative
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> max_run{0};
    std::atomic<std::uint64_t> last_flush_ns{0};   ///< duration of last flush
  };
  const Live& live() const noexcept { return *live_; }

  /// Publishes staged depth, pending backlog, and flush latency as gauges
  /// ("heap" label distinguishes instances). RAII-deregistered.
  void register_gauges(const std::string& heap = "ingest") {
    gauges_.clear();
    static constexpr obs::GaugeField<Live> kFields[] = {
        {"ingest_staged_depth", "Items staged in producer buffers, not yet flushed.", &Live::staged_depth},
        {"ingest_pending_runs", "Flushed runs awaiting admission.", &Live::pending_runs},
        {"ingest_pending_items", "Items in flushed runs awaiting admission.", &Live::pending_items},
        {"ingest_admitted_items", "Staged items admitted to the inner heap (cumulative).", &Live::admitted_items},
        {"ingest_flushes", "Cycle-boundary staging sweeps (cumulative).", &Live::flushes},
        {"ingest_max_run", "Largest sorted run coalesced so far.", &Live::max_run},
        {"ingest_last_flush_ns", "Wall-clock duration of the last flush sweep.", &Live::last_flush_ns},
    };
    gauges_.add_fields(live_.get(), {{"heap", heap}}, kFields);
  }

 private:
  struct alignas(kCacheLine) Slot {
    Spinlock mu;
    std::vector<T> buf;
  };

  struct Run {
    std::vector<T> items;       ///< sorted ascending under cmp_
    std::uint64_t born = 0;     ///< cycle_no_ at flush time
  };

  /// Phase 1: drain every slot into a sorted pending run. The kIngestFlush
  /// site fires between slot drains: the drained slots' runs are already
  /// pending, the fired slot's buffer is restaged, the rest stay staged —
  /// nothing is lost on any abort point.
  void flush_staged() {
    telemetry::SpanScope span(telemetry::Phase::kIngestFlush);
    Timer t;
    std::uint64_t runs = 0, items = 0;
    for (auto& slot : slots_) {
      Slot& s = *slot;
      scratch_.clear();
      {
        std::lock_guard<Spinlock> g(s.mu);
        scratch_.swap(s.buf);
      }
      if (scratch_.empty()) continue;
      try {
        robustness::fire_fault(robustness::FailSite::kIngestFlush);
      } catch (const robustness::InjectedFailure&) {
        // Producer died mid-flush: put the un-committed buffer back (order
        // within a slot is irrelevant under multiset semantics) and abort
        // the sweep; the next cycle retries.
        {
          std::lock_guard<Spinlock> g(s.mu);
          s.buf.insert(s.buf.begin(), scratch_.begin(), scratch_.end());
        }
        ++stats_.flush_faults;
        robustness::note_recovery(robustness::FailSite::kIngestFlush);
        break;
      }
      live_->staged_depth.fetch_sub(scratch_.size(), std::memory_order_relaxed);
      std::sort(scratch_.begin(), scratch_.end(), cmp_);
      Run r;
      r.items.swap(scratch_);
      r.born = cycle_no_;
      items += r.items.size();
      ++runs;
      stats_.staged += r.items.size();
      stats_.max_run = std::max<std::uint64_t>(stats_.max_run, r.items.size());
      pending_items_ += r.items.size();
      pending_.push_back(std::move(r));
    }
    ++stats_.flushes;
    stats_.runs += runs;
    telemetry::count(telemetry::Counter::kIngestRuns, runs);
    if (runs > 0) obs::flight(obs::FlightKind::kIngestFlush, runs, items);
    live_->flushes.fetch_add(1, std::memory_order_relaxed);
    live_->max_run.store(stats_.max_run, std::memory_order_relaxed);
    live_->last_flush_ns.store(t.nanos(), std::memory_order_relaxed);
    publish_pending();
  }

  /// Phase 2: choose the admitted prefix of pending_ (runs are appended in
  /// flush order, so pending_ is ordered by born cycle and lag-based
  /// admission is a prefix cut) and coalesce it into one sorted batch.
  void admit() {
    std::size_t cut;
    if (cfg_.staleness == 0) {
      cut = pending_.size();  // strict: everything, every cycle
    } else if (cfg_.admit_min_items != 0 && pending_items_ >= cfg_.admit_min_items) {
      cut = pending_.size();  // backlog wide enough: take it all now
    } else {
      cut = 0;
      while (cut < pending_.size() &&
             cycle_no_ - pending_[cut].born >= cfg_.staleness) {
        ++cut;
      }
    }

    admitted_.clear();
    for (std::size_t i = 0; i < cut; ++i) {
      const Run& r = pending_[i];
      stats_.max_lag = std::max<std::uint64_t>(stats_.max_lag, cycle_no_ - r.born);
      merge_buf_.clear();
      merge2(std::span<const T>(admitted_), std::span<const T>(r.items),
             merge_buf_, cmp_);
      admitted_.swap(merge_buf_);
    }
    if (cut > 0) {
      stats_.admitted_runs += cut;
      stats_.admitted_items += admitted_.size();
      pending_items_ -= admitted_.size();
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(cut));
      live_->admitted_items.fetch_add(admitted_.size(), std::memory_order_relaxed);
    }
    stats_.deferred_runs += pending_.size();
    publish_pending();
  }

  void publish_pending() noexcept {
    live_->pending_runs.store(pending_.size(), std::memory_order_relaxed);
    live_->pending_items.store(pending_items_, std::memory_order_relaxed);
  }

  PQ inner_;
  IngestConfig cfg_;
  Compare cmp_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Run> pending_;
  std::size_t pending_items_ = 0;
  std::uint64_t cycle_no_ = 0;
  std::vector<T> scratch_, admitted_, merge_buf_, batch_;
  IngestStats stats_;
  std::unique_ptr<Live> live_;
  obs::GaugeSet gauges_;
};

}  // namespace ph::ingest
