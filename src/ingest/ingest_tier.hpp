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
//   cycle(fresh, k, out)            driver-only. Swap every slot's buffer
//                                   out under its lock, sort it into a run
//                                   and merge it into the admitted batch
//                                   (merge2 cascade, slot order); then run
//                                   the inner heap's cycle with
//                                   admitted ++ fresh as its fresh items.
//
// Exactness: every staged item is admitted at the very next cycle boundary,
// so the multiset the inner heap receives at cycle c is exactly {direct
// fresh} ∪ {items staged since cycle c-1} — the same multiset a
// direct-insertion run feeds it, in a different order. For uint64 keys the
// delete-min stream is a function of the per-cycle input *multisets*
// (oracle.hpp), so the deletion stream is bit-exact against direct
// insertion at ANY producer count. The differential registry
// (ingest_pipelined / ingest_sharded_strict) and bench_ingest's gate
// re-prove this on every CI run.
//
// Fault injection: the kIngestFlush fail-point models a producer crashing
// mid-flush. It fires BETWEEN slot drains, before the fired slot's buffer is
// merged into the batch; the sweep aborts, the in-flight buffer is
// restaged, and every item is either staged or admitted — nothing is lost
// (the fault matrix drills this; the restaged items are admitted one cycle
// late, which is why fault drills check conservation rather than stream
// equality).
//
// Concurrency contract: stage() is thread-safe and lock-light (one TTAS
// spinlock per producer slot, slots cache-line padded so producers never
// share a line). cycle()/ingest_stats()/check_invariants() are driver-only,
// like every other structure in this repo. stage() concurrent with cycle()
// is allowed: a flush observes either side of each in-flight stage, never a
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
};

/// Driver-side accounting (monotone; read between cycles).
struct IngestStats {
  std::uint64_t flushes = 0;         ///< cycle-boundary slot sweeps
  std::uint64_t flush_faults = 0;    ///< injected mid-flush failures absorbed
  std::uint64_t runs = 0;            ///< sorted runs formed
  std::uint64_t max_run = 0;         ///< largest single run
  std::uint64_t admitted_items = 0;  ///< staged items handed to the inner heap
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

  /// The ingest counters, read from their one copy in the Live block.
  IngestStats ingest_stats() const noexcept {
    const Live& lv = *live_;
    auto get = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    return IngestStats{get(lv.flushes), get(lv.flush_faults), get(lv.runs),
                       get(lv.max_run), get(lv.admitted_items)};
  }

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

  /// Driver-only batch cycle: admit everything staged, then run the inner
  /// heap's cycle with (admitted ++ fresh) as its fresh items.
  std::size_t cycle(std::span<const T> fresh, std::size_t k, std::vector<T>& out) {
    flush_staged();
    batch_.insert(batch_.end(), fresh.begin(), fresh.end());
    return inner_.cycle(batch_, k, out);
  }

  /// Items anywhere in the tier: inner heap + (racy while producers run,
  /// exact at quiescent points) staged buffers.
  std::size_t size() const noexcept {
    return inner_.size() + static_cast<std::size_t>(
                               live_->staged_depth.load(std::memory_order_relaxed));
  }
  bool empty() const noexcept { return size() == 0; }

  /// The inner heap's own invariant check (when it has one). Driver-only.
  bool check_invariants(std::string* why = nullptr) {
    if constexpr (requires(PQ& q, std::string* w) { q.check_invariants(w); }) {
      return inner_.check_invariants(why);
    } else {
      return true;
    }
  }

  /// Lock-free live state (same contract as DurableHeap::Live): producers
  /// bump staged_depth as they stage; every IngestStats counter lives here
  /// once, written by the driver at its one site in flush_staged().
  /// Scrapers never touch the real buffers.
  struct Live {
    std::atomic<std::uint64_t> staged_depth{0};    ///< items sitting in slots
    std::atomic<std::uint64_t> last_flush_ns{0};   ///< duration of last flush
    // IngestStats, field for field.
    std::atomic<std::uint64_t> flushes{0}, flush_faults{0}, runs{0}, max_run{0},
        admitted_items{0};
  };
  const Live& live() const noexcept { return *live_; }

  /// Publishes staged depth, admissions, and flush latency as gauges
  /// ("heap" label distinguishes instances). RAII-deregistered.
  void register_gauges(const std::string& heap = "ingest") {
    gauges_.clear();
    static constexpr obs::GaugeField<Live> kFields[] = {
        {"ingest_staged_depth", "Items staged in producer buffers, not yet flushed.", &Live::staged_depth},
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

  /// Drains every slot into batch_: each buffer is sorted into a run and
  /// merged into the batch in slot order. The kIngestFlush site fires
  /// between slot drains: the drained slots' runs are already in the batch,
  /// the fired slot's buffer is restaged, the rest stay staged — nothing is
  /// lost on any abort point.
  void flush_staged() {
    telemetry::SpanScope span(telemetry::Phase::kIngestFlush);
    Timer t;
    Live& lv = *live_;
    std::uint64_t runs = 0, max_run = 0;
    batch_.clear();
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
        // Producer died mid-flush: put the un-merged buffer back (order
        // within a slot is irrelevant under multiset semantics) and abort
        // the sweep; the next cycle retries.
        {
          std::lock_guard<Spinlock> g(s.mu);
          s.buf.insert(s.buf.begin(), scratch_.begin(), scratch_.end());
        }
        obs::bump(lv.flush_faults);
        robustness::note_recovery(robustness::FailSite::kIngestFlush);
        break;
      }
      lv.staged_depth.fetch_sub(scratch_.size(), std::memory_order_relaxed);
      std::sort(scratch_.begin(), scratch_.end(), cmp_);
      ++runs;
      max_run = std::max<std::uint64_t>(max_run, scratch_.size());
      merge_buf_.clear();
      merge2(std::span<const T>(batch_), std::span<const T>(scratch_), merge_buf_, cmp_);
      batch_.swap(merge_buf_);
    }
    obs::bump(lv.flushes);
    obs::bump(lv.runs, runs);
    obs::bump(lv.admitted_items, batch_.size());
    if (max_run > lv.max_run.load(std::memory_order_relaxed)) {
      lv.max_run.store(max_run, std::memory_order_relaxed);
    }
    telemetry::count(telemetry::Counter::kIngestRuns, runs);
    if (runs > 0) obs::flight(obs::FlightKind::kIngestFlush, runs, batch_.size());
    lv.last_flush_ns.store(t.nanos(), std::memory_order_relaxed);
  }

  PQ inner_;
  IngestConfig cfg_;
  Compare cmp_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<T> scratch_, merge_buf_, batch_;
  std::unique_ptr<Live> live_;
  obs::GaugeSet gauges_;
};

}  // namespace ph::ingest
