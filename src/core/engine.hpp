// ParallelHeapEngine — the multithreaded driver around the pipelined heap,
// mirroring the system of Prasad & Sawant (SPDP'95): of the available
// threads, `think_threads` run the application's think phase on each deleted
// batch ("simulation processors") while `maintenance_threads` service the
// heap's update processes ("maintenance processors"). The two teams overlap:
// while the think team processes cycle g's batch, the maintenance team runs
// both half-steps of the pipeline; the serial root work then closes the
// cycle. This reordering (root, even, odd, root, ...) is schedule-equivalent
// to PipelinedParallelHeap::step() — only the position of the cycle boundary
// differs — so all the pipelined heap's differential guarantees carry over.
//
// The think phase sees, per cycle, the k globally smallest items, dealt
// round-robin to the workers exactly as the paper distributes the deleted
// messages across simulation processors.
#pragma once

#include <cstdint>
#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "obs/flight_recorder.hpp"
#include "robustness/failpoint.hpp"
#include "robustness/watchdog.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cacheline.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ph {

struct EngineConfig {
  std::size_t node_capacity = 1024;  ///< r: batch width and node size
  /// Think workers. 0 runs the think phase inline on the driver thread
  /// (no overlap) — useful as the serial baseline.
  unsigned think_threads = 1;
  /// Maintenance workers. 0 services update processes on the driver thread,
  /// which still overlaps with the think team.
  unsigned maintenance_threads = 0;
  std::size_t batch = 0;  ///< k items deleted per cycle; 0 → node_capacity
  bool pin_threads = false;
  /// Phase-watchdog stall timeout (0 = no watchdog). When set, the driver
  /// and every think worker own a heartbeat channel beaten at their phase
  /// crossings, and a background monitor escalates on stalls (telemetry
  /// counter → stderr dump → optional abort).
  std::uint64_t watchdog_stall_ns = 0;
  bool watchdog_abort = false;  ///< escalate a persistent stall to abort()
  /// Think-lane quarantine: a lane whose think callback fails this many
  /// CONSECUTIVE cycles is retired from the round-robin deal for the rest of
  /// the run (0 = never retire). A retiring lane's batch share is requeued
  /// like any failed lane's, so heap-multiset conservation is exact; the
  /// last alive lane is never retired. Each retirement is recorded in the
  /// flight ring (kLaneQuarantine) and counted per run by
  /// EngineReport::lanes_quarantined and process-wide by the telemetry
  /// kLaneQuarantines counter.
  std::size_t lane_fault_limit = 0;
};

struct EngineReport {
  std::uint64_t cycles = 0;
  std::uint64_t items_processed = 0;  ///< items handed to the think phase
  /// Items whose think succeeded. A faulted lane's share is requeued and
  /// handed out again, so items_processed counts it once per delivery;
  /// this counts it once, when a think on it succeeds.
  std::uint64_t items_thought = 0;
  double seconds = 0;                 ///< wall time inside run()
  double maint_seconds = 0;           ///< driver time in pipeline half-steps
  double think_stall_seconds = 0;     ///< driver time waiting on the think team
  double root_seconds = 0;            ///< driver time in root work
  std::uint64_t think_faults = 0;     ///< think lanes that threw and were requeued
  std::uint64_t watchdog_stalls = 0;  ///< stalled-channel observations
  std::uint64_t lanes_quarantined = 0;  ///< think lanes retired mid-run
};

/// HeapT is any heap exposing the pipeline-driver surface
/// (root_work_public / advance / advance_with / merge_ctx / ServiceCtx) —
/// the pipelined heap by default, or persist::DurableHeap<...> for a
/// crash-recoverable engine (same call sites, substituted type).
template <typename T, typename Compare = std::less<T>,
          typename HeapT = PipelinedParallelHeap<T, Compare>>
class ParallelHeapEngine {
 public:
  using Heap = HeapT;
  /// think(tid, mine, batch, out): process `mine` — this worker's
  /// round-robin share of the cycle's deleted batch — appending any newly
  /// produced items to `out`. `batch` is the whole cycle's deleted batch in
  /// ascending order (so batch.front() is the cycle's GVT). Runs
  /// concurrently on all think workers; must not touch the heap.
  using ThinkFn = std::function<void(unsigned, std::span<const T>, std::span<const T>,
                                     std::vector<T>&)>;

  explicit ParallelHeapEngine(EngineConfig cfg, Compare cmp = Compare())
      : ParallelHeapEngine(cfg, Heap(cfg.node_capacity, std::move(cmp))) {}

  /// Adopts a pre-built heap (a DurableHeap wired to its directory, a
  /// differently-configured pipelined heap). The heap's node capacity must
  /// match cfg.node_capacity.
  ParallelHeapEngine(EngineConfig cfg, Heap heap)
      : cfg_(cfg), heap_(std::move(heap)) {
    PH_ASSERT(heap_.node_capacity() == cfg_.node_capacity);
    if (cfg_.batch == 0 || cfg_.batch > cfg_.node_capacity) {
      cfg_.batch = cfg_.node_capacity;
    }
    const unsigned s = cfg_.think_threads;
    if (s > 0) {
      think_team_ = std::make_unique<ThreadTeam>(s, cfg_.pin_threads, "think");
    }
    if (cfg_.maintenance_threads > 0) {
      maint_team_ = std::make_unique<ThreadTeam>(cfg_.maintenance_threads,
                                                 cfg_.pin_threads, "maint");
      maint_ctx_.resize(cfg_.maintenance_threads);
    }
    const unsigned lanes = s == 0 ? 1 : s;
    in_.resize(lanes);
    out_.resize(lanes);
  }

  Heap& heap() noexcept { return heap_; }
  const EngineConfig& config() const noexcept { return cfg_; }

  /// Bulk-loads the initial content (O(n log n)).
  void seed(std::span<const T> initial) { heap_.build(initial); }

  /// Cooperative stop: callable from inside a think function; the current
  /// cycle completes (its new items are inserted) and run() returns.
  void request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_relaxed);
  }

  /// Runs insert-delete cycles until the heap (and all produced work) is
  /// exhausted, `max_items` items have been handed to the think phase
  /// (0 = unlimited), or request_stop() is called. Returns wall-clock and
  /// phase accounting.
  EngineReport run(const ThinkFn& think, std::uint64_t max_items = 0) {
    EngineReport rep;
    Timer wall;
    stop_requested_.store(false, std::memory_order_relaxed);
    PhaseTimer maint, stall, root;
    if constexpr (telemetry::kEnabled) telemetry::name_thread("driver");

    // Optional liveness monitoring: one channel per think lane plus the
    // driver, beaten at phase crossings, polled by a background monitor.
    std::unique_ptr<robustness::PhaseWatchdog> wd;
    std::size_t driver_ch = 0;
    if (cfg_.watchdog_stall_ns > 0) {
      robustness::PhaseWatchdog::Config wcfg;
      wcfg.stall_timeout_ns = cfg_.watchdog_stall_ns;
      wcfg.poll_interval_ns = std::max<std::uint64_t>(cfg_.watchdog_stall_ns / 2,
                                                      1'000'000);
      wcfg.abort_on_stall = cfg_.watchdog_abort;
      wd = std::make_unique<robustness::PhaseWatchdog>(wcfg);
      driver_ch = wd->add_channel("driver");
      think_ch_.clear();
      for (std::size_t t = 0; t < in_.size(); ++t) {
        think_ch_.push_back(wd->add_channel("think-" + std::to_string(t)));
      }
      wd->start();
    }

    batch_out_.clear();
    root.start();
    heap_.root_work_public({}, cfg_.batch, batch_out_);
    root.stop();

    const unsigned lanes = static_cast<unsigned>(in_.size());
    lane_dead_.assign(lanes, std::uint8_t{0});
    lane_streak_.assign(lanes, 0);

    while (!batch_out_.empty()) {
      ++rep.cycles;
      rep.items_processed += batch_out_.size();
      if (wd) wd->beat(driver_ch);

      for (auto& lane : in_) lane->clear();
      for (auto& lane : out_) lane->clear();
      lane_failed_.assign(lanes, std::uint8_t{0});
      // Round-robin deal, as the paper distributes deleted messages —
      // over the lanes still alive (quarantined lanes get nothing).
      alive_lanes_.clear();
      for (unsigned t = 0; t < lanes; ++t) {
        if (lane_dead_[t] == 0) alive_lanes_.push_back(t);
      }
      for (std::size_t i = 0; i < batch_out_.size(); ++i) {
        in_[alive_lanes_[i % alive_lanes_.size()]]->push_back(batch_out_[i]);
      }

      // A think lane that throws — injected kThinkThrow or a real user
      // exception — must not wedge the cycle or lose its share of the
      // batch: the lane's partial output is discarded and its INPUT items
      // are requeued as new items, to be re-deleted and re-thought in a
      // later cycle. At-least-once semantics for the failed lane (its
      // produced partials never escape); conservation of the heap multiset
      // is exact.
      auto think_lane = [&](unsigned tid) {
        if (lane_dead_[tid] != 0) {
          // Retired lane: keep its heartbeat alive (an idle channel is not
          // a stalled one) but run nothing.
          if (wd) wd->beat(think_ch_[tid]);
          return;
        }
        telemetry::SpanScope span(telemetry::Phase::kThink);
        if (wd) wd->beat(think_ch_[tid]);
        try {
          robustness::fire_fault(robustness::FailSite::kThinkThrow);
          think(tid, std::span<const T>(*in_[tid]), std::span<const T>(batch_out_),
                *out_[tid]);
        } catch (const robustness::InjectedFailure&) {
          out_[tid]->clear();
          lane_failed_[tid] = 2;  // injected: counts as a verified recovery
        } catch (...) {
          out_[tid]->clear();
          lane_failed_[tid] = 1;
        }
        if (wd) wd->beat(think_ch_[tid]);
      };

      if (think_team_) {
        think_fn_ = think_lane;
        think_team_->begin(think_fn_);
        maint.start();
        advance_both();
        maint.stop();
        stall.start();
        {
          telemetry::SpanScope span(telemetry::Phase::kThinkStall);
          think_team_->wait();
        }
        stall.stop();
      } else {
        think_lane(0);
        maint.start();
        advance_both();
        maint.stop();
      }

      new_items_.clear();
      unsigned alive = static_cast<unsigned>(alive_lanes_.size());
      for (unsigned tid = 0; tid < lanes; ++tid) {
        if (lane_dead_[tid] != 0) continue;
        if (lane_failed_[tid] != 0) {
          ++rep.think_faults;
          new_items_.insert(new_items_.end(), in_[tid]->begin(), in_[tid]->end());
          if (lane_failed_[tid] == 2) {
            robustness::note_recovery(robustness::FailSite::kThinkThrow);
          }
          // Burn-down of the flapping-lane bug: a lane that fails
          // lane_fault_limit cycles IN A ROW is retired from the deal (its
          // share above was already requeued to the healthy lanes' next
          // cycle). Never the last alive lane — degraded beats dead.
          ++lane_streak_[tid];
          if (cfg_.lane_fault_limit != 0 && alive > 1 &&
              lane_streak_[tid] >= cfg_.lane_fault_limit) {
            lane_dead_[tid] = 1;
            --alive;
            ++rep.lanes_quarantined;
            telemetry::count(telemetry::Counter::kLaneQuarantines);
            obs::flight(obs::FlightKind::kLaneQuarantine, tid, lane_streak_[tid]);
          }
          continue;
        }
        // A cycle where the lane received no items (fewer batch items than
        // alive lanes) proves nothing about its health — resetting here would
        // let a flapping lane evade quarantine forever whenever requeues
        // shrink the batch below the lane count. Only a *successful think on
        // actual work* clears the streak.
        if (!in_[tid]->empty()) lane_streak_[tid] = 0;
        rep.items_thought += in_[tid]->size();
        new_items_.insert(new_items_.end(), out_[tid]->begin(), out_[tid]->end());
      }

      const bool stop = (max_items != 0 && rep.items_processed >= max_items) ||
                        stop_requested_.load(std::memory_order_relaxed);
      batch_out_.clear();
      root.start();
      heap_.root_work_public(new_items_, stop ? 0 : cfg_.batch, batch_out_);
      root.stop();
      if (stop) break;
    }

    rep.seconds = wall.seconds();
    rep.maint_seconds = maint.total_seconds();
    rep.think_stall_seconds = stall.total_seconds();
    rep.root_seconds = root.total_seconds();
    if (wd) {
      wd->stop();
      rep.watchdog_stalls = wd->stalls();
    }
    return rep;
  }

  /// One externally-driven insert-delete cycle with no think phase: root
  /// work on the caller's thread, then both half-steps on the maintenance
  /// team when configured. This is the surface the differential harness
  /// registers ("engine_team"): the engine's own maintenance parallelism,
  /// pinned bit-exact against the serial pipelined heap. Not for use
  /// concurrently with run().
  std::size_t cycle(std::span<const T> fresh, std::size_t k, std::vector<T>& out) {
    const std::size_t got = heap_.root_work_public(fresh, k, out);
    advance_both();
    return got;
  }

 private:
  /// Runs both pipeline half-steps (even, then odd — the schedule-equivalent
  /// rotation of step()'s odd/root/even), on the maintenance team when
  /// configured, else on the driver thread.
  void advance_both() {
    if (!maint_team_) {
      heap_.advance(0);
      heap_.advance(1);
      return;
    }
    auto runner = [this](std::size_t ngroups,
                         const std::function<void(std::size_t,
                                                  typename Heap::ServiceCtx&)>& fn) {
      const unsigned mt = maint_team_->size();
      maint_team_->run([&](unsigned tid) {
        telemetry::SpanScope span(telemetry::Phase::kMaintService);
        for (std::size_t g = tid; g < ngroups; g += mt) fn(g, *maint_ctx_[tid]);
      });
      for (auto& ctx : maint_ctx_) heap_.merge_ctx(*ctx);
    };
    heap_.advance_with(0, runner);
    heap_.advance_with(1, runner);
  }

  EngineConfig cfg_;
  Heap heap_;
  std::unique_ptr<ThreadTeam> think_team_;
  std::unique_ptr<ThreadTeam> maint_team_;
  std::vector<Padded<typename Heap::ServiceCtx>> maint_ctx_;
  std::vector<Padded<std::vector<T>>> in_, out_;
  std::vector<T> batch_out_, new_items_;
  std::vector<std::uint8_t> lane_failed_;  ///< per-lane; read after team join
  std::vector<std::uint8_t> lane_dead_;    ///< quarantined lanes (this run)
  std::vector<std::uint32_t> lane_streak_; ///< consecutive failures per lane
  std::vector<unsigned> alive_lanes_;      ///< deal targets, rebuilt per cycle
  std::vector<std::size_t> think_ch_;      ///< watchdog channel ids per lane
  std::function<void(unsigned)> think_fn_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace ph
