// Thread-safe telemetry core: per-thread slots, merged on demand.
//
// Concurrent components must be observable *during* a run without each one
// inventing its own merge. This registry does it the way the cacheline.hpp
// comment prescribes: each thread registers once and gets a cache-line-
// aligned slot of relaxed-atomic counters, per-phase latency histograms, and
// a private trace ring. Writers never share a line; readers (collect(),
// write_chrome_trace()) merge every slot on demand without stopping the
// writers. Counters here are process-wide and count only what nothing else
// counts: a per-instance quantity (one DurableHeap's WAL bytes, say) belongs
// in that instance's stats or gauges, and an event that a phase span
// brackets is counted by that phase's histogram.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/histogram.hpp"
#include "telemetry/trace.hpp"
#include "util/cacheline.hpp"

namespace ph::telemetry {

class JsonWriter;

/// Instrumented pipeline phases; each gets a latency histogram per thread
/// and a span name in the Chrome trace.
enum class Phase : unsigned {
  kRootWork = 0,    ///< serial O(r) root merge/refill of a cycle
  kOddHalfStep,     ///< servicing all odd-level update processes
  kEvenHalfStep,    ///< servicing all even-level update processes
  kThink,           ///< one worker's share of the application think phase
  kThinkStall,      ///< driver waiting on the think team after maintenance
  kSteal,           ///< substitute fetch stealing from in-flight carried sets
  kMaintService,    ///< one maintenance worker's share of a half-step
  kShardRoute,      ///< sharded front end splitting a batch by key range
  kShardMerge,      ///< K-way tournament over per-shard prefixes
  kCkptWrite,       ///< serializing + publishing one durable checkpoint
  kWalAppend,       ///< appending (and per-policy fsyncing) one WAL record
  kWalFsync,        ///< one fsync(2) issued by the WAL writer (latency source)
  kRecoverReplay,   ///< full recovery pass: load checkpoint + replay WAL tail
  kIngestFlush,     ///< draining staged producer buffers into sorted runs
  kSvcCommit,       ///< service group-commit: one admission record + fsync
  kSvcDispatch,     ///< service due-dispatch: pop, DRR select, requeue record
  kCount
};
inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);
const char* phase_name(Phase p) noexcept;

/// Monotone event counters, merged across threads at report time. Cycles
/// are root_work's phase count; WAL records and fsyncs are wal_append's and
/// wal_fsync's.
enum class Counter : unsigned {
  // The two ingest counters stay process-wide because bench_stack reads
  // them from phd's metrics file (ingest.items_per_run); every other ingest
  // total is per instance, in IngestStats and the ingest_* gauges.
  kIngestStaged = 0,    ///< items staged into producer buffers (ingest tier)
  kIngestRuns,          ///< sorted runs coalesced out of the staging buffers
  kCount
};
inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
const char* counter_name(Counter c) noexcept;

/// One thread's telemetry state. Aligned so adjacent slots never share a
/// cache line; all mutation is by the owning thread (counters/histograms via
/// relaxed atomics so readers may merge concurrently).
struct alignas(kCacheLine) ThreadSlot {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<LogHistogram, kNumPhases> latency{};
  TraceRing trace;
  unsigned tid = 0;
  std::string name;  ///< guarded by Registry mutex (set/read are rare)

  void add(Counter c, std::uint64_t delta) noexcept {
    counters[static_cast<std::size_t>(c)].fetch_add(delta, std::memory_order_relaxed);
  }
  void record(Phase p, std::uint64_t ns) noexcept {
    latency[static_cast<std::size_t>(p)].record(ns);
  }
};

/// Merged view of every slot, produced by Registry::collect().
struct MetricsSnapshot {
  struct PerThread {
    unsigned tid = 0;
    std::string name;
    std::array<std::uint64_t, kNumCounters> counters{};
  };

  std::array<std::uint64_t, kNumCounters> counters{};        ///< merged
  std::array<HistogramSnapshot, kNumPhases> phases{};        ///< merged
  std::vector<PerThread> threads;
  std::uint64_t dropped_spans = 0;

  std::uint64_t get(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistogramSnapshot& phase(Phase p) const noexcept {
    return phases[static_cast<std::size_t>(p)];
  }

  /// Emits the snapshot as one JSON object (counters, per-phase latency
  /// percentiles, per-thread counter breakdown).
  void write_json(JsonWriter& w) const;

  /// The post-mortem table: one "ph:   " line per nonzero counter and per
  /// phase with a nonzero count (so a report still says how many cycles
  /// and fsyncs ran). Shared by the assert-flush hook and the watchdog.
  std::string nonzero_text() const;
};

/// Process-wide slot registry. Threads register lazily on first use; slots
/// outlive their threads (a ThreadTeam's workers die with the team, but
/// their recorded data stays mergeable).
class Registry {
 public:
  static Registry& instance();

  /// The calling thread's slot, registering it on first use.
  ThreadSlot& local();

  /// Names the calling thread's slot (shown in trace viewers).
  void set_thread_name(std::string_view name);

  /// Nanoseconds since the registry was constructed (trace timebase).
  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Merges every slot into one snapshot. Safe while writers are running
  /// (counts are monotone); exact at quiescent points.
  MetricsSnapshot collect();

  /// Zeroes all slots' counters/histograms/traces. Slots stay registered
  /// (thread_local handles must not dangle). Quiescent points only.
  void reset();

  /// All registered slots (stable pointers; used by the trace exporter).
  std::vector<ThreadSlot*> slots();

 private:
  Registry() : epoch_(std::chrono::steady_clock::now()) {}

  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
};

}  // namespace ph::telemetry
