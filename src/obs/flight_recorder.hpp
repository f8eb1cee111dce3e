// Always-on black-box flight recorder: a fixed-size, lock-light ring of
// structured events (phase transitions, fail-point fires, watchdog beats and
// escalations, lane quarantine, recovery, WAL rotations, checkpoint
// publications).
//
// Purpose: when a run wedges or dies — a watchdog stall verdict, a ph_crash
// child, a fatal PH_ASSERT — the last few thousand events are dumped to a
// timestamped JSON file, turning "it hung in CI" into a replayable causal
// record. The recorder is deliberately NOT behind PH_TELEMETRY: it must be
// present in every build that can crash, and its cost is one relaxed
// fetch_add plus a few plain stores per event at per-cycle (not per-item)
// frequency.
//
// Concurrency: record() is wait-free for writers (atomic cursor fetch_add
// into a power-of-two ring; per-slot seqlock stamps). Readers (dump paths)
// validate each slot's stamp before/after copying and skip torn slots — a
// reader racing a writer loses that one event, never blocks it. A writer
// lapping another writer inside one read is possible only after kCapacity
// further events, which a dump-time reader cannot observe in practice; the
// dump is a best-effort post-mortem, not a transactional log.
//
// Layering: this header depends on nothing but the standard library (plus
// cacheline.hpp), so the LOW layers — failpoint registry, watchdog, WAL —
// can record events without creating an include cycle; the rest of src/obs/
// sits above them as usual. The .cpp resolves site/phase names for dumps.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/cacheline.hpp"

namespace ph::obs {

/// Structured event kinds. Keep names (flight_kind_name) stable: dump files
/// and the CI smoke grep for them.
enum class FlightKind : std::uint8_t {
  kPhase = 0,         ///< cycle-level phase transition; a=telemetry Phase, b=trace id
  kFailpointFire,     ///< a fail-point fired; a=FailSite, b=cumulative fires
  kFailpointRecovery, ///< a recovery path completed; a=FailSite
  kWatchdogBeat,      ///< heartbeat; a=channel id
  kWatchdogStall,     ///< poll found a stalled channel; a=channel, b=consecutive
  kWatchdogReport,    ///< rung-2 escalation (report dumped); a=channel
  kWatchdogAbort,     ///< rung-3 escalation (about to abort); a=channel
  kCycle,             ///< sharded cycle started; a=trace id, b=fresh batch size
  kWalRotate,         ///< new WAL segment opened; a=start sequence
  kCkptPublish,       ///< checkpoint published; a=sequence, b=bytes
  kRecoveryStart,     ///< recovery pass began
  kRecoveryDone,      ///< recovery pass finished; a=op seq, b=records replayed
  kNote,              ///< freeform marker; a/b caller-defined
  kLaneQuarantine,    ///< engine think lane retired; a=lane id, b=consecutive faults
  kIngestFlush,       ///< ingest staging buffers flushed; a=runs, b=items
  kSvcOverload,       ///< service began shedding; a=tenant, b=backlog depth
  kSvcDrain,          ///< service drain started; a=in-flight, b=backlog depth
  kCount
};
inline constexpr std::size_t kNumFlightKinds =
    static_cast<std::size_t>(FlightKind::kCount);
const char* flight_kind_name(FlightKind k) noexcept;

struct FlightEvent {
  std::uint64_t t_ns = 0;  ///< ns since recorder construction (steady clock)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t tid = 0;   ///< recorder-local thread id (first-record order)
  FlightKind kind = FlightKind::kNote;
};

class FlightRecorder {
 public:
  /// Ring capacity (power of two). ~4k events ≈ hundreds of sharded cycles
  /// of history at the recorded event density.
  static constexpr std::size_t kCapacity = std::size_t{1} << 12;

  static FlightRecorder& instance();

  /// Wait-free append. Overwrites the oldest event when full (counted by
  /// dropped()); safe from any thread, including inside crash/assert paths.
  void record(FlightKind kind, std::uint64_t a = 0, std::uint64_t b = 0) noexcept {
    const std::uint64_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[idx & (kCapacity - 1)];
    s.stamp.store(idx * 2 + 1, std::memory_order_release);  // odd: in progress
    s.ev.t_ns = now_ns();
    s.ev.a = a;
    s.ev.b = b;
    s.ev.tid = local_tid();
    s.ev.kind = kind;
    s.stamp.store(idx * 2 + 2, std::memory_order_release);  // even: published
  }

  /// Events recorded since construction (including overwritten ones).
  std::uint64_t total() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }
  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = total();
    return n > kCapacity ? n - kCapacity : 0;
  }

  /// Consistent copies of the live slots, oldest-first (skips slots torn by
  /// a concurrent writer). Safe while writers run.
  std::vector<FlightEvent> snapshot() const;

  /// Serializes {epoch info, total/dropped, events[]} as one JSON document.
  void dump(std::ostream& os, const char* reason) const;

  /// Writes dump() to `<dir>/flightrec-<reason>-<unix ms>-<pid>-<n>.json`
  /// where dir is set_dump_dir() if called, else $PH_FLIGHTREC_DIR, else ".".
  /// `<pid>` keeps concurrent processes (e.g. phd and a client sharing
  /// one $PH_FLIGHTREC_DIR) apart and `<n>` is a per-process dump counter, so
  /// two dumps can never clobber each other even within one millisecond.
  /// Returns the path ("" on failure — the dump must never throw; it runs on
  /// dying processes). Best-effort by design.
  std::string dump_to_file(const char* reason) const noexcept;

  /// Overrides the dump directory (tests point this at a temp dir so
  /// watchdog/assert dumps don't land in the working tree).
  void set_dump_dir(std::string dir);

  std::uint64_t now_ns() const noexcept;

 private:
  FlightRecorder();

  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint64_t> stamp{0};  ///< 0 empty; odd writing; even published
    FlightEvent ev;
  };

  static std::uint32_t local_tid() noexcept {
    thread_local std::uint32_t tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    return tid;
  }

  static inline std::atomic<std::uint32_t> next_tid_{0};
  std::atomic<std::uint64_t> cursor_{0};
  std::unique_ptr<Slot[]> slots_;
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t epoch_unix_ms_ = 0;  ///< wall clock at construction (dump header)
  std::string dump_dir_;            ///< "" = env / cwd fallback
  mutable std::mutex dump_dir_mu_;
};

/// Convenience free function mirroring telemetry::count — the one-liner the
/// instrumented layers call.
inline void flight(FlightKind kind, std::uint64_t a = 0, std::uint64_t b = 0) noexcept {
  FlightRecorder::instance().record(kind, a, b);
}

}  // namespace ph::obs
