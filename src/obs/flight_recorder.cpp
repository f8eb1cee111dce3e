#include "obs/flight_recorder.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "robustness/failpoint.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/json.hpp"
#include "util/assert.hpp"

namespace ph::obs {

namespace {

// Fatal-assert trigger: a failed PH_ASSERT already flushes the telemetry
// counters/trace rings (telemetry/counters.cpp); this second hook writes the
// flight-recorder black box to a file, because stderr of a dying CI job is
// often truncated while an artifact file survives.
void dump_flight_on_assert() {
  const std::string path = FlightRecorder::instance().dump_to_file("assert");
  if (!path.empty()) {
    std::fprintf(stderr, "ph: flight recorder dumped to %s\n", path.c_str());
  }
}

[[maybe_unused]] const bool g_assert_hook_registered = [] {
  ph::add_assert_flush_hook(&dump_flight_on_assert);
  return true;
}();

/// Resolves the human name of an event's `a` argument where the kind gives
/// it a known domain (telemetry phase, fail-point site). Returns nullptr
/// when `a` is a plain number.
const char* arg_name(const FlightEvent& ev) {
  switch (ev.kind) {
    case FlightKind::kPhase:
      return telemetry::phase_name(static_cast<telemetry::Phase>(ev.a));
    case FlightKind::kFailpointFire:
    case FlightKind::kFailpointRecovery:
      return robustness::fail_site_name(static_cast<robustness::FailSite>(ev.a));
    default:
      return nullptr;
  }
}

}  // namespace

const char* flight_kind_name(FlightKind k) noexcept {
  switch (k) {
    case FlightKind::kPhase: return "phase";
    case FlightKind::kFailpointFire: return "failpoint_fire";
    case FlightKind::kFailpointRecovery: return "failpoint_recovery";
    case FlightKind::kWatchdogBeat: return "watchdog_beat";
    case FlightKind::kWatchdogStall: return "watchdog_stall";
    case FlightKind::kWatchdogReport: return "watchdog_report";
    case FlightKind::kWatchdogAbort: return "watchdog_abort";
    case FlightKind::kCycle: return "cycle";
    case FlightKind::kWalRotate: return "wal_rotate";
    case FlightKind::kCkptPublish: return "ckpt_publish";
    case FlightKind::kRecoveryStart: return "recovery_start";
    case FlightKind::kRecoveryDone: return "recovery_done";
    case FlightKind::kNote: return "note";
    case FlightKind::kLaneQuarantine: return "lane_quarantine";
    case FlightKind::kIngestFlush: return "ingest_flush";
    case FlightKind::kSvcOverload: return "svc_overload";
    case FlightKind::kSvcDrain: return "svc_drain";
    case FlightKind::kCount: break;
  }
  return "unknown";
}

FlightRecorder::FlightRecorder()
    : slots_(new Slot[kCapacity]), epoch_(std::chrono::steady_clock::now()) {
  epoch_unix_ms_ = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder rec;
  return rec;
}

std::uint64_t FlightRecorder::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t end = cursor_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > kCapacity ? end - kCapacity : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t idx = begin; idx < end; ++idx) {
    Slot& s = slots_[idx & (kCapacity - 1)];
    const std::uint64_t pre = s.stamp.load(std::memory_order_acquire);
    if (pre != idx * 2 + 2) continue;  // torn, lapped, or not yet published
    FlightEvent ev = s.ev;
    // Re-check with a read-don't-modify-write rather than a fence plus a
    // load: its release half keeps the copy above before the re-check, and
    // ThreadSanitizer models it (it does not model atomic_thread_fence).
    if (s.stamp.fetch_add(0, std::memory_order_acq_rel) != pre) continue;
    out.push_back(ev);
  }
  // Cursor order ≈ time order, but two racing writers can publish out of
  // order by a few ns; dumps promise causal order, so sort.
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.t_ns < y.t_ns;
                   });
  return out;
}

void FlightRecorder::dump(std::ostream& os, const char* reason) const {
  const std::vector<FlightEvent> events = snapshot();
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.kv("reason", reason);
  w.kv("pid", static_cast<std::int64_t>(::getpid()));
  w.kv("epoch_unix_ms", static_cast<std::int64_t>(epoch_unix_ms_));
  w.kv("total_events", total());
  w.kv("dropped_events", dropped());
  w.key("events").begin_array();
  for (const FlightEvent& ev : events) {
    w.begin_object();
    w.kv("t_ns", ev.t_ns);
    w.kv("kind", flight_kind_name(ev.kind));
    w.kv("tid", ev.tid);
    w.kv("a", ev.a);
    if (const char* name = arg_name(ev)) w.kv("a_name", name);
    w.kv("b", ev.b);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string FlightRecorder::dump_to_file(const char* reason) const noexcept {
  try {
    std::string dir;
    {
      std::lock_guard lk(dump_dir_mu_);
      dir = dump_dir_;
    }
    if (dir.empty()) {
      const char* env = std::getenv("PH_FLIGHTREC_DIR");
      dir = (env != nullptr && env[0] != '\0') ? env : ".";
    }
    const std::int64_t now_ms =
        epoch_unix_ms_ + static_cast<std::int64_t>(now_ns() / 1'000'000);
    // Several processes may share one dump dir (phd and a bench client), so
    // the name carries the pid; the per-process counter keeps two same-reason
    // dumps from one process apart even within a single millisecond. Note:
    // getpid() must be read per-dump, not cached — a fork()ed child inherits
    // the parent's recorder instance.
    static std::atomic<std::uint64_t> dump_seq{0};
    const std::uint64_t seq = dump_seq.fetch_add(1, std::memory_order_relaxed);
    char name[160];
    std::snprintf(name, sizeof(name), "flightrec-%s-%lld-%d-%llu.json", reason,
                  static_cast<long long>(now_ms), static_cast<int>(::getpid()),
                  static_cast<unsigned long long>(seq));
    const std::string path = dir + "/" + name;
    std::ofstream os(path);
    if (!os) return "";
    dump(os, reason);
    os << '\n';
    os.flush();
    return os.good() ? path : "";
  } catch (...) {
    return "";
  }
}

void FlightRecorder::set_dump_dir(std::string dir) {
  std::lock_guard lk(dump_dir_mu_);
  dump_dir_ = std::move(dir);
}

}  // namespace ph::obs
