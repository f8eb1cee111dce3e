// MetricsRegistry: one atomic snapshot of everything observable.
//
// The telemetry registry (counters.hpp) answers "what has the process done"
// — monotone counters and latency histograms merged from per-thread slots.
// It cannot answer "what is the process doing *now*": staged ingest depth,
// replay progress, watchdog escalation depth. Those live in component state
// that telemetry deliberately does not know about.
//
// This registry closes the gap with *gauges*: named callbacks registered by
// the component that owns the state (IngestTier, PhaseWatchdog, WalWriter,
// DurableHeap) and sampled on demand. snapshot() evaluates every gauge,
// merges the telemetry counters, and stamps the result with a sequence
// number and timestamp — one coherent ObsSnapshot that the exposition layer
// (exposition.hpp) renders as Prometheus text or JSON and the publisher
// (publisher.hpp) serves over TCP or writes to a file.
//
// Gauge callbacks must be safe to invoke from the publisher's thread while
// the engine runs. The convention (see DurableHeap::Live) is: the
// component keeps its observable state in relaxed atomics — mirrors
// refreshed at phase boundaries, or the counters themselves — and the
// callback only loads them, never walking live data structures.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/counters.hpp"

namespace ph::obs {

/// Samples one live value. Must be thread-safe and non-blocking (load an
/// atomic, don't take engine locks) — it runs on the scrape thread.
using GaugeFn = std::function<double()>;

/// One registered gauge's identity. `labels` distinguish instances of the
/// same metric (e.g. ph_shard_size{shard="3"}).
struct GaugeDesc {
  std::string name;                                        ///< metric name, snake_case
  std::vector<std::pair<std::string, std::string>> labels; ///< sorted as given
  std::string help;                                        ///< one-line meaning
};

/// One gauge's sampled value inside a snapshot.
struct GaugeSample {
  GaugeDesc desc;
  double value = 0.0;
};

/// Everything observable at one instant.
struct ObsSnapshot {
  std::uint64_t seq = 0;        ///< monotone per-process snapshot number
  std::uint64_t t_ns = 0;       ///< telemetry registry timebase at sample time
  std::uint64_t epoch_unix_ms = 0;  ///< wall clock at sample time
  telemetry::MetricsSnapshot telem; ///< merged counters + phase histograms
  std::vector<GaugeSample> gauges;  ///< every registered gauge, sampled
  std::uint64_t flight_events = 0;  ///< flight recorder: events ever recorded
  std::uint64_t flight_dropped = 0; ///< flight recorder: events overwritten
};

/// Process-wide gauge registry + snapshot factory.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Registers a gauge; returns a handle for remove_gauge(). Thread-safe.
  std::uint64_t add_gauge(GaugeDesc desc, GaugeFn fn);

  /// Unregisters; safe to call with a stale id (no-op). Thread-safe.
  void remove_gauge(std::uint64_t id);

  /// Samples every gauge and merges telemetry into one stamped snapshot.
  ObsSnapshot snapshot();

  std::size_t gauge_count();

 private:
  MetricsRegistry() = default;

  struct Entry {
    std::uint64_t id;
    GaugeDesc desc;
    GaugeFn fn;
  };

  std::mutex mu_;
  std::vector<Entry> entries_;
  std::uint64_t next_id_ = 1;
  std::atomic<std::uint64_t> seq_{0};
};

/// One row of a component's gauge table: a name, its help line, and the
/// counter in the component's Live block that the gauge reads.
template <typename Live>
struct GaugeField {
  const char* name;
  const char* help;
  std::atomic<std::uint64_t> Live::*field;
};

/// Adds n to one Live counter. Every counter has a single writer thread (the
/// component's driver), so a relaxed load + store is exact and cheaper than
/// an RMW; gauge callbacks may load it from any thread at any time.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// RAII bundle of gauge registrations: components register their gauges
/// through one GaugeSet member and deregistration is automatic — no dangling
/// callbacks after the component dies.
class GaugeSet {
 public:
  GaugeSet() = default;
  GaugeSet(const GaugeSet&) = delete;
  GaugeSet& operator=(const GaugeSet&) = delete;
  GaugeSet(GaugeSet&& o) noexcept : ids_(std::move(o.ids_)) { o.ids_.clear(); }
  GaugeSet& operator=(GaugeSet&& o) noexcept {
    if (this != &o) {
      clear();
      ids_ = std::move(o.ids_);
      o.ids_.clear();
    }
    return *this;
  }
  ~GaugeSet() { clear(); }

  void add(GaugeDesc desc, GaugeFn fn) {
    ids_.push_back(MetricsRegistry::instance().add_gauge(std::move(desc), std::move(fn)));
  }

  /// Registers one gauge per row of a component's table, each a relaxed
  /// load of its field in `*lv` under `labels`. `lv` must outlive the set
  /// (components heap-allocate their Live block, or own both).
  template <typename Live, std::size_t N>
  void add_fields(const Live* lv,
                  const std::vector<std::pair<std::string, std::string>>& labels,
                  const GaugeField<Live> (&table)[N]) {
    for (const GaugeField<Live>& row : table) {
      const auto field = row.field;
      add(GaugeDesc{row.name, labels, row.help}, [lv, field] {
        return static_cast<double>((lv->*field).load(std::memory_order_relaxed));
      });
    }
  }

  void clear() {
    for (std::uint64_t id : ids_) MetricsRegistry::instance().remove_gauge(id);
    ids_.clear();
  }

 private:
  std::vector<std::uint64_t> ids_;
};

}  // namespace ph::obs
