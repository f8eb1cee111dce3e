// PhaseWatchdog — liveness monitoring for phase-structured pipelines.
//
// The pipelined heap's drivers advance in strict phases (half-step barriers,
// think/maintenance joins); a stalled worker doesn't crash anything, it
// silently wedges the whole cycle behind a barrier. The
// watchdog makes that visible: each participant owns a *channel* and beats
// it at its phase crossings (one relaxed-ish atomic store of a monotonic
// clock); a poller — the driver between cycles, or the optional background
// monitor thread — compares every channel's last beat against a stall
// timeout and escalates:
//
//   rung 1  every poll that finds a stalled channel bumps the telemetry
//           kWatchdogStalls counter (cheap and machine-readable: every
//           metrics scrape exports it, ph_watchdog_stalls_total; no script
//           or CI gate reads it)
//   rung 2  after `dump_after_polls` consecutive stalled polls, render the
//           channel table and the nonzero counters and phase counts
//           (MetricsSnapshot::nonzero_text) as one report block and hand
//           it to the report sink (stderr by default; pluggable via
//           set_report_sink), once per episode — and persist the flight
//           recorder ring to a timestamped file (the black-box dump)
//   rung 3  optionally, after `abort_after_polls` consecutive stalled polls,
//           dump the telemetry trace rings and abort() — for CI jobs where
//           a wedged process would otherwise burn the job timeout. The full
//           trace dump sits on this rung only: reading another thread's
//           ring races with its owner, which is fine when we are already
//           going down but not for a recoverable report.
//
// The clock is injectable so tests drive the ladder deterministically
// without sleeping.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ph::robustness {

class PhaseWatchdog {
 public:
  /// Receives each rung-2/3 report as one formatted text block. The default
  /// sink writes to stderr; embedders (tests, a logging layer) replace it.
  /// Reports also always land in the flight recorder regardless of sink.
  using ReportSink = std::function<void(const std::string&)>;

  struct Config {
    std::uint64_t stall_timeout_ns = 500'000'000;  ///< beat age that counts as stalled
    std::uint64_t poll_interval_ns = 100'000'000;  ///< monitor-thread cadence
    std::uint32_t dump_after_polls = 3;   ///< consecutive stalled polls before dump
    bool abort_on_stall = false;          ///< enable rung 3
    std::uint32_t abort_after_polls = 10; ///< consecutive stalled polls before abort
    /// Injectable monotonic clock (ns); nullptr = steady_clock. Tests use
    /// this to walk the escalation ladder without wall-clock sleeps.
    std::uint64_t (*clock)() = nullptr;
  };

  struct PollResult {
    std::size_t stalled = 0;  ///< channels past the stall timeout this poll
    bool dumped = false;      ///< rung 2 fired this poll
  };

  PhaseWatchdog() : PhaseWatchdog(Config()) {}
  explicit PhaseWatchdog(Config cfg) : cfg_(cfg) {
    PH_ASSERT(cfg_.stall_timeout_ns > 0);
    if (cfg_.dump_after_polls == 0) cfg_.dump_after_polls = 1;
    if (cfg_.abort_after_polls < cfg_.dump_after_polls) {
      cfg_.abort_after_polls = cfg_.dump_after_polls;
    }
  }

  PhaseWatchdog(const PhaseWatchdog&) = delete;
  PhaseWatchdog& operator=(const PhaseWatchdog&) = delete;
  ~PhaseWatchdog() { stop(); }

  /// Registers a heartbeat channel (NOT thread-safe against beat()/poll();
  /// add all channels before monitoring starts). Returns the channel id.
  std::size_t add_channel(std::string name) {
    auto ch = std::make_unique<Channel>();
    ch->name = std::move(name);
    ch->last_beat.store(now(), std::memory_order_relaxed);
    channels_.push_back(std::move(ch));
    return channels_.size() - 1;
  }

  std::size_t num_channels() const noexcept { return channels_.size(); }

  /// Heartbeat: the channel's owner calls this at every phase crossing.
  /// One atomic store (plus a flight-recorder append); safe against a
  /// concurrent poller.
  void beat(std::size_t ch) noexcept {
    channels_[ch]->last_beat.store(now(), std::memory_order_release);
    obs::flight(obs::FlightKind::kWatchdogBeat, ch);
  }

  /// Replaces the rung-2/3 report sink (default: stderr). Install before
  /// monitoring starts; not synchronized against a concurrent poller.
  void set_report_sink(ReportSink sink) { sink_ = std::move(sink); }

  /// Rung-2 reports emitted (episodes that reached dump_after_polls).
  std::uint64_t reports() const noexcept {
    return reports_.load(std::memory_order_relaxed);
  }

  /// Path of the most recent stall-verdict flight dump ("" if none yet).
  std::string last_flight_dump() const {
    std::lock_guard lk(dump_path_mu_);
    return last_flight_dump_;
  }

  /// One scan over all channels, advancing the escalation ladder. Exactly
  /// one poller at a time (the monitor thread when started, else the
  /// driver).
  PollResult poll() {
    PollResult res;
    const std::uint64_t t = now();
    for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
      Channel& ch = *channels_[ci];
      const std::uint64_t beat_t = ch.last_beat.load(std::memory_order_acquire);
      const bool stalled = t >= beat_t && t - beat_t > cfg_.stall_timeout_ns;
      if (!stalled) {
        // Recovered: close the episode so the next stall dumps again.
        ch.consecutive.store(0, std::memory_order_relaxed);
        ch.episode_dumped = false;
        continue;
      }
      ++res.stalled;
      const std::uint32_t consec =
          ch.consecutive.fetch_add(1, std::memory_order_relaxed) + 1;
      stalls_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count(telemetry::Counter::kWatchdogStalls);
      obs::flight(obs::FlightKind::kWatchdogStall, ci, consec);
      if (consec >= cfg_.dump_after_polls && !ch.episode_dumped) {
        ch.episode_dumped = true;
        res.dumped = true;
        reports_.fetch_add(1, std::memory_order_relaxed);
        obs::flight(obs::FlightKind::kWatchdogReport, ci);
        dump_report(t);
        // The stall *verdict* also triggers the black box: persist the event
        // ring now, while the wedged state is still observable — the process
        // may be aborted (rung 3, CI timeout) before anything else runs.
        const std::string path =
            obs::FlightRecorder::instance().dump_to_file("watchdog-stall");
        std::lock_guard lk(dump_path_mu_);
        last_flight_dump_ = path;
      }
      if (cfg_.abort_on_stall && consec >= cfg_.abort_after_polls) {
        obs::flight(obs::FlightKind::kWatchdogAbort, ci, consec);
        std::fprintf(stderr,
                     "ph: watchdog: channel '%s' stalled for %u consecutive polls"
                     " — aborting; trace rings follow\n",
                     ch.name.c_str(), consec);
        obs::FlightRecorder::instance().dump_to_file("watchdog-abort");
        telemetry::write_chrome_trace(std::cerr);
        std::cerr << std::endl;
        std::abort();
      }
    }
    return res;
  }

  /// Starts the background monitor thread (sleeps poll_interval_ns between
  /// polls). Idempotent.
  void start() {
    if (monitor_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    monitor_ = std::thread([this] {
      telemetry::name_thread("watchdog");
      while (!stop_.load(std::memory_order_acquire)) {
        poll();
        // Sleep in small slices so stop() never waits a full interval.
        std::uint64_t slept = 0;
        while (slept < cfg_.poll_interval_ns &&
               !stop_.load(std::memory_order_acquire)) {
          const std::uint64_t slice =
              std::min<std::uint64_t>(cfg_.poll_interval_ns - slept, 2'000'000);
          std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
          slept += slice;
        }
      }
    });
  }

  /// Stops and joins the monitor thread (no-op if not started).
  void stop() {
    if (!monitor_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    monitor_.join();
  }

  /// Total stalled-channel observations across all polls.
  std::uint64_t stalls() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  struct Channel {
    std::string name;
    std::atomic<std::uint64_t> last_beat{0};
    // Ladder state: written only by the single poller, but readable from
    // verdict consumers on other threads — hence atomic.
    std::atomic<std::uint32_t> consecutive{0};
    bool episode_dumped = false;
  };

  std::uint64_t now() const {
    if (cfg_.clock != nullptr) return cfg_.clock();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Renders the rung-2 report and hands it to the sink as one block (a
  /// replacement sink gets a parseable unit, and interleaving with other
  /// stderr writers can't shred the table).
  void dump_report(std::uint64_t t) const {
    char line[256];
    std::string report = "ph: watchdog: stall detected; channel table:\n";
    for (const auto& chp : channels_) {
      const std::uint64_t beat_t = chp->last_beat.load(std::memory_order_acquire);
      const std::uint64_t age = t >= beat_t ? t - beat_t : 0;
      std::snprintf(line, sizeof(line),
                    "ph:   %-24s last beat %8.3f ms ago  (%u stalled polls)\n",
                    chp->name.c_str(), static_cast<double>(age) / 1e6,
                    chp->consecutive.load(std::memory_order_relaxed));
      report += line;
    }
    if (telemetry::kEnabled) {
      report += "ph: watchdog: nonzero counters and phase counts:\n";
      report += telemetry::Registry::instance().collect().nonzero_text();
    }
    if (sink_) {
      sink_(report);
    } else {
      std::fwrite(report.data(), 1, report.size(), stderr);
      std::fflush(stderr);
    }
  }

  Config cfg_;
  std::vector<std::unique_ptr<Channel>> channels_;
  ReportSink sink_;  ///< empty = stderr
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> reports_{0};
  mutable std::mutex dump_path_mu_;
  std::string last_flight_dump_;
  std::atomic<bool> stop_{false};
  std::thread monitor_;
};

}  // namespace ph::robustness
