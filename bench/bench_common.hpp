// Shared helpers for the experiment harness.
//
// Every experiment binary prints (a) a header naming the experiment and the
// lineage figure/table it reconstructs, (b) CSV-style rows, and (c) the
// hardware-independent counters that carry the scalability shape on hosts
// where wall-clock speedup cannot manifest (see DESIGN.md). Keep output
// grep-friendly: one "row," prefix per data point.
//
// Machine-readable output: every binary additionally understands
//   --json <file>    merged telemetry metrics (counters + per-phase latency
//                    percentiles) as one JSON document
//   --trace <file>   Chrome trace_event JSON of the run's per-thread phase
//                    spans (open in https://ui.perfetto.dev)
// parse_args() strips these before the binary's own argument handling and
// registers an atexit hook, so rows stay on stdout and the files appear on
// any exit path. Benches can attach scalar results to the JSON document via
// json_metric().
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/provenance.hpp"
#include "obs/publisher.hpp"
#include "telemetry/telemetry.hpp"
#include "util/flags.hpp"

namespace ph::bench {

struct OutputConfig {
  std::string json_path;
  std::string trace_path;
  std::string experiment;  ///< last header() line, embedded in the JSON
  std::vector<std::pair<std::string, double>> metrics;  ///< json_metric() rows
};

inline OutputConfig& output() {
  static OutputConfig cfg;
  return cfg;
}

/// The live publisher serving this bench's metrics (started by parse_args
/// when --metrics-file/--metrics-port is given; null otherwise).
inline std::unique_ptr<obs::SnapshotPublisher>& publisher() {
  static std::unique_ptr<obs::SnapshotPublisher> p;
  return p;
}

inline void header(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n--- %s\n", experiment, claim);
  output().experiment = experiment;
}

[[gnu::format(printf, 1, 2)]] inline void columns(const char* fmt, ...) {
  std::printf("cols,");
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

[[gnu::format(printf, 1, 2)]] inline void row(const char* fmt, ...) {
  std::printf("row,");
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

[[gnu::format(printf, 1, 2)]] inline void note(const char* fmt, ...) {
  std::printf("note,");
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

/// Attaches a named scalar to the --json document's "bench" section.
inline void json_metric(std::string name, double value) {
  output().metrics.emplace_back(std::move(name), value);
}

/// Writes the requested --json / --trace files. Installed atexit by
/// parse_args(); idempotent only in the sense that it rewrites the files.
inline void finish() {
  OutputConfig& cfg = output();
  // Stop the live publisher first: its stop() writes one final snapshot, so
  // even sub-cadence runs leave a readable metrics file behind.
  publisher().reset();
  if (!cfg.json_path.empty()) {
    std::ofstream os(cfg.json_path);
    if (!os) {
      std::fprintf(stderr, "bench: cannot open --json file %s\n",
                   cfg.json_path.c_str());
    } else {
      telemetry::JsonWriter w(os);
      w.begin_object();
      w.kv("experiment", cfg.experiment);
      w.kv("telemetry_enabled", telemetry::kEnabled);
      w.key("provenance");
      obs::write_provenance_json(w);
      w.key("bench").begin_object();
      for (const auto& [name, value] : cfg.metrics) w.kv(name, value);
      w.end_object();
      w.key("telemetry");
      telemetry::Registry::instance().collect().write_json(w);
      w.end_object();
      os << '\n';
    }
  }
  if (!cfg.trace_path.empty()) {
    std::ofstream os(cfg.trace_path);
    if (!os) {
      std::fprintf(stderr, "bench: cannot open --trace file %s\n",
                   cfg.trace_path.c_str());
    } else {
      telemetry::write_chrome_trace(os);
      os << '\n';
    }
  }
}

/// Strips "--json <file>"/"--json=<file>" and "--trace <file>"/"--trace=<file>"
/// from argv (so they compose with google-benchmark's own flags) and arranges
/// for finish() to run at exit.
inline void parse_args(int& argc, char** argv) {
  auto take = [&](int& i, const char* flag, std::string& dst) -> bool {
    // An empty path would make finish() silently skip the file the caller
    // asked for; reject it up front on both spellings.
    auto require_nonempty = [&](const char* value) {
      if (value[0] == '\0') {
        std::fprintf(stderr, "bench: %s requires a non-empty file argument\n", flag);
        std::exit(2);
      }
    };
    const std::size_t len = std::strlen(flag);
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench: %s requires a file argument\n", flag);
        std::exit(2);
      }
      require_nonempty(argv[i + 1]);
      dst = argv[i + 1];
      i += 2;
      return true;
    }
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      require_nonempty(argv[i] + len + 1);
      dst = argv[i] + len + 1;
      i += 1;
      return true;
    }
    return false;
  };

  int out = 1;
  int i = 1;
  std::string metrics_file, metrics_port, metrics_period;
  while (i < argc) {
    if (take(i, "--json", output().json_path)) continue;
    if (take(i, "--trace", output().trace_path)) continue;
    if (take(i, "--metrics-file", metrics_file)) continue;
    if (take(i, "--metrics-port", metrics_port)) continue;
    if (take(i, "--metrics-period-ms", metrics_period)) continue;
    argv[out++] = argv[i++];
  }
  argc = out;
  argv[argc] = nullptr;

  // Live observability plane: --metrics-file writes snapshots at a cadence
  // (.json → JSON, else Prometheus text); --metrics-port serves them over
  // localhost HTTP (0 = ephemeral, the bound port is announced on stderr).
  // Like the --json= empty-path check above: a typo'd number must not
  // silently become port 0 (ephemeral!) or a default cadence — reject the
  // whole flag loudly instead, even when the flag alone starts no publisher.
  obs::SnapshotPublisher::Config pc;
  pc.file_path = metrics_file;
  if (!metrics_port.empty()) {
    pc.port = static_cast<int>(
        flag_uint("bench", "--metrics-port", metrics_port.c_str(), 0, 65535));
  }
  if (!metrics_period.empty()) {
    pc.period_ms = static_cast<unsigned>(
        flag_uint("bench", "--metrics-period-ms", metrics_period.c_str(), 1, 3'600'000));
  }
  // Either alone suffices; a failed bind warns and the bench runs on.
  if (!metrics_file.empty() || !metrics_port.empty()) {
    publisher() = std::make_unique<obs::SnapshotPublisher>(pc);
    if (!publisher()->start()) {
      std::fprintf(stderr, "bench: metrics publisher failed to start (port %s)\n",
                   metrics_port.c_str());
      publisher().reset();
    } else if (publisher()->port() >= 0) {
      std::fprintf(stderr, "bench: serving metrics on http://127.0.0.1:%d/metrics\n",
                   publisher()->port());
    }
  }

  // Default the experiment label to the binary name; header() (which the
  // table-printing binaries call) overwrites it with the real title.
  if (output().experiment.empty() && argv[0] != nullptr) {
    const char* base = std::strrchr(argv[0], '/');
    output().experiment = base != nullptr ? base + 1 : argv[0];
  }

  // Touch the registry before registering the atexit hook: function-local
  // statics are destroyed in reverse construction/registration order, so the
  // registry must exist first for the hook to run before its destructor.
  (void)telemetry::Registry::instance().local();
  static const bool registered = [] {
    std::atexit([] { finish(); });
    return true;
  }();
  (void)registered;
}

}  // namespace ph::bench
