// bench_stack — shared pieces: run options, the result table, exact
// percentiles, the in-memory span recorder, and /proc readers.
//
// Everything here belongs to the benchmark, not to the library: spans are
// recorded around calls INTO each layer's public functions, kept in memory,
// and written once at exit as Chrome trace_event JSON.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace stack {

/// setup_s is the median of kSetups set-ups before the timed window (the
/// last one serves the run) and kSetups after it, so one slow moment of a
/// shared host does not decide it.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed window of the run
  bool trace = false;     ///< per-layer run (spans, counters, replay rungs)
  bool smoke = false;     ///< shortened warm-ups/drains; same gates
  std::string phd;        ///< path of the phd binary under test
  std::string work_dir;   ///< scratch for WAL dirs, logs and the trace file
};

// ------------------------------------------------------------------ clocks

std::uint64_t mono_ns();      ///< CLOCK_MONOTONIC
/// mono_ns() `seconds` from now.
std::uint64_t mono_after(double seconds);
std::uint64_t real_ns();      ///< CLOCK_REALTIME (phd's deadline clock)
std::uint64_t thread_cpu_ns();

// ------------------------------------------------------------- statistics

/// Exact nearest-rank percentile (p in [0, 100]) of the samples; 0 if none.
/// Reorders `v`.
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);

/// The run's value of a timed quantity measured per segment (a stretch of
/// the window): the 5th percentile over the segments. This shared host's
/// neighbours slow random stretches of a run by up to 70% (identical runs
/// put the slow stretches in different places), so the quietest segments
/// estimate the program's own cost; a change to the program moves them all.
double quiet(std::vector<double> per_segment);

// ---------------------------------------------------------------- results

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric a run computes, plus the correctness ledger. The final
/// JSON line prints only the metric set the run was asked for.
class Results {
 public:
  void set(const std::string& name, double value, const char* unit);
  double get(const std::string& name) const;

  /// Records a correctness failure (the run exits non-zero).
  void fail(const std::string& why);
  bool correct() const noexcept { return failures_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< operations that failed (shed, errors, lost)

  /// Human-readable table of every metric, on stdout before the JSON line.
  void print_table(const std::string& workload) const;
  /// The contract line: {"correct", "attempted", "failed", "metrics"}
  /// with exactly the metrics in `specs`. A metric the run did not measure
  /// reads 0 when `missing_is_zero` (a layer the workload bypasses); else,
  /// like a unit that disagrees with its spec, it is a bug (exit 3).
  void print_json(const std::vector<MetricSpec>& specs, bool missing_is_zero) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
};

// ------------------------------------------------------------------ spans

/// In-memory span recorder. Off = every call is a cheap no-op. Spans nest
/// by call order (a span opened while another is open is its child), which
/// is how self time is computed: a span's duration minus its children's.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  /// Opens a span; returns its id (0 when off or when the cap is reached).
  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t id_;
  };

  /// Durations (µs) of every closed span with this name.
  std::vector<double> durations_us(const char* name) const;
  double total_us(const char* name) const;
  /// Sum over spans with this name of (duration − children's durations).
  double self_us(const char* name) const;
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Chrome trace_event JSON ("X" events; args carry id and parent id).
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t parent;  ///< 1-based index of the enclosing span, 0 = root
  };
  static constexpr std::size_t kMaxSpans = 4u << 20;

  bool on_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t dropped_ = 0;
};

// ------------------------------------------------------------------- /proc

struct ProcSample {
  std::uint64_t ctx_switches = 0;  ///< voluntary + nonvoluntary (main thread)
  double hwm_mib = 0;              ///< VmHWM
};

/// Reads /proc/<pid>/status; pid 0 = this process.
ProcSample sample_proc(pid_t pid);
/// CPU time of all threads of `pid`, in ns (the run time in schedstat).
std::uint64_t proc_cpu_ns(pid_t pid);
/// CPU time of one thread of `pid`, in ns.
std::uint64_t task_cpu_ns(pid_t pid, pid_t tid);
/// Thread ids of `pid`, ascending.
std::vector<pid_t> thread_ids(pid_t pid);

/// CPU placement. The benchmark runs on the last CPU it may use and phd on
/// the one before it, so the load generator never queues behind the server
/// on a shared core (with a single CPU, nothing is pinned: both return -1).
int bench_cpu();
int server_cpu();
/// Pins the calling thread to `cpu` (no-op for -1).
void pin_to(int cpu);

/// Sum of regular-file sizes under `dir` (recursive).
std::uint64_t dir_bytes(const std::string& dir);

/// printf-style note on stderr, prefixed "bench_stack: ".
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// -------------------------------------------------------------- workloads

void run_hold(const Options& opt, Results& res, Tracer& tr);
void run_des(const Options& opt, Results& res, Tracer& tr);

enum class SvcShape { kMixed, kTimeouts };
void run_svc(const Options& opt, SvcShape shape, Results& res, Tracer& tr);

/// BinaryHeap scalar hold on the hold_256k configuration: a host-speed
/// reference every traced run reports (ref.binary_ns_per_op).
double binary_hold_ns_per_op(std::uint64_t seed);

}  // namespace stack
