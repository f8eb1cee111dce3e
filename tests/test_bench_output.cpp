// Integration check of the machine-readable bench output: runs the real
// bench_cycle_scaling binary (path injected by CMake) with --json/--trace,
// then parses both files — the JSON metrics must carry per-phase p50/p99
// latencies and merged per-thread counters, and the Chrome trace must parse
// with balanced B/E events. This is the executable contract future PRs rely
// on to produce BENCH_*.json trajectories mechanically.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "util/mini_json.hpp"

#ifndef PH_BENCH_CYCLE_SCALING_BIN
#error "CMake must define PH_BENCH_CYCLE_SCALING_BIN"
#endif

namespace ph {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

class BenchOutput : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // gtest_discover_tests runs each TEST_F in its own process, and ctest may
    // run them concurrently — the output paths must be unique per process.
    const std::string tag = std::to_string(static_cast<long>(::getpid()));
    json_path_ = ::testing::TempDir() + "ph_bench_out." + tag + ".json";
    trace_path_ = ::testing::TempDir() + "ph_bench_out." + tag + ".trace.json";
    // The engine benchmark exercises every phase (root/odd/even on the
    // driver, think on the workers, maint_service on the maintenance
    // thread); a short min_time keeps the test fast.
    const std::string cmd = std::string(PH_BENCH_CYCLE_SCALING_BIN) +
                            " --json " + json_path_ + " --trace " + trace_path_ +
                            " --benchmark_filter=BM_EngineCycle" +
                            " --benchmark_min_time=0.02 > /dev/null 2>&1";
    run_status_ = std::system(cmd.c_str());
  }

  static int run_status_;
  static std::string json_path_;
  static std::string trace_path_;
};

int BenchOutput::run_status_ = -1;
std::string BenchOutput::json_path_;
std::string BenchOutput::trace_path_;

TEST_F(BenchOutput, BinaryExitsCleanly) { EXPECT_EQ(run_status_, 0); }

TEST_F(BenchOutput, MetricsJsonHasPhasePercentilesAndMergedCounters) {
  ASSERT_EQ(run_status_, 0);
  const auto doc = minijson::parse(slurp(json_path_));

  // The counters object holds exactly the registered counter names.
  std::set<std::string> counter_names;
  for (const auto& [name, v] : doc.at("telemetry").at("counters").object()) {
    counter_names.insert(name);
  }
  EXPECT_EQ(counter_names, (std::set<std::string>{"ingest_staged", "ingest_runs"}));

  // Per-phase latency summaries with percentile fields.
  const auto& phases = doc.at("telemetry").at("phases").object();
  for (const char* name : {"root_work", "odd_half_step", "even_half_step",
                           "think", "think_stall", "steal", "maint_service"}) {
    ASSERT_TRUE(phases.count(name)) << name;
    const auto& p = phases.at(name);
    for (const char* field : {"count", "min_ns", "max_ns", "mean_ns", "p50_ns",
                              "p90_ns", "p99_ns"}) {
      ASSERT_TRUE(p.has(field)) << name << "." << field;
    }
  }

  // Per-thread breakdown: at least the driver plus think/maint workers.
  const auto& threads = doc.at("telemetry").at("threads").array();
  EXPECT_GE(threads.size(), 1u);
  for (const auto& t : threads) {
    EXPECT_TRUE(t.has("tid"));
    EXPECT_TRUE(t.has("name"));
    EXPECT_TRUE(t.at("counters").is_object());
  }

#if PH_TELEMETRY_ENABLED
  // With telemetry compiled in, the engine benchmark must have recorded real
  // cycles (root_work's count) and nonzero root-work/think latencies.
  EXPECT_GT(phases.at("root_work").at("count").number(), 0.0);
  EXPECT_GT(phases.at("root_work").at("p99_ns").number(), 0.0);
  EXPECT_GE(phases.at("root_work").at("p99_ns").number(),
            phases.at("root_work").at("p50_ns").number());
  EXPECT_GT(phases.at("think").at("count").number(), 0.0);
  std::set<std::string> names;
  for (const auto& t : threads) names.insert(t.at("name").str());
  EXPECT_TRUE(names.count("driver"));
  EXPECT_TRUE(names.count("think-0"));
  EXPECT_TRUE(names.count("maint-0"));
#endif
}

TEST_F(BenchOutput, ChromeTraceParsesWithBalancedEvents) {
  ASSERT_EQ(run_status_, 0);
  const auto doc = minijson::parse(slurp(trace_path_));
  const auto& events = doc.at("traceEvents").array();
  std::map<double, std::uint64_t> open_per_tid;
  std::uint64_t begins = 0, ends = 0;
  std::set<std::string> span_names;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").str();
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "M") << ph;
    if (ph == "M") continue;
    const double tid = e.at("tid").number();
    EXPECT_TRUE(e.has("ts"));
    span_names.insert(e.at("name").str());
    if (ph == "B") {
      ++open_per_tid[tid];
      ++begins;
    } else {
      ASSERT_GT(open_per_tid[tid], 0u);
      --open_per_tid[tid];
      ++ends;
    }
  }
  EXPECT_EQ(begins, ends);
  for (const auto& [tid, open] : open_per_tid) {
    EXPECT_EQ(open, 0u) << "tid " << tid;
  }
#if PH_TELEMETRY_ENABLED
  // The engine run must show the pipeline's per-thread spans.
  EXPECT_TRUE(span_names.count("root_work"));
  EXPECT_TRUE(span_names.count("even_half_step") ||
              span_names.count("odd_half_step"));
  EXPECT_TRUE(span_names.count("think"));
#endif
}

TEST(BenchArgs, MalformedMetricsNumbersAreRejected) {
  // Regression: --metrics-port/--metrics-period-ms went through bare atoi,
  // so "--metrics-port=abc" silently became port 0 (ephemeral bind!) and a
  // junk period silently became the 1ms default. Non-numeric, trailing-junk,
  // and out-of-range values must all exit 2, like the empty-path check.
  const std::string bin(PH_BENCH_CYCLE_SCALING_BIN);
  for (const char* args :
       {" --metrics-port=abc", " --metrics-port=12abc", " --metrics-port=-1",
        " --metrics-port=65536", " --metrics-port ''",
        " --metrics-period-ms=abc", " --metrics-period-ms=0",
        " --metrics-period-ms=-5", " --metrics-period-ms=10x"}) {
    const int status = std::system((bin + args + " > /dev/null 2>&1").c_str());
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args;
  }
}

TEST(BenchArgs, EmptyOutputPathIsRejected) {
  // Regression: "--json=" / "--trace=" (and an explicit empty argument) used
  // to be accepted and then silently skipped at exit — the caller asked for
  // a file and never got one. parse_args must reject them with exit code 2.
  const std::string bin(PH_BENCH_CYCLE_SCALING_BIN);
  for (const char* args : {" --json=", " --trace=", " --json ''", " --trace ''"}) {
    const int status =
        std::system((bin + args + " > /dev/null 2>&1").c_str());
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args;
  }
}

}  // namespace
}  // namespace ph
