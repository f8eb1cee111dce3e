// ph_stress — the randomized differential soak, as a CLI.
//
// Sweeps every registered batch-PQ structure (or a named subset) against the
// sorted-multiset oracle over seeded adversarial traces; failing traces are
// minimized and written as reproducer files that ph_repro replays.
//
//   ph_stress                         # default soak, exit 0 iff clean
//   ph_stress --seed 7 --rounds 4     # more seeds per combination
//   ph_stress --budget 60             # stop starting traces after 60s
//   ph_stress --structures pipelined_heap_faulty --must-fail
//                                     # CI detection proof: exit 0 iff the
//                                     # injected fault was caught
//   ph_stress --failpoint             # fault-matrix sweep: fire every
//                                     # registered fail-point site inside a
//                                     # differential drill; exit 0 iff every
//                                     # site fired AND recovered/was detected
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "robustness/fault_matrix.hpp"
#include "robustness/watchdog.hpp"
#include "testing/sched_fuzz.hpp"
#include "testing/stress.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --seed N            master seed (default 1)\n"
               "  --rounds N          seeds per (structure, r, key bound) (default 2)\n"
               "  --cycles N          ops per trace (default 400)\n"
               "  --r LIST            comma-separated node capacities (default 1,2,3,8,32)\n"
               "  --key-bounds LIST   comma-separated key bounds (default 65536,2^40)\n"
               "  --structures LIST   comma-separated structure names (default: all)\n"
               "  --repro-dir DIR     write reproducer files for failures\n"
               "  --budget SECONDS    stop starting new traces after this\n"
               "  --max-failures N    stop the soak after N failures (default 4)\n"
               "  --shrink-attempts N minimizer budget per failure (default 4000)\n"
               "  --no-shrink         keep failing traces unminimized\n"
               "  --sched-fuzz SEED   arm the schedule perturbation hooks (if compiled in)\n"
               "  --sched-fuzz-permille N  per-crossing yield probability, 0..1000 (default 200)\n"
               "  --must-fail         invert the exit code: 0 iff failures were found\n"
               "  --failpoint         run the fault matrix instead of the soak: every\n"
               "                      registered fail-point site is fired inside a\n"
               "                      differential drill (uses --seed/--cycles)\n"
               "  --flightrec-smoke   end-to-end black-box drill: fail-point-induced\n"
               "                      think-lane quarantine, then a real watchdog stall\n"
               "                      verdict; exit 0 iff the flight dump was written\n"
               "                      (path printed; honors $PH_FLIGHTREC_DIR)\n",
               argv0);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::uint64_t parse_count(const char* flag, const char* text,
                          std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX) {
  return ph::flag_uint("ph_stress", flag, text, lo, hi);
}

/// --flightrec-smoke: drive the whole black-box chain in one process — a
/// fail-point makes an engine think lane throw and the engine retires the
/// lane (failpoint_fire + lane_quarantine land in the flight ring), then an
/// unbeaten watchdog channel crosses a real 1ms stall timeout and the
/// rung-2 verdict persists the ring. CI parses the printed dump path.
int run_flightrec_smoke(std::uint64_t seed) {
  namespace rb = ph::robustness;
  if (!rb::kFailpoints) {
    std::fprintf(stderr,
                 "ph_stress: --flightrec-smoke needs the fail-point sites "
                 "(build with -DPH_FAILPOINTS=ON)\n");
    return 2;
  }
  ph::EngineConfig ecfg;
  ecfg.node_capacity = 8;
  ecfg.think_threads = 2;
  ecfg.lane_fault_limit = 1;  // the first throw retires its lane
  ph::ParallelHeapEngine<std::uint64_t> engine(ecfg);
  ph::Xoshiro256 rng(seed ? seed : 1);
  std::vector<std::uint64_t> items(64);
  for (auto& v : items) v = rng.next_below(1u << 20);
  engine.seed(items);
  rb::arm(rb::FailSite::kThinkThrow, rb::FireSpec{2, 0, 1, 0});
  const ph::EngineReport rep = engine.run(
      [](unsigned, std::span<const std::uint64_t>, std::span<const std::uint64_t>,
         std::vector<std::uint64_t>&) {});
  rb::disarm_all();
  if (rep.lanes_quarantined == 0) {
    std::fprintf(stderr, "flightrec-smoke: fail-point never retired a think lane\n");
    return 1;
  }

  rb::PhaseWatchdog::Config wcfg;
  wcfg.stall_timeout_ns = 1'000'000;  // 1ms: real clock, bounded wait
  wcfg.dump_after_polls = 1;
  rb::PhaseWatchdog wd(wcfg);
  const std::size_t ch = wd.add_channel("smoke-pipeline");
  wd.beat(ch);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const rb::PhaseWatchdog::PollResult res = wd.poll();
  const std::string path = wd.last_flight_dump();
  if (!res.dumped || path.empty()) {
    std::fprintf(stderr, "flightrec-smoke: stall verdict produced no dump\n");
    return 1;
  }
  std::printf("flightrec-smoke: dump %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ph::testing::StressConfig cfg;
  bool must_fail = false;
  bool failpoint = false;
  bool flightrec_smoke = false;
  bool sched_fuzz = false;
  std::uint64_t sched_fuzz_seed = 0;
  std::uint64_t sched_fuzz_permille = 200;

  // Each argument is split once up front so both `--flag value` and
  // `--flag=value` spell every option.
  const char* inline_val = nullptr;
  auto value = [&](int& i, const char* flag) -> const char* {
    if (inline_val != nullptr) return inline_val;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "ph_stress: %s requires an argument\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };

  std::string flag_buf;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    inline_val = nullptr;
    if (const char* eq = std::strchr(a, '=');
        eq != nullptr && a[0] == '-' && a[1] == '-') {
      flag_buf.assign(a, static_cast<std::size_t>(eq - a));
      a = flag_buf.c_str();
      inline_val = eq + 1;
    }
    if (std::strcmp(a, "--seed") == 0) {
      cfg.seed = parse_count("--seed", value(i, a));
    } else if (std::strcmp(a, "--rounds") == 0) {
      cfg.rounds = parse_count("--rounds", value(i, a));
    } else if (std::strcmp(a, "--cycles") == 0) {
      cfg.cycles = parse_count("--cycles", value(i, a));
    } else if (std::strcmp(a, "--r") == 0) {
      cfg.r_values.clear();
      for (const auto& tok : split_csv(value(i, a))) {
        cfg.r_values.push_back(
            parse_count("--r", tok.c_str(), 1, std::uint64_t{1} << 20));
      }
    } else if (std::strcmp(a, "--key-bounds") == 0) {
      cfg.key_bounds.clear();
      for (const auto& tok : split_csv(value(i, a))) {
        cfg.key_bounds.push_back(parse_count("--key-bounds", tok.c_str()));
      }
    } else if (std::strcmp(a, "--structures") == 0) {
      cfg.structures = split_csv(value(i, a));
    } else if (std::strcmp(a, "--repro-dir") == 0) {
      cfg.repro_dir = value(i, a);
    } else if (std::strcmp(a, "--budget") == 0) {
      cfg.time_budget_s = ph::flag_double("ph_stress", "--budget", value(i, a));
    } else if (std::strcmp(a, "--max-failures") == 0) {
      cfg.max_failures = parse_count("--max-failures", value(i, a));
    } else if (std::strcmp(a, "--shrink-attempts") == 0) {
      cfg.shrink_attempts = parse_count("--shrink-attempts", value(i, a));
    } else if (std::strcmp(a, "--no-shrink") == 0) {
      cfg.shrink = false;
    } else if (std::strcmp(a, "--sched-fuzz") == 0) {
      sched_fuzz = true;
      sched_fuzz_seed = parse_count("--sched-fuzz", value(i, a));
    } else if (std::strcmp(a, "--sched-fuzz-permille") == 0) {
      sched_fuzz_permille = parse_count("--sched-fuzz-permille", value(i, a), 0, 1000);
    } else if (std::strcmp(a, "--must-fail") == 0) {
      must_fail = true;
    } else if (std::strcmp(a, "--failpoint") == 0) {
      failpoint = true;
    } else if (std::strcmp(a, "--flightrec-smoke") == 0) {
      flightrec_smoke = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "ph_stress: unknown option '%s'\n", a);
      usage(argv[0]);
      return 2;
    }
  }

  if (flightrec_smoke) return run_flightrec_smoke(cfg.seed);

  if (failpoint) {
    if (!ph::robustness::kFailpoints) {
      std::fprintf(stderr,
                   "ph_stress: --failpoint requested but the fail-point sites are "
                   "not compiled in (build with -DPH_FAILPOINTS=ON)\n");
      return 2;
    }
    ph::robustness::FaultMatrixConfig fcfg;
    fcfg.seed = cfg.seed;
    if (cfg.cycles != ph::testing::StressConfig{}.cycles) fcfg.cycles = cfg.cycles;
    const ph::robustness::FaultMatrixReport rep =
        ph::robustness::run_fault_matrix(fcfg, &std::cerr);
    std::printf("fault-matrix: %zu sites, %s\n", rep.rows.size(),
                rep.ok() ? "all fired and recovered" : "FAILURES");
    return rep.ok() ? 0 : 1;
  }

  if (sched_fuzz) {
    if (!ph::testing::kSchedFuzz) {
      std::fprintf(stderr,
                   "ph_stress: --sched-fuzz requested but the hooks are not "
                   "compiled in (build with -DPH_SCHED_FUZZ=ON)\n");
      return 2;
    }
    ph::testing::sched_fuzz_enable(sched_fuzz_seed,
                                   static_cast<unsigned>(sched_fuzz_permille));
  }

  const ph::testing::StressReport rep = ph::testing::run_stress(cfg, &std::cerr);

  std::printf("stress: %zu traces (%zu cycles) in %.1fs, %zu skipped, %zu failures\n",
              rep.traces_run, rep.cycles_run, rep.seconds, rep.traces_skipped,
              rep.failures.size());
  for (const auto& f : rep.failures) {
    std::printf("stress: FAIL %s r=%zu seed=%llu op=%zu: %s\n",
                f.trace.structure.c_str(), f.trace.r,
                static_cast<unsigned long long>(f.trace.seed), f.failure.op_index,
                f.failure.message.c_str());
    if (!f.repro_path.empty()) {
      std::printf("stress: repro %s\n", f.repro_path.c_str());
    }
  }
  if (ph::testing::kSchedFuzz && sched_fuzz) {
    std::printf("stress: sched-fuzz perturbations=%llu\n",
                static_cast<unsigned long long>(
                    ph::testing::sched_fuzz_perturbations()));
  }

  if (must_fail) return rep.ok() ? 1 : 0;
  return rep.ok() ? 0 : 1;
}
