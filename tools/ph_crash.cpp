// ph_crash — kill-9 crash-recovery sweeps for the durability subsystem.
//
// The fault matrix (ph_stress --failpoint) exercises the persist fail-point
// sites exception-shaped, in-process. This tool exercises them with REAL
// process death: for each (site, seed) it forks a child that installs the
// std::_Exit crash hook, arms the site with a seeded one-shot schedule, and
// runs a deterministic cycle workload against DurableHeap — the child dies
// mid-append / mid-checkpoint / mid-fsync / mid-replay with no destructors
// and no flushes, leaving exactly the torn on-disk state a power cut would.
// The parent then recovers from the directory and differentially checks:
//
//   1. recovery reports op sequence P; the oracle replays the same
//      deterministic ops [1, P] (ops are pure functions of (seed, index),
//      never of heap output, so any P the log proves is replayable),
//   2. ops (P, N] run side by side on the recovered heap and the oracle —
//      every delete-min batch must match bit-exactly,
//   3. both drain to empty on identical streams.
//
// A separate corruption drill bit-flips one byte of the NEWEST checkpoint
// and requires recovery to detect it (CRC), quarantine it aside, fall back
// to the previous checkpoint, and still replay to the exact same state —
// a corrupt frame must never be silently loaded.
//
// Exit code 0 iff every sweep and drill is bit-exact.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "obs/flight_recorder.hpp"
#include "persist/recovery.hpp"
#include "robustness/failpoint.hpp"
#include "testing/oracle.hpp"
#include "util/flags.hpp"

namespace {

using ph::PipelinedParallelHeap;
using ph::persist::DurableHeap;
using ph::persist::DurableOptions;
using ph::persist::FsyncPolicy;
namespace fp = ph::robustness;

using U64 = std::uint64_t;
using DH = DurableHeap<PipelinedParallelHeap<U64>>;

// Upper bound for --seeds, --ops and --r: far past any useful sweep, low
// enough that a stray digit cannot ask for an unbounded run.
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 20;

struct Options {
  std::uint64_t seed = 1;
  std::size_t seeds = 8;     // seeds swept per site
  std::size_t ops = 96;      // ops per run
  std::size_t r = 8;         // node capacity
  std::uint64_t key_bound = 1u << 20;
  std::vector<std::string> sites = {"ckpt_write", "wal_append", "wal_fsync",
                                    "recover_replay"};
  bool verbose = false;
};

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Op {
  std::vector<U64> fresh;
  std::size_t k = 0;
};

// Op i (1-based) is a pure function of (seed, i): replay from any recovered
// prefix never depends on what the heap answered earlier.
Op gen_op(const Options& opt, std::uint64_t seed, std::size_t i) {
  std::uint64_t s = seed ^ (0xd1342543de82ef95ull * (i + 1));
  Op op;
  const std::size_t nfresh = splitmix(s) % (opt.r + 1);
  op.fresh.reserve(nfresh);
  for (std::size_t j = 0; j < nfresh; ++j) {
    op.fresh.push_back(splitmix(s) % opt.key_bound);
  }
  op.k = (i % 3 == 0) ? opt.r : splitmix(s) % (opt.r + 1);
  return op;
}

DurableOptions durable_opts(const std::string& dir, fp::FailSite site) {
  DurableOptions d;
  d.dir = dir;
  switch (site) {
    case fp::FailSite::kCkptWrite:
      d.fsync = FsyncPolicy::kOnCheckpoint;
      d.checkpoint_interval = 5;
      break;
    case fp::FailSite::kWalAppend:
    case fp::FailSite::kWalFsync:
      d.fsync = FsyncPolicy::kEveryRecord;
      d.checkpoint_interval = 7;
      break;
    case fp::FailSite::kRecoverReplay:
    default:
      d.fsync = FsyncPolicy::kNever;
      d.checkpoint_interval = 0;  // everything stays in the WAL tail
      break;
  }
  return d;
}

// Black box first, then die. dump_to_file is noexcept/best-effort, so the
// kill -9 semantics the drill wants (no destructors, no atexit) survive —
// one extra file write is the only difference from a raw _Exit.
[[noreturn]] void crash_hook(fp::FailSite) {
  ph::obs::FlightRecorder::instance().dump_to_file("ph-crash");
  std::_Exit(42);
}

// Child body: run the workload with `site` armed to kill the process.
// _Exit(0) = ran to completion (the seeded offset never fired); _Exit(42)
// = killed at the site; any other status = unexpected error.
[[noreturn]] void child_run(const Options& opt, fp::FailSite site,
                            std::uint64_t seed, const std::string& dir) {
  fp::set_crash_hook(&crash_hook);
  // Crash-time flight dumps land next to the durable files under test, not
  // in whatever cwd the harness launched us from.
  ph::obs::FlightRecorder::instance().set_dump_dir(dir);
  try {
    if (site == fp::FailSite::kRecoverReplay) {
      // Phase A (this child, unarmed): leave a long WAL tail behind.
      DH q(PipelinedParallelHeap<U64>(opt.r), durable_opts(dir, site));
      std::vector<U64> out;
      for (std::size_t i = 1; i <= opt.ops; ++i) {
        const Op op = gen_op(opt, seed, i);
        out.clear();
        q.cycle(op.fresh, op.k, out);
      }
      // Phase B: re-open with the replay site armed — dies mid-recovery,
      // inside this constructor, between two replayed records.
      fp::arm_seeded(site, seed, opt.ops / 2, /*max_fires=*/1);
      DH q2(PipelinedParallelHeap<U64>(opt.r), durable_opts(dir, site));
      std::_Exit(0);
    }
    fp::arm_seeded(site, seed, opt.ops / 2, /*max_fires=*/1);
    DH q(PipelinedParallelHeap<U64>(opt.r), durable_opts(dir, site));
    std::vector<U64> out;
    for (std::size_t i = 1; i <= opt.ops; ++i) {
      const Op op = gen_op(opt, seed, i);
      out.clear();
      q.cycle(op.fresh, op.k, out);
    }
    std::_Exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ph_crash: child: unexpected exception: %s\n", e.what());
    std::_Exit(3);
  } catch (...) {
    std::_Exit(3);
  }
}

// Recovers `dir` in this process and differentially checks the recovered
// heap against an oracle primed with the recovered prefix. Returns true on
// bit-exact agreement through the remaining ops and a full drain.
bool recover_and_check(const Options& opt, fp::FailSite site, std::uint64_t seed,
                       const std::string& dir, std::string& why) {
  DurableOptions d = durable_opts(dir, site);
  DH q(PipelinedParallelHeap<U64>(opt.r), d);
  const std::uint64_t p = q.op_seq();
  if (p > opt.ops) {
    why = "recovered op_seq " + std::to_string(p) + " > ops issued " +
          std::to_string(opt.ops);
    return false;
  }

  ph::testing::SortedOracle oracle;
  std::vector<U64> sink;
  for (std::uint64_t i = 1; i <= p; ++i) {
    const Op op = gen_op(opt, seed, i);
    sink.clear();
    oracle.cycle(op.fresh, op.k, sink);
  }
  if (oracle.size() != q.size()) {
    why = "size after replay: heap " + std::to_string(q.size()) + " vs oracle " +
          std::to_string(oracle.size());
    return false;
  }

  std::vector<U64> got, want;
  for (std::uint64_t i = p + 1; i <= opt.ops; ++i) {
    const Op op = gen_op(opt, seed, i);
    got.clear();
    want.clear();
    q.cycle(op.fresh, op.k, got);
    oracle.cycle(op.fresh, op.k, want);
    if (got != want) {
      why = "delete-min stream diverged at op " + std::to_string(i);
      return false;
    }
  }
  for (int guard = 0; guard < 1 << 15; ++guard) {
    if (q.empty() && oracle.empty()) break;
    got.clear();
    want.clear();
    q.cycle({}, opt.r, got);
    oracle.cycle({}, opt.r, want);
    if (got != want) {
      why = "drain stream diverged";
      return false;
    }
    if (got.empty() && !oracle.empty()) {
      why = "heap drained dry before the oracle";
      return false;
    }
  }
  if (!q.check_invariants(&why)) return false;
  return true;
}

struct TempDir {
  std::string path;
  explicit TempDir(const char* tag) : path(ph::persist::make_temp_dir(tag)) {}
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// One kill-at-site round. Returns true when recovery was bit-exact (or the
// seeded offset fell beyond the run and the child completed — still checked).
bool crash_round(const Options& opt, fp::FailSite site, std::uint64_t seed,
                 bool& killed) {
  TempDir dir("ph-crash");
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("ph_crash: fork");
    return false;
  }
  if (pid == 0) child_run(opt, site, seed, dir.path);

  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    std::perror("ph_crash: waitpid");
    return false;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (code != 0 && code != 42) {
    std::fprintf(stderr, "ph_crash: %s seed %llu: child failed (status %d)\n",
                 fp::fail_site_name(site),
                 static_cast<unsigned long long>(seed), code);
    return false;
  }
  killed = (code == 42);

  std::string why;
  if (!recover_and_check(opt, site, seed, dir.path, why)) {
    std::fprintf(stderr, "ph_crash: %s seed %llu (%s): MISMATCH: %s\n",
                 fp::fail_site_name(site),
                 static_cast<unsigned long long>(seed),
                 killed ? "killed" : "completed", why.c_str());
    return false;
  }
  return true;
}

// Bit-flip drill: corrupt one byte of the newest checkpoint, then require
// detection + fallback to the previous checkpoint + exact replay.
bool corrupt_checkpoint_round(const Options& opt, std::uint64_t seed) {
  TempDir dir("ph-crash-corrupt");
  DurableOptions d;
  d.dir = dir.path;
  d.fsync = FsyncPolicy::kNever;
  d.checkpoint_interval = 5;  // several checkpoints; retention keeps 2

  ph::testing::SortedOracle oracle;
  std::vector<U64> sink;
  {
    DH q(PipelinedParallelHeap<U64>(opt.r), d);
    for (std::size_t i = 1; i <= opt.ops; ++i) {
      const Op op = gen_op(opt, seed, i);
      sink.clear();
      q.cycle(op.fresh, op.k, sink);
      sink.clear();
      oracle.cycle(op.fresh, op.k, sink);
    }
  }  // closed cleanly: newest checkpoint + WAL tail on disk

  auto ckpts = ph::persist::list_checkpoints(dir.path);
  if (ckpts.empty()) {
    std::fprintf(stderr, "ph_crash: corrupt drill: no checkpoints written\n");
    return false;
  }
  const std::string victim = ckpts.back().second;
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff len = f.tellg();
    const std::streamoff at = len / 2;
    f.seekg(at);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(at);
    f.write(&b, 1);
  }

  DH q(PipelinedParallelHeap<U64>(opt.r), d);
  if (q.recovery_info().corrupt_checkpoints == 0) {
    std::fprintf(stderr,
                 "ph_crash: corrupt drill: bit-flipped checkpoint was not "
                 "detected — silently loaded\n");
    return false;
  }
  if (q.op_seq() != opt.ops || q.size() != oracle.size()) {
    std::fprintf(stderr,
                 "ph_crash: corrupt drill: fallback recovery incomplete "
                 "(op_seq %llu/%zu, size %zu vs %zu)\n",
                 static_cast<unsigned long long>(q.op_seq()), opt.ops, q.size(),
                 oracle.size());
    return false;
  }
  std::vector<U64> got, want;
  for (int guard = 0; guard < 1 << 15 && !(q.empty() && oracle.empty()); ++guard) {
    got.clear();
    want.clear();
    q.cycle({}, opt.r, got);
    oracle.cycle({}, opt.r, want);
    if (got != want || (got.empty() && !oracle.empty())) {
      std::fprintf(stderr, "ph_crash: corrupt drill: drain diverged\n");
      return false;
    }
  }
  return true;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --seed N     first seed (default 1)\n"
      "  --seeds N    seeds swept per site (default 8)\n"
      "  --ops N      ops per run (default 96)\n"
      "  --r N        node capacity (default 8)\n"
      "  --sites CSV  sites to sweep (default "
      "ckpt_write,wal_append,wal_fsync,recover_replay)\n"
      "  --verbose    per-round lines\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // Accept both `--flag value` and `--flag=value`.
    std::string inline_val;
    bool has_inline = false;
    if (const std::size_t eq = a.find('='); eq != std::string::npos) {
      inline_val = a.substr(eq + 1);
      a.resize(eq);
      has_inline = true;
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_val.c_str();
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      opt.seed = ph::flag_uint("ph_crash", "--seed", next(), 0, UINT64_MAX);
    } else if (a == "--seeds") {
      opt.seeds = ph::flag_uint("ph_crash", "--seeds", next(), 1, kMaxCount);
    } else if (a == "--ops") {
      opt.ops = ph::flag_uint("ph_crash", "--ops", next(), 1, kMaxCount);
    } else if (a == "--r") {
      opt.r = ph::flag_uint("ph_crash", "--r", next(), 1, kMaxCount);
    } else if (a == "--sites") {
      opt.sites.clear();
      std::string csv = next();
      std::size_t pos = 0;
      while (pos <= csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string tok =
            csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!tok.empty()) opt.sites.push_back(tok);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!fp::kFailpoints) {
    std::fprintf(stderr,
                 "ph_crash: built with PH_FAILPOINTS=OFF; nothing to sweep\n");
    return 0;
  }

  bool ok = true;
  for (const std::string& name : opt.sites) {
    fp::FailSite site;
    if (!fp::fail_site_from_name(name, site)) {
      std::fprintf(stderr, "ph_crash: unknown site '%s'\n", name.c_str());
      return 2;
    }
    std::size_t kills = 0, completes = 0, fails = 0;
    for (std::size_t s = 0; s < opt.seeds; ++s) {
      bool killed = false;
      const std::uint64_t seed = opt.seed + s;
      if (!crash_round(opt, site, seed, killed)) {
        ++fails;
        ok = false;
      } else {
        killed ? ++kills : ++completes;
      }
      if (opt.verbose) {
        std::printf("ph_crash: %-14s seed %llu  %s\n", name.c_str(),
                    static_cast<unsigned long long>(seed),
                    killed ? "killed+recovered" : "completed+reopened");
      }
    }
    std::printf("ph_crash: %-14s %s (%zu killed, %zu completed, %zu failed)\n",
                name.c_str(), fails == 0 ? "OK" : "FAIL", kills, completes,
                fails);
    if (kills == 0 && fails == 0) {
      // A sweep that never kills proves nothing about crash recovery.
      std::printf("ph_crash: %-14s WARN: no seed produced a kill\n",
                  name.c_str());
    }
  }

  std::size_t corrupt_fails = 0;
  for (std::size_t s = 0; s < opt.seeds; ++s) {
    if (!corrupt_checkpoint_round(opt, opt.seed + s)) {
      ++corrupt_fails;
      ok = false;
    }
  }
  std::printf("ph_crash: corrupt_ckpt    %s (%zu/%zu rounds)\n",
              corrupt_fails == 0 ? "OK" : "FAIL", opt.seeds - corrupt_fails,
              opt.seeds);

  std::printf("ph_crash: %s\n", ok ? "ALL RECOVERIES BIT-EXACT" : "FAILURES");
  return ok ? 0 : 1;
}
