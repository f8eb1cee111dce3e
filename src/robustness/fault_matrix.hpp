// Fault matrix — one differential drill per registered fail-point site.
//
// The acceptance bar for the robustness layer is not "the fault fires" but
// "the fault fires AND the documented guarantee holds afterwards". This
// header encodes that bar as a sweep: for every FailSite there is a drill
// that arms the site with a deterministic schedule, drives a structure
// through the differential harness (testing/differential.hpp), and verifies
// the site-specific contract:
//
//   root_alloc / spawn_alloc / torn_insert / compare_throw
//       strong guarantee: a guarded retry wrapper checkpoints before each
//       cycle, rolls back on the injected throw, and retries — the deletion
//       stream must match the sorted-multiset oracle EXACTLY, as if no
//       fault ever fired.
//   skip_reservice
//       detection: the historical revert-note bug produces wrong answers
//       without throwing; the drill passes iff the differential harness
//       CATCHES it (a clean run here is the failure).
//   worker_stall
//       liveness: bounded injected delays on ThreadTeam workers must not
//       change the deletion stream (exercises the barrier backoff ladder).
//   think_throw
//       at-least-once: engine think lanes that throw are requeued; every
//       seeded item must still be processed and the heap must drain empty.
//   ckpt_write
//       non-fatal checkpoints: an injected failure mid-checkpoint is
//       swallowed by DurableHeap (the .tmp never publishes), the heap keeps
//       serving on the previous checkpoint + live WAL, and the stream stays
//       EXACT.
//   wal_append / wal_fsync
//       strong guarantee at the log: a failed append truncates itself back
//       out of the segment before the op is acknowledged; a caller retry
//       then succeeds and the stream stays EXACT.
//   recover_replay
//       double crash: recovery that dies mid-replay (injected) leaves the
//       directory exactly as recoverable — a second recovery reaches the
//       identical state, verified by draining against a fault-free oracle.
//   ingest_flush
//       conservation under producer death: a flush sweep that dies between
//       slot drains restages the in-flight buffer; no staged item is ever
//       lost or duplicated (admission may lag a cycle, so the drill runs
//       under bounded-lag conservation, not stream equality).
//   svc_accept
//       clean refusal: a faulted schedule/cancel accept stages NOTHING (the
//       client gets kTransient and retries); after a full drain the
//       scheduler's delivered set must be exactly the acked-minus-cancelled
//       oracle — no job lost, none fabricated, none duplicated.
//   svc_dispatch
//       transaction abort: a fault between a poll's POP record and its CLOSE
//       requeues every popped job (the same path WAL recovery takes for an
//       unterminated transaction); deliveries stay exactly-once and the
//       ledger conservation law holds through every abort.
//
// (In-process, these crash sites throw InjectedFault — the exception shape
// every drill can roll back from. The ph_crash tool additionally drives the
// same sites with a real process kill; see tools/ph_crash.cpp.)
//
// Everything is derived from one seed; a failing drill is reproducible from
// (site, seed) alone. run_fault_matrix is what `ph_stress --failpoint` and
// the CI fault-matrix job execute.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/pipelined_heap.hpp"
#include "persist/recovery.hpp"
#include "robustness/failpoint.hpp"
#include "svc/core.hpp"
#include "testing/differential.hpp"
#include "testing/op_trace.hpp"
#include "testing/structures.hpp"

namespace ph::robustness {

/// The drill table IS the registry-coverage contract: every FailSite must
/// appear here exactly once, and run_fault_matrix runs one drill per row.
/// Registering a new site without extending this table (and the matrix)
/// fails the build at this line instead of a count literal drifting
/// silently out of date.
inline constexpr FailSite kDrilledSites[] = {
    FailSite::kRootAlloc,     FailSite::kSpawnAlloc,
    FailSite::kTornInsert,    FailSite::kSkipReservice,
    FailSite::kCompareThrow,  FailSite::kThinkThrow,
    FailSite::kWorkerStall,   FailSite::kCkptWrite,
    FailSite::kWalAppend,     FailSite::kWalFsync,
    FailSite::kRecoverReplay, FailSite::kIngestFlush,
    FailSite::kSvcAccept,     FailSite::kSvcDispatch,
};
static_assert(sizeof(kDrilledSites) / sizeof(kDrilledSites[0]) == kNumFailSites,
              "every registered FailSite needs a fault-matrix drill: add the "
              "site to kDrilledSites AND a drill to run_fault_matrix");

struct FaultMatrixConfig {
  std::uint64_t seed = 1;
  std::size_t r = 8;            ///< node capacity for the heap drills
  std::size_t cycles = 300;     ///< ops per drill trace
  std::uint64_t key_bound = std::uint64_t{1} << 16;
};

struct FaultSiteResult {
  FailSite site = FailSite::kCount;
  SiteStats stats;      ///< evaluations/fires/recoveries after the drill
  bool fired = false;   ///< site fired at least once
  bool ok = false;      ///< site-specific contract held
  std::string detail;   ///< failure description (empty when ok)
};

struct FaultMatrixReport {
  std::vector<FaultSiteResult> rows;

  /// Green iff every registered site fired at least once AND every drill's
  /// contract held.
  bool ok() const noexcept {
    if (rows.size() != kNumFailSites) return false;
    for (const FaultSiteResult& r : rows) {
      if (!r.fired || !r.ok) return false;
    }
    return true;
  }
};

namespace fm_detail {

using U64 = std::uint64_t;

/// Comparator that is also a fail-point site: models a user comparator
/// throwing from inside the heap's merge loops.
struct ThrowingLess {
  bool operator()(U64 a, U64 b) const {
    fire_fault(FailSite::kCompareThrow);
    return a < b;
  }
};

/// Strong-guarantee retry wrapper: checkpoint before each cycle, roll back
/// and retry on an injected failure. With a retry cap the drill cannot hang
/// even under a pathological arming spec; the differential oracle then
/// verifies the stream is EXACTLY what a fault-free run would produce.
template <typename Cmp>
class GuardedPipelinedAdapter {
 public:
  explicit GuardedPipelinedAdapter(std::size_t r, FailSite site)
      : q_(r, Cmp{}), site_(site) {}

  std::size_t cycle(std::span<const U64> fresh, std::size_t k,
                    std::vector<U64>& out) {
    for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
      auto snap = take_snapshot();
      const std::size_t entry = out.size();
      try {
        return q_.cycle(fresh, k, out);
      } catch (const InjectedFailure&) {
        out.resize(entry);
        restore_with_retry(snap);
        note_recovery(site_);
      }
    }
    // Surfaced as a stream mismatch by the harness.
    return 0;
  }

  bool check_invariants(std::string* why) {
    // The draining deep check compares too — an injected comparator throw
    // mid-drain would poison the heap outside cycle()'s guard. Checkpoint,
    // and on a fire roll back and report the check clean (it ran partially;
    // the next stride retries it).
    auto snap = take_snapshot();
    try {
      if (!q_.verify_invariants(why)) return false;
      return q_.check_invariants(why);
    } catch (const InjectedFailure&) {
      restore_with_retry(snap);
      note_recovery(site_);
      return true;
    }
  }

 private:
  static constexpr int kMaxRetries = 64;

  typename PipelinedParallelHeap<U64, Cmp>::Snapshot take_snapshot() {
    // snapshot() copies without comparing, but keep the retry discipline
    // anyway: it must never be the thing that sinks the drill.
    return q_.snapshot();
  }

  void restore_with_retry(const typename PipelinedParallelHeap<U64, Cmp>::Snapshot& s) {
    // restore() re-sorts with the (possibly throwing) comparator; restore
    // from the same snapshot until it sticks — restore is idempotent, it
    // only reads the snapshot's items.
    for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
      try {
        q_.restore(s);
        return;
      } catch (const InjectedFailure&) {
      }
    }
  }

  PipelinedParallelHeap<U64, Cmp> q_;
  FailSite site_;
};

inline testing::OpTrace drill_trace(const FaultMatrixConfig& cfg, FailSite site) {
  testing::GenConfig gen;
  gen.r = cfg.r;
  gen.cycles = cfg.cycles;
  gen.key_bound = cfg.key_bound;
  gen.seed = cfg.seed ^ (0x9e3779b97f4a7c15ull * (static_cast<U64>(site) + 1));
  return testing::generate_trace(gen);
}

inline FaultSiteResult finish(FailSite site, bool ok, std::string detail) {
  FaultSiteResult row;
  row.site = site;
  row.stats = stats(site);
  row.fired = row.stats.fires > 0;
  row.ok = ok;
  row.detail = std::move(detail);
  disarm_all();
  return row;
}

/// Rollback drills: injected throw mid-cycle, guarded retry, exact stream.
template <typename Cmp>
FaultSiteResult rollback_drill(const FaultMatrixConfig& cfg, FailSite site,
                               FireSpec spec) {
  disarm_all();
  const testing::OpTrace trace = drill_trace(cfg, site);
  GuardedPipelinedAdapter<Cmp> q(cfg.r, site);
  arm(site, spec);
  testing::DiffOptions opt;
  opt.invariant_stride = 64;
  const testing::DiffFailure f = testing::run_differential(q, trace, opt);
  std::string detail;
  bool ok = !f.failed;
  if (f.failed) detail = "differential failed after rollback: " + f.message;
  return finish(site, ok, std::move(detail));
}

inline FaultSiteResult skip_reservice_drill(const FaultMatrixConfig& cfg) {
  // Detection drill: the harness must CATCH the wrong-answer bug. One
  // (r, seed) combination can pass by luck; sweep a few deterministically
  // and require at least one catch with the site having fired.
  disarm_all();
  bool detected = false;
  std::uint64_t fires = 0;
  for (const std::size_t r : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    for (std::uint64_t round = 0; round < 3 && !detected; ++round) {
      testing::GenConfig gen;
      gen.r = r;
      gen.cycles = cfg.cycles;
      gen.key_bound = cfg.key_bound;
      gen.seed = cfg.seed + 1000 * r + round;
      testing::OpTrace trace = testing::generate_trace(gen);
      trace.structure = "pipelined_heap_faulty";  // arms the site itself
      const testing::DiffFailure f = testing::run_trace(trace);
      fires += stats(FailSite::kSkipReservice).fires;
      if (f.failed) detected = true;
    }
    if (detected) break;
  }
  FaultSiteResult row;
  row.site = FailSite::kSkipReservice;
  row.stats = stats(FailSite::kSkipReservice);
  row.stats.fires = std::max<std::uint64_t>(row.stats.fires, fires);
  row.fired = fires > 0;
  row.ok = detected;
  if (!detected) {
    row.detail = "harness failed to detect the skip-reservice wrong-answer bug";
  } else {
    note_recovery(FailSite::kSkipReservice);  // verified detection
    row.stats.recoveries = stats(FailSite::kSkipReservice).recoveries;
  }
  disarm_all();
  return row;
}

inline FaultSiteResult worker_stall_drill(const FaultMatrixConfig& cfg) {
  disarm_all();
  const testing::OpTrace trace = drill_trace(cfg, FailSite::kWorkerStall);
  testing::MtPipelinedHeapAdapter q(cfg.r);
  arm(FailSite::kWorkerStall,
      FireSpec{/*nth=*/3, /*period=*/7, /*max_fires=*/40, /*stall_us=*/100});
  testing::DiffOptions opt;
  opt.invariant_stride = 64;
  const testing::DiffFailure f = testing::run_differential(q, trace, opt);
  const bool ok = !f.failed;
  if (ok) note_recovery(FailSite::kWorkerStall);  // stalls absorbed, stream exact
  return finish(FailSite::kWorkerStall, ok,
                ok ? "" : "stream diverged under injected worker stalls: " + f.message);
}

inline FaultSiteResult think_throw_drill(const FaultMatrixConfig& cfg) {
  disarm_all();
  EngineConfig ecfg;
  ecfg.node_capacity = cfg.r;
  ecfg.think_threads = 2;
  ecfg.batch = cfg.r;
  ParallelHeapEngine<U64> engine(ecfg);
  const std::size_t n = std::min<std::size_t>(cfg.cycles * cfg.r / 4 + 64, 4096);
  std::vector<U64> seedv(n);
  for (std::size_t i = 0; i < n; ++i) seedv[i] = static_cast<U64>(i);
  engine.seed(seedv);

  // Each lane appends into its own slot; merged after run() returns.
  std::vector<std::vector<U64>> processed(2);
  arm(FailSite::kThinkThrow,
      FireSpec{/*nth=*/2, /*period=*/5, /*max_fires=*/4, /*stall_us=*/0});
  const EngineReport rep = engine.run(
      [&](unsigned tid, std::span<const U64> mine, std::span<const U64>,
          std::vector<U64>&) {
        processed[tid].insert(processed[tid].end(), mine.begin(), mine.end());
      });

  std::vector<U64> all;
  for (const auto& p : processed) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  bool ok = true;
  std::string detail;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::binary_search(all.begin(), all.end(), static_cast<U64>(i))) {
      ok = false;
      detail = "item " + std::to_string(i) + " was never processed after requeue";
      break;
    }
  }
  if (ok && !engine.heap().empty()) {
    ok = false;
    detail = "heap not drained after run";
  }
  if (ok && stats(FailSite::kThinkThrow).fires > 0 && rep.think_faults == 0) {
    ok = false;
    detail = "think_throw fired but no lane fault was recorded";
  }
  return finish(FailSite::kThinkThrow, ok, std::move(detail));
}

/// Scoped temp directory for the persist drills.
struct TempDir {
  std::string path;
  explicit TempDir(const char* prefix) : path(persist::make_temp_dir(prefix)) {}
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Non-fatal checkpoint drill: injected failures mid-checkpoint-write must
/// be swallowed by the auto-checkpoint path (counted as recoveries) while
/// the stream stays exact against the oracle.
inline FaultSiteResult ckpt_write_drill(const FaultMatrixConfig& cfg) {
  disarm_all();
  const testing::OpTrace trace = drill_trace(cfg, FailSite::kCkptWrite);
  const TempDir dir("ph-fm-ckpt");
  persist::DurableOptions opt;
  opt.dir = dir.path;
  opt.fsync = persist::FsyncPolicy::kNever;  // drill targets the write path
  opt.checkpoint_interval = 4;
  persist::DurableHeap<PipelinedParallelHeap<U64>> q(
      PipelinedParallelHeap<U64>(cfg.r), opt);
  arm(FailSite::kCkptWrite,
      FireSpec{/*nth=*/5, /*period=*/11, /*max_fires=*/16, /*stall_us=*/0});
  testing::DiffOptions dopt;
  dopt.invariant_stride = 64;
  const testing::DiffFailure f = testing::run_differential(q, trace, dopt);
  const bool ok = !f.failed;
  return finish(FailSite::kCkptWrite, ok,
                ok ? "" : "stream diverged across failed checkpoints: " + f.message);
}

/// Retry wrapper for the WAL-site drills: an injected append/fsync failure
/// un-logs itself (WalWriter truncates back) before surfacing, so a plain
/// retry — no snapshot — must succeed with the op applied exactly once.
class RetryingDurableAdapter {
 public:
  RetryingDurableAdapter(std::size_t r, const persist::DurableOptions& opt,
                         FailSite site)
      : q_(PipelinedParallelHeap<U64>(r), opt), site_(site) {}

  std::size_t cycle(std::span<const U64> fresh, std::size_t k,
                    std::vector<U64>& out) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t entry = out.size();
      try {
        return q_.cycle(fresh, k, out);
      } catch (const InjectedFailure&) {
        out.resize(entry);
        note_recovery(site_);
      }
    }
    return 0;  // surfaced as a stream mismatch by the harness
  }

  bool check_invariants(std::string* why) { return q_.check_invariants(why); }

 private:
  persist::DurableHeap<PipelinedParallelHeap<U64>> q_;
  FailSite site_;
};

inline FaultSiteResult wal_site_drill(const FaultMatrixConfig& cfg, FailSite site,
                                      FireSpec spec) {
  disarm_all();
  const testing::OpTrace trace = drill_trace(cfg, site);
  const TempDir dir("ph-fm-wal");
  persist::DurableOptions opt;
  opt.dir = dir.path;
  // kEveryRecord so the kWalFsync site evaluates; the kWalAppend drill
  // shares the policy — its firing schedule targets the append site.
  opt.fsync = persist::FsyncPolicy::kEveryRecord;
  opt.checkpoint_interval = 32;
  RetryingDurableAdapter q(cfg.r, opt, site);
  arm(site, spec);
  testing::DiffOptions dopt;
  dopt.invariant_stride = 64;
  const testing::DiffFailure f = testing::run_differential(q, trace, dopt);
  const bool ok = !f.failed;
  return finish(site, ok,
                ok ? "" : "stream diverged after WAL-failure retries: " + f.message);
}

/// Double-crash drill: recovery interrupted mid-replay (injected throw from
/// the kRecoverReplay site) must leave the directory exactly as recoverable;
/// the follow-up recovery's drained stream must match a fault-free oracle.
inline FaultSiteResult recover_replay_drill(const FaultMatrixConfig& cfg) {
  disarm_all();
  const TempDir dir("ph-fm-recover");
  using DH = persist::DurableHeap<PipelinedParallelHeap<U64>>;
  persist::DurableOptions opt;
  opt.dir = dir.path;
  opt.fsync = persist::FsyncPolicy::kNever;
  opt.checkpoint_interval = 0;  // keep every op in the WAL tail

  // Phase 1: run a deterministic op sequence, mirrored into an oracle.
  // (Local splitmix: fp_detail's helper only exists in failpoint builds.)
  const auto splitmix = [](std::uint64_t& st) {
    std::uint64_t z = (st += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  testing::SortedOracle oracle;
  std::uint64_t s = cfg.seed ^ 0xabcdef12345ull;
  std::vector<U64> fresh, sink;
  const std::size_t n_ops = 48;
  {
    DH q(PipelinedParallelHeap<U64>(cfg.r), opt);
    for (std::size_t i = 0; i < n_ops; ++i) {
      fresh.clear();
      for (std::size_t j = 0; j < cfg.r / 2 + 1; ++j) {
        fresh.push_back(splitmix(s) % cfg.key_bound);
      }
      const std::size_t k = i % 3 == 0 ? cfg.r / 2 : 0;
      sink.clear();
      q.cycle(fresh, k, sink);
      std::vector<U64> osink;
      oracle.cycle(fresh, k, osink);
      if (sink != osink) {
        return finish(FailSite::kRecoverReplay, false,
                      "pre-crash stream diverged from oracle");
      }
    }
  }  // clean close; the WAL tail still carries all n_ops records

  // Phase 2: recovery dies mid-replay (the "second crash").
  arm(FailSite::kRecoverReplay,
      FireSpec{/*nth=*/n_ops / 2, /*period=*/0, /*max_fires=*/1, /*stall_us=*/0});
  bool interrupted = false;
  try {
    DH q(PipelinedParallelHeap<U64>(cfg.r), opt);
  } catch (const InjectedFailure&) {
    interrupted = true;
  }
  if (!interrupted) {
    return finish(FailSite::kRecoverReplay, false,
                  "injected mid-replay failure did not surface");
  }

  // Phase 3: recover again (site exhausted its max_fires) and drain both
  // sides — the streams must be identical.
  {
    DH q(PipelinedParallelHeap<U64>(cfg.r), opt);
    for (int guard = 0; guard < 1 << 15; ++guard) {
      sink.clear();
      std::vector<U64> osink;
      const std::size_t nq = q.cycle({}, cfg.r, sink);
      const std::size_t no = oracle.cycle({}, cfg.r, osink);
      if (sink != osink) {
        return finish(FailSite::kRecoverReplay, false,
                      "post-double-crash drain diverged from oracle");
      }
      if (nq == 0 && no == 0) break;
    }
    std::string why;
    if (!q.check_invariants(&why)) {
      return finish(FailSite::kRecoverReplay, false,
                    "invariants failed after double-crash recovery: " + why);
    }
  }
  note_recovery(FailSite::kRecoverReplay);
  return finish(FailSite::kRecoverReplay, true, "");
}

/// Producer-death drill: injected kIngestFlush failures abort the staging
/// sweep mid-flush; the restage path must conserve every item (admission may
/// lag the faulted cycles, so the check is bounded-lag conservation plus
/// final-drain convergence).
inline FaultSiteResult ingest_flush_drill(const FaultMatrixConfig& cfg) {
  disarm_all();
  const testing::OpTrace trace = drill_trace(cfg, FailSite::kIngestFlush);
  ingest::IngestConfig ic;
  ic.producers = 4;
  testing::IngestTierAdapter<PipelinedParallelHeap<U64>> q(
      PipelinedParallelHeap<U64>(cfg.r), ic);
  arm(FailSite::kIngestFlush,
      FireSpec{/*nth=*/3, /*period=*/5, /*max_fires=*/25, /*stall_us=*/0});
  testing::DiffOptions opt;
  opt.invariant_stride = 64;
  opt.relaxed = true;
  opt.bounded_lag = true;  // a faulted flush lawfully defers admission
  const testing::DiffFailure f = testing::run_differential(q, trace, opt);
  const bool ok = !f.failed;
  return finish(FailSite::kIngestFlush, ok,
                ok ? "" : "items lost/duplicated across flush faults: " + f.message);
}

// ------------------------------------------------------------ svc drills

/// Deterministic clock for the scheduler-service drills (fn-pointer seam).
inline std::atomic<std::uint64_t>& svc_fake_now() {
  static std::atomic<std::uint64_t> now{1};
  return now;
}
inline std::uint64_t svc_fake_clock() {
  return svc_fake_now().load(std::memory_order_relaxed);
}

/// svc_accept / svc_dispatch: drive SchedulerCore through a schedule/cancel/
/// poll workload with the site armed, retrying refusals and aborted polls,
/// then drain completely and audit the client-side oracle — every acked,
/// uncancelled job delivered EXACTLY once, nothing fabricated, ledger
/// conservation intact.
inline FaultSiteResult svc_site_drill(const FaultMatrixConfig& cfg,
                                      FailSite site, FireSpec spec) {
  disarm_all();
  const TempDir dir("ph-fm-svc");
  svc_fake_now().store(1'000'000'000ull, std::memory_order_relaxed);
  svc::SvcConfig sc;
  sc.dir = dir.path;
  sc.node_capacity = 8;
  sc.clock = &svc_fake_clock;
  svc::SchedulerCore core(sc);
  arm(site, spec);

  U64 rng = cfg.seed ^ (0x9e3779b97f4a7c15ull * (static_cast<U64>(site) + 1));
  auto rnd = [&rng]() {
    U64 z = (rng += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  auto fail = [&](std::string why) { return finish(site, false, std::move(why)); };

  std::map<std::pair<std::uint32_t, U64>, int> acked;      // -> times delivered
  std::map<std::pair<std::uint32_t, U64>, bool> cancelled; // cancel acked
  std::vector<svc::Job> due;
  std::string why;
  const std::size_t jobs = cfg.cycles;
  for (std::size_t i = 0; i < jobs; ++i) {
    const std::uint32_t tenant = static_cast<std::uint32_t>(rnd() % 8);
    const U64 id = i + 1;
    std::uint64_t deadline = 0;
    svc::Admit a = svc::Admit::kTransient;
    for (int tries = 0; tries < 64 && a == svc::Admit::kTransient; ++tries) {
      a = core.schedule(tenant, rnd() % 50'000'000, id, rnd(), 0, &deadline);
    }
    if (a != svc::Admit::kOk) return fail("schedule retries exhausted");
    acked[{tenant, id}] = 0;
    if (rnd() % 7 == 0) {  // durable cancel for a random recent job
      a = svc::Admit::kTransient;
      for (int tries = 0; tries < 64 && a == svc::Admit::kTransient; ++tries) {
        a = core.cancel(tenant, deadline, id);
      }
      if (a != svc::Admit::kOk) return fail("cancel retries exhausted");
      cancelled[{tenant, id}] = true;
    }
    if (i % 8 == 7) {
      svc_fake_now().fetch_add(10'000'000, std::memory_order_relaxed);
      due.clear();
      core.poll_due(16, due);  // aborts are lawful: everything requeues
      for (const svc::Job& j : due) {
        auto it = acked.find({j.tenant, j.id});
        if (it == acked.end()) return fail("delivered a job never acked");
        if (++it->second > 1) return fail("job delivered twice");
      }
      if (!core.check_invariants(&why)) return fail("invariants: " + why);
    }
  }
  // Drain: march the clock past every deadline and poll until empty. The
  // armed site has bounded max_fires, so aborts cannot recur forever.
  svc_fake_now().fetch_add(3'600'000'000'000ull, std::memory_order_relaxed);
  for (int iter = 0; iter < 4000 && core.backlog() > 0; ++iter) {
    due.clear();
    core.poll_due(64, due);
    for (const svc::Job& j : due) {
      auto it = acked.find({j.tenant, j.id});
      if (it == acked.end()) return fail("delivered a job never acked");
      if (++it->second > 1) return fail("job delivered twice");
    }
  }
  if (core.backlog() != 0) return fail("drain left jobs in the backlog");
  if (!core.check_invariants(&why)) return fail("post-drain invariants: " + why);
  const svc::SvcStats st = core.stats();
  if (st.acked != st.delivered + st.cancelled) {
    return fail("ledger conservation broken after drain");
  }
  for (const auto& [key, times] : acked) {
    const bool was_cancelled = cancelled.count(key) != 0;
    if (!was_cancelled && times != 1) {
      return fail("uncancelled job not delivered exactly once");
    }
  }
  if (site == FailSite::kSvcDispatch && core.stats().aborted_polls == 0 &&
      stats(site).fires > 0) {
    return fail("svc_dispatch fired but no poll transaction aborted");
  }
  return finish(site, true, "");
}

}  // namespace fm_detail

/// Runs every site's drill; see the file comment for the per-site contracts.
inline FaultMatrixReport run_fault_matrix(const FaultMatrixConfig& cfg = {},
                                          std::ostream* log = nullptr) {
  FaultMatrixReport rep;

  rep.rows.push_back(fm_detail::rollback_drill<std::less<fm_detail::U64>>(
      cfg, FailSite::kRootAlloc,
      FireSpec{/*nth=*/7, /*period=*/23, /*max_fires=*/8, /*stall_us=*/0}));
  rep.rows.push_back(fm_detail::rollback_drill<std::less<fm_detail::U64>>(
      cfg, FailSite::kSpawnAlloc,
      FireSpec{/*nth=*/3, /*period=*/17, /*max_fires=*/8, /*stall_us=*/0}));
  rep.rows.push_back(fm_detail::rollback_drill<std::less<fm_detail::U64>>(
      cfg, FailSite::kTornInsert,
      FireSpec{/*nth=*/2, /*period=*/13, /*max_fires=*/8, /*stall_us=*/0}));
  // Comparator evaluations are the hot path: fire rarely, bounded.
  rep.rows.push_back(fm_detail::rollback_drill<fm_detail::ThrowingLess>(
      cfg, FailSite::kCompareThrow,
      FireSpec{/*nth=*/5000, /*period=*/9973, /*max_fires=*/4, /*stall_us=*/0}));
  rep.rows.push_back(fm_detail::skip_reservice_drill(cfg));
  rep.rows.push_back(fm_detail::think_throw_drill(cfg));
  rep.rows.push_back(fm_detail::worker_stall_drill(cfg));
  rep.rows.push_back(fm_detail::ckpt_write_drill(cfg));
  rep.rows.push_back(fm_detail::wal_site_drill(
      cfg, FailSite::kWalAppend,
      FireSpec{/*nth=*/4, /*period=*/19, /*max_fires=*/12, /*stall_us=*/0}));
  rep.rows.push_back(fm_detail::wal_site_drill(
      cfg, FailSite::kWalFsync,
      FireSpec{/*nth=*/6, /*period=*/29, /*max_fires=*/12, /*stall_us=*/0}));
  rep.rows.push_back(fm_detail::recover_replay_drill(cfg));
  rep.rows.push_back(fm_detail::ingest_flush_drill(cfg));
  rep.rows.push_back(fm_detail::svc_site_drill(
      cfg, FailSite::kSvcAccept,
      FireSpec{/*nth=*/5, /*period=*/11, /*max_fires=*/20, /*stall_us=*/0}));
  rep.rows.push_back(fm_detail::svc_site_drill(
      cfg, FailSite::kSvcDispatch,
      FireSpec{/*nth=*/2, /*period=*/3, /*max_fires=*/12, /*stall_us=*/0}));

  if (log) {
    for (const FaultSiteResult& r : rep.rows) {
      *log << "fault-matrix: " << fail_site_name(r.site)
           << (r.ok ? "  OK " : "  FAIL ") << "(evals=" << r.stats.evaluations
           << " fires=" << r.stats.fires << " recoveries=" << r.stats.recoveries
           << ")";
      if (!r.detail.empty()) *log << " — " << r.detail;
      *log << "\n";
    }
    *log << "fault-matrix: " << (rep.ok() ? "ALL SITES GREEN" : "RED") << "\n";
  }
  return rep;
}

}  // namespace ph::robustness
