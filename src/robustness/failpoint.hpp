// Fail-point registry — seeded, deterministic fault injection at named sites.
//
// Every layer of the library assumes the happy path unless told otherwise: an
// allocation that fails mid-batch, a user comparator that throws, a worker
// that stalls, a WAL append torn by a crash. This registry gives those
// failure modes *names* and a deterministic firing schedule, so the
// differential harness can drive each one inside a soak and prove the
// documented guarantee (rollback, recovery, or detection — see
// robustness/fault_matrix.hpp and DESIGN.md §9).
//
// Shape of the layer (same contract as telemetry/sched_fuzz):
//   - Compiled out under -DPH_FAILPOINTS=OFF (PH_FAILPOINTS_ENABLED=0):
//     every hook is an empty inline returning "don't fire" — no state, no
//     load, no branch survives optimization.
//   - Compiled in but DISARMED (the default at startup): each site check is
//     one relaxed load of a global armed mask plus a predicted-not-taken
//     branch. Sites sit at per-cycle / per-service frequency, never inside
//     the O(r) merge loops.
//   - ARMED via arm(site, spec): the site counts evaluations and fires
//     deterministically — first at evaluation `nth` (1-based), then every
//     `period` evaluations, up to `max_fires`. No RNG at evaluation time:
//     a firing schedule is fully described by (nth, period, max_fires), so
//     a failure a soak finds is replayable from the arming spec alone.
//     arm_seeded() derives a spec from a seed for sweep diversity.
//
// Firing semantics are site-specific and chosen by the *call shape* at the
// site: fire_oom() throws InjectedOom (allocation failure), fire_fault()
// throws InjectedFault (torn batch / throwing callback), maybe_stall()
// sleeps a bounded injected delay (worker stall), and fire() just returns
// true (wrong-answer faults like the historical skip-reservice bug, where
// the point is that the harness must *detect* the bad output). Both
// exception types derive from InjectedFailure so recovery paths can catch
// the whole family and read which site fired.
//
// Concurrency: evaluation is lock-free (relaxed atomics; sites may sit on
// worker threads). arm()/disarm() are quiescent-point operations: call them
// while no instrumented structure is mid-cycle.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "obs/flight_recorder.hpp"

#ifndef PH_FAILPOINTS_ENABLED
#define PH_FAILPOINTS_ENABLED 1
#endif

namespace ph::robustness {

/// Named injection sites threaded through the library. Keep names (below)
/// stable: fault-matrix reports and reproduction recipes reference them.
enum class FailSite : std::uint8_t {
  kRootAlloc = 0,   ///< allocation failure at pipelined root-work entry
  kSpawnAlloc,      ///< allocation failure spawning an insert-update's carried set
  kTornInsert,      ///< throw between spawn_inserts chunks: tears an insert batch
  kSkipReservice,   ///< historical delete-update revert-note bug (wrong answer)
  kCompareThrow,    ///< user comparator throws (fired by instrumented comparators)
  kThinkThrow,      ///< engine think-callback throws on a worker
  kWorkerStall,     ///< bounded injected delay in a ThreadTeam worker
  kCkptWrite,       ///< crash/fault between checkpoint frames (persist layer)
  kWalAppend,       ///< crash/fault mid-append: tears a WAL record on disk
  kWalFsync,        ///< crash/fault around the WAL fsync (pre/post durability)
  kRecoverReplay,   ///< crash/fault between replayed WAL records (double crash)
  kIngestFlush,     ///< producer dies mid-flush of the ingest staging buffers
  kSvcAccept,       ///< scheduler service fails while accepting a request
  kSvcDispatch,     ///< scheduler service dies mid-dispatch (between the due
                    ///< pop and the transaction-closing requeue record)
  kCount
};
inline constexpr std::size_t kNumFailSites = static_cast<std::size_t>(FailSite::kCount);

inline const char* fail_site_name(FailSite s) noexcept {
  switch (s) {
    case FailSite::kRootAlloc: return "root_alloc";
    case FailSite::kSpawnAlloc: return "spawn_alloc";
    case FailSite::kTornInsert: return "torn_insert";
    case FailSite::kSkipReservice: return "skip_reservice";
    case FailSite::kCompareThrow: return "compare_throw";
    case FailSite::kThinkThrow: return "think_throw";
    case FailSite::kWorkerStall: return "worker_stall";
    case FailSite::kCkptWrite: return "ckpt_write";
    case FailSite::kWalAppend: return "wal_append";
    case FailSite::kWalFsync: return "wal_fsync";
    case FailSite::kRecoverReplay: return "recover_replay";
    case FailSite::kIngestFlush: return "ingest_flush";
    case FailSite::kSvcAccept: return "svc_accept";
    case FailSite::kSvcDispatch: return "svc_dispatch";
    case FailSite::kCount: break;
  }
  return "unknown";
}

inline bool fail_site_from_name(std::string_view name, FailSite& out) noexcept {
  for (std::size_t i = 0; i < kNumFailSites; ++i) {
    const auto s = static_cast<FailSite>(i);
    if (name == fail_site_name(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

/// Base of every injected exception: recovery paths catch this one type and
/// learn which site fired. Injected failures are the ONLY exceptions the
/// library's recovery machinery claims to fully recover from — they fire at
/// audited points whose rollback story is tested (DESIGN.md §9).
struct InjectedFailure {
  FailSite site;
  explicit InjectedFailure(FailSite s) noexcept : site(s) {}
  virtual ~InjectedFailure() = default;
};

/// Injected allocation failure. Also derives std::bad_alloc so generic
/// OOM-handling paths see the exception type a real allocator would throw.
class InjectedOom : public std::bad_alloc, public InjectedFailure {
 public:
  explicit InjectedOom(FailSite s) noexcept : InjectedFailure(s) {}
  const char* what() const noexcept override { return "ph: injected allocation failure"; }
};

/// Injected logic fault (torn batch, throwing callback).
class InjectedFault : public std::runtime_error, public InjectedFailure {
 public:
  explicit InjectedFault(FailSite s)
      : std::runtime_error(std::string("ph: injected fault at ") + fail_site_name(s)),
        InjectedFailure(s) {}
};

/// Deterministic firing schedule: first fire at evaluation `nth` (1-based),
/// then every `period` evaluations (0 = fire once), capped at `max_fires`
/// (0 = unbounded). `stall_us` bounds the injected delay of stall sites.
struct FireSpec {
  std::uint64_t nth = 1;
  std::uint64_t period = 0;
  std::uint64_t max_fires = 1;
  std::uint32_t stall_us = 200;
};

/// Per-site accounting, readable while disarmed (counts survive disarm()).
struct SiteStats {
  std::uint64_t evaluations = 0;
  std::uint64_t fires = 0;
  std::uint64_t recoveries = 0;  ///< recovery paths that completed for this site
};

#if PH_FAILPOINTS_ENABLED

inline constexpr bool kFailpoints = true;

namespace fp_detail {
struct SiteState {
  std::atomic<std::uint64_t> nth{0};  ///< 0 = disarmed
  std::atomic<std::uint64_t> period{0};
  std::atomic<std::uint64_t> max_fires{0};
  std::atomic<std::uint32_t> stall_us{0};
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> fires{0};
  std::atomic<std::uint64_t> recoveries{0};
};
inline std::array<SiteState, kNumFailSites>& sites() {
  static std::array<SiteState, kNumFailSites> s;
  return s;
}
inline std::atomic<std::uint32_t> g_armed_mask{0};

inline std::uint64_t splitmix(std::uint64_t& s) noexcept {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace fp_detail

/// Arms a site with an explicit schedule; resets its evaluation/fire counts
/// (recoveries persist — they are the fault matrix's cross-run ledger).
/// Quiescent points only.
inline void arm(FailSite site, FireSpec spec) {
  auto& st = fp_detail::sites()[static_cast<std::size_t>(site)];
  st.evals.store(0, std::memory_order_relaxed);
  st.fires.store(0, std::memory_order_relaxed);
  st.period.store(spec.period, std::memory_order_relaxed);
  st.max_fires.store(spec.max_fires, std::memory_order_relaxed);
  st.stall_us.store(spec.stall_us, std::memory_order_relaxed);
  st.nth.store(spec.nth == 0 ? 1 : spec.nth, std::memory_order_relaxed);
  fp_detail::g_armed_mask.fetch_or(1u << static_cast<unsigned>(site),
                                   std::memory_order_release);
}

/// Derives a FireSpec from a seed: nth in [1, 2*mean_period], repeating with
/// period ~mean_period. Deterministic per (site, seed) so a sweep round is
/// reproducible from its seed alone.
inline void arm_seeded(FailSite site, std::uint64_t seed, std::uint64_t mean_period,
                       std::uint64_t max_fires = 0, std::uint32_t stall_us = 200) {
  std::uint64_t s = seed ^ (static_cast<std::uint64_t>(site) * 0xd1342543de82ef95ull);
  const std::uint64_t m = mean_period == 0 ? 1 : mean_period;
  FireSpec spec;
  spec.nth = 1 + fp_detail::splitmix(s) % (2 * m);
  spec.period = 1 + (fp_detail::splitmix(s) % (2 * m));
  spec.max_fires = max_fires;
  spec.stall_us = stall_us;
  arm(site, spec);
}

inline void disarm(FailSite site) {
  fp_detail::g_armed_mask.fetch_and(~(1u << static_cast<unsigned>(site)),
                                    std::memory_order_release);
  fp_detail::sites()[static_cast<std::size_t>(site)].nth.store(
      0, std::memory_order_relaxed);
}

inline void disarm_all() {
  for (std::size_t i = 0; i < kNumFailSites; ++i) disarm(static_cast<FailSite>(i));
}

inline bool armed(FailSite site) noexcept {
  return (fp_detail::g_armed_mask.load(std::memory_order_relaxed) &
          (1u << static_cast<unsigned>(site))) != 0;
}

/// True when ANY site is armed — the one-load gate recovery wrappers use to
/// decide whether a checkpoint is worth taking.
inline bool any_armed() noexcept {
  return fp_detail::g_armed_mask.load(std::memory_order_relaxed) != 0;
}

/// One evaluation of the site: returns true when the schedule says fire.
/// Lock-free; the disarmed path is a single relaxed load and branch.
inline bool fire(FailSite site) noexcept {
  if (!armed(site)) return false;
  auto& st = fp_detail::sites()[static_cast<std::size_t>(site)];
  const std::uint64_t n = st.evals.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t nth = st.nth.load(std::memory_order_relaxed);
  if (nth == 0 || n < nth) return false;
  if (n != nth) {
    const std::uint64_t period = st.period.load(std::memory_order_relaxed);
    if (period == 0 || (n - nth) % period != 0) return false;
  }
  const std::uint64_t mx = st.max_fires.load(std::memory_order_relaxed);
  if (mx != 0 && st.fires.load(std::memory_order_relaxed) >= mx) return false;
  const std::uint64_t fires = st.fires.fetch_add(1, std::memory_order_relaxed) + 1;
  // Black box: every fire is a causal root for whatever breaks next, so it
  // must appear in post-mortem dumps ahead of the watchdog/quarantine events
  // it provokes.
  obs::flight(obs::FlightKind::kFailpointFire,
              static_cast<std::uint64_t>(site), fires);
  return true;
}

/// Site shapes: allocation failure, logic fault, bounded stall.
inline void fire_oom(FailSite site) {
  if (fire(site)) throw InjectedOom(site);
}
inline void fire_fault(FailSite site) {
  if (fire(site)) throw InjectedFault(site);
}

namespace fp_detail {
using CrashHook = void (*)(FailSite);
inline std::atomic<CrashHook> g_crash_hook{nullptr};
}  // namespace fp_detail

/// Installs the process-kill hook used by fire_crash(). The ph_crash drill's
/// child installs `[](FailSite) { std::_Exit(...); }` so a firing crash site
/// dies with kill -9 semantics — no destructors, no atexit, torn on-disk
/// state preserved exactly as written. nullptr restores the default.
inline void set_crash_hook(void (*hook)(FailSite)) noexcept {
  fp_detail::g_crash_hook.store(hook, std::memory_order_release);
}

/// A *crash* site: with a hook installed the process is killed on the spot
/// (the hook must not return); without one it degrades to fire_fault() so
/// the in-process fault matrix exercises the same sites exception-shaped.
inline void fire_crash(FailSite site) {
  if (!fire(site)) return;
  if (auto hook = fp_detail::g_crash_hook.load(std::memory_order_acquire)) {
    hook(site);
  }
  throw InjectedFault(site);
}
inline void maybe_stall(FailSite site) {
  if (fire(site)) {
    const std::uint32_t us = fp_detail::sites()[static_cast<std::size_t>(site)]
                                 .stall_us.load(std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(us == 0 ? 1 : us));
  }
}

/// Recovery paths call this after completing a verified recovery/rollback
/// for a caught injected failure; the fault matrix audits the ledger.
inline void note_recovery(FailSite site) noexcept {
  fp_detail::sites()[static_cast<std::size_t>(site)].recoveries.fetch_add(
      1, std::memory_order_relaxed);
  obs::flight(obs::FlightKind::kFailpointRecovery,
              static_cast<std::uint64_t>(site));
}

inline SiteStats stats(FailSite site) noexcept {
  const auto& st = fp_detail::sites()[static_cast<std::size_t>(site)];
  return SiteStats{st.evals.load(std::memory_order_relaxed),
                   st.fires.load(std::memory_order_relaxed),
                   st.recoveries.load(std::memory_order_relaxed)};
}

#else  // !PH_FAILPOINTS_ENABLED

inline constexpr bool kFailpoints = false;

// Inert stubs so instrumented sites compile identically in both builds.
inline void arm(FailSite, FireSpec) noexcept {}
inline void arm_seeded(FailSite, std::uint64_t, std::uint64_t, std::uint64_t = 0,
                       std::uint32_t = 200) noexcept {}
inline void disarm(FailSite) noexcept {}
inline void disarm_all() noexcept {}
inline bool armed(FailSite) noexcept { return false; }
inline bool any_armed() noexcept { return false; }
inline bool fire(FailSite) noexcept { return false; }
inline void fire_oom(FailSite) noexcept {}
inline void fire_fault(FailSite) noexcept {}
inline void set_crash_hook(void (*)(FailSite)) noexcept {}
inline void fire_crash(FailSite) noexcept {}
inline void maybe_stall(FailSite) noexcept {}
inline void note_recovery(FailSite) noexcept {}
inline SiteStats stats(FailSite) noexcept { return {}; }

#endif  // PH_FAILPOINTS_ENABLED

}  // namespace ph::robustness
