// SchedulerCore: the multi-tenant event-scheduler engine behind phd
// (DESIGN.md §15). Composes the tree's existing layers —
//
//   DurableHeap< PipelinedParallelHeap<Job> >
//
// WAL-first durability over the paper's pipelined batch cycle, fed one
// sorted batch of staged ops per commit — and adds the service semantics on
// top:
// weighted fair admission, deficit-round-robin dispatch, durable cancel,
// and an exactly-once delivery protocol whose ONLY durable artifact is the
// WAL the heap already writes.
//
// ## The ledger is a function of the WAL
//
// Every piece of service state that must survive kill -9 — per-tenant
// acked/delivered/cancelled counts, cancel tombstones, the set of popped-
// but-uncommitted jobs — is derived from the op stream via DurableHeap's
// OpObserver, which fires identically for live ops and for recovery replay.
// There is no second log and no checkpointed sidecar: checkpoints are
// DISABLED (checkpoint_on_open=false, interval=0), recovery replays the
// full WAL from sequence 0, and the observer rebuilds the ledger record by
// record. What recovery computes is what the live path computed, by
// construction. (Tradeoff: the WAL grows without bound — see the ROADMAP
// durability item; delta checkpoints would need a ledger image alongside.)
//
// ## Exactly-once delivery over cycle() records
//
// A PollDue is a WAL transaction of POP records closed by one CLOSE record:
//
//   1. POP      cycle({}, k) in growing chunks — pops the smallest jobs and
//               stops at the first chunk that ends past `now` (or at the
//               poll's budget). Cancel markers annihilate their victims here
//               (marker sorts first; victim hits the tombstone). Survivors
//               become `pending_delivery`.
//   2. CLOSE    cycle(requeues, 0) — the not-delivered survivors (the
//               not-due tail of the last chunk, or past the poller's max /
//               DRR share) re-inserted with kRequeuedFlag. This record is
//               the COMMIT MARKER: absorbing a k==0 record resolves every
//               still-pending job as delivered. The reply frame is sent only
//               after it lands.
//
// Replay sees the same records and resolves them the same way. A crash
// BETWEEN the records leaves an unterminated transaction: recovery finds
// pending_delivery non-empty at end of WAL and requeues those jobs — the
// client never got a reply, so nothing is lost and nothing duplicates. The
// remaining window (CLOSE durable, reply frame lost in the crash) is
// at-most-once toward the client and exactly-once in the server ledger; the
// service-smoke job bounds it to one in-flight poll.
//
// ## Fairness
//
// Admission: per-tenant token buckets refilled at admit_rate * weight /
// total_weight, gating only above the overload watermark (an underloaded
// server admits everyone); above the hard max_backlog wall everything sheds.
// Dispatch: deficit round robin across tenants over the popped due set, so
// when polls are the scarce resource, delivered shares track weights. Due
// jobs are a prefix of the JobLess order, so stopping the pop at the first
// job that is not due hands DRR the same candidates a wider pop would.
//
// One accounting path: the TenantState rows are the ledger; each
// service-wide total is one atomic in Live, bumped where its tenant row or
// transaction is written, and both stats() and the svc_* gauges read it.
//
// Threading: every mutator is driver-only, like every cycle() in the tree;
// phd calls them all from its one event loop. Scrapers read only Live.
#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "persist/recovery.hpp"
#include "robustness/failpoint.hpp"
#include "svc/job.hpp"
#include "svc/tenant.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ph::svc {

struct SvcConfig {
  std::string dir;                    ///< durable directory (WAL home)
  std::size_t node_capacity = 128;
  /// Not a knob: phd stages every op in one buffer. The staging slot count
  /// of bench/stack's replay rung, which reads it from here until that rung
  /// goes (ROADMAP item 1).
  static constexpr std::size_t producers = 4;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kNever;

  // Backpressure: above `overload_watermark` jobs in the backlog, schedules are
  // token-gated per tenant; at `max_backlog` everything sheds (the OOM wall).
  std::size_t max_backlog = 1u << 20;
  std::size_t overload_watermark = 1u << 14;
  double admit_rate = 250000.0;       ///< jobs/sec shared across tenants
  double burst = 512.0;               ///< per-tenant bucket capacity, in jobs

  double drr_quantum = 4.0;           ///< jobs credited per DRR round per weight
  std::size_t poll_over_pull = 2;     ///< pop budget = max * this: headroom for
                                      ///< cancel markers, their victims and
                                      ///< DRR skips. Jobs that are not due
                                      ///< never use it up: the pop stops at
                                      ///< the first one.
  std::size_t max_poll_batch = 8192;  ///< hard cap on one POP record
  std::size_t max_tombstones = 1u << 20;  ///< unmatched-cancel cap (best effort)

  TenantTable::WeightFn weight;       ///< tenant -> fair weight (unset = 1.0)
  std::uint64_t (*clock)() = nullptr; ///< ns clock (nullptr = CLOCK_REALTIME);
                                      ///< wall time so deadlines survive restarts
};

enum class Admit : std::uint8_t {
  kOk = 0,        ///< staged; durable + acked after the next commit()
  kOverloaded,    ///< shed by backpressure — client should back off
  kTransient,     ///< internal fault absorbed (injected); safe to retry
};

enum class PollStatus : std::uint8_t {
  kOk = 0,
  kAborted,       ///< dispatch fault absorbed: everything requeued, deliver
                  ///< nothing — the transaction machinery ate the failure
};

/// Service-wide totals: the ledger columns summed over tenants, plus the
/// transaction counts (built from SchedulerCore::Live).
struct SvcStats {
  std::uint64_t acked = 0;
  std::uint64_t cancel_reqs = 0;
  std::uint64_t delivered = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t requeued = 0;
  std::uint64_t shed = 0;
  std::uint64_t polls = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborted_polls = 0;
  std::uint64_t recovered_inflight = 0;  ///< jobs requeued from an unterminated
                                         ///< poll transaction at recovery
};

class SchedulerCore {
 public:
  using Inner = persist::DurableHeap<PipelinedParallelHeap<Job, JobLess>>;

  explicit SchedulerCore(SvcConfig cfg)
      : cfg_(std::move(cfg)), tenants_(cfg_.weight), heap_(make_inner()) {
    recovering_ = false;
    if (durable().recovery_info().checkpoint_loaded) {
      // A checkpoint would have let replay start mid-history, which the
      // ledger cannot survive. The service never writes one; finding one
      // means this directory belongs to something else.
      throw persist::CorruptStateError(
          "svc: durable dir " + cfg_.dir +
          " contains a checkpoint — the scheduler ledger needs full-WAL "
          "replay; refusing a foreign/partial directory");
    }
    if (!pending_delivery_.empty()) {
      // Unterminated poll transaction: the crash hit between POP and CLOSE,
      // so no client was answered. Requeue the orphans; they stay queued.
      live_.recovered_inflight.store(pending_delivery_.size(),
                                     std::memory_order_relaxed);
      obs::flight(obs::FlightKind::kRecoveryDone,
                  pending_delivery_.size(), /*b=*/1);
      // The popped frontier is unknown here: frontier 0 makes the next poll pop.
      close_transaction(/*requeue_everything=*/true, /*frontier=*/0);
    }
    refresh_live();
  }

  SchedulerCore(const SchedulerCore&) = delete;
  SchedulerCore& operator=(const SchedulerCore&) = delete;

  // ------------------------------------------------------------- enqueue side

  /// Stages one job. kOk means "will be durable + acked at the next
  /// commit()/poll_due()" — callers must not acknowledge before then.
  Admit schedule(std::uint32_t tenant, std::uint64_t delay_ns, std::uint64_t id,
                 std::uint64_t payload0, std::uint64_t payload1,
                 std::uint64_t* deadline_out = nullptr) {
    try {
      robustness::fire_fault(robustness::FailSite::kSvcAccept);
    } catch (const robustness::InjectedFailure& f) {
      robustness::note_recovery(f.site);
      return Admit::kTransient;  // nothing staged; clean refusal
    }
    const std::uint64_t now = now_ns();
    const std::size_t depth = backlog();
    if (depth >= cfg_.max_backlog) return shed(tenant, depth);
    if (depth >= cfg_.overload_watermark &&
        !tenants_.try_take_token(tenant, now, cfg_.admit_rate, cfg_.burst)) {
      return shed(tenant, depth);
    }
    if (overloaded_) {
      overloaded_ = false;
      live_.overloaded.store(0, std::memory_order_relaxed);
    }
    Job j;
    // Saturate: delay_ns is client-controlled, and a wrapped sum would turn
    // a far-future job into one that is immediately due.
    j.deadline_ns = delay_ns > std::numeric_limits<std::uint64_t>::max() - now
                        ? std::numeric_limits<std::uint64_t>::max()
                        : now + delay_ns;
    j.id = id;
    j.tenant = tenant;
    j.payload0 = payload0;
    j.payload1 = payload1;
    staged_.push_back(j);
    if (deadline_out != nullptr) *deadline_out = j.deadline_ns;
    return Admit::kOk;
  }

  /// Stages a durable cancel marker for job (tenant, deadline, id). Cancels
  /// bypass the token gate — refusing load-shedding work is self-defeating —
  /// but still shed at the hard wall (markers occupy heap space too).
  Admit cancel(std::uint32_t tenant, std::uint64_t deadline_ns, std::uint64_t id) {
    try {
      robustness::fire_fault(robustness::FailSite::kSvcAccept);
    } catch (const robustness::InjectedFailure& f) {
      robustness::note_recovery(f.site);
      return Admit::kTransient;
    }
    if (backlog() >= cfg_.max_backlog) return shed(tenant, backlog());
    Job marker;
    marker.deadline_ns = deadline_ns;
    marker.id = id;
    marker.tenant = tenant;
    marker.flags = kCancelFlag;
    staged_.push_back(marker);
    return Admit::kOk;
  }

  /// Group commit: admits everything staged, sorted by JobLess, as the
  /// fresh items of ONE logged record (one WAL append, one fsync under
  /// kEveryRecord) and returns the admitted count. The server acks every
  /// outstanding schedule/cancel after this returns. A throwing append
  /// leaves the staging intact for the next commit.
  std::size_t commit() {
    if (staged_.empty()) return 0;  // don't write an empty record per tick
    telemetry::SpanScope span(telemetry::Phase::kSvcCommit);
    PH_ASSERT_MSG(pending_delivery_.empty(), "svc: commit inside a poll txn");
    std::sort(staged_.begin(), staged_.end(), JobLess{});
    admitted_in_record_ = 0;
    sink_.clear();
    heap_.cycle(std::span<const Job>(staged_), 0, sink_);
    staged_.clear();
    obs::bump(live_.commits);
    refresh_live();
    return admitted_in_record_;
  }

  // ------------------------------------------------------------ dispatch side

  /// One due-dispatch transaction: admit staged work, pop up to the budget,
  /// annihilate cancels, select due jobs fairly (DRR), requeue the rest,
  /// commit, and return the delivered jobs. `out` is appended to.
  PollStatus poll_due(std::size_t max, std::vector<Job>& out,
                      std::uint64_t* server_now = nullptr) {
    telemetry::SpanScope span(telemetry::Phase::kSvcDispatch);
    const std::uint64_t now = now_ns();
    if (server_now != nullptr) *server_now = now;
    obs::bump(live_.polls);

    commit();  // staged jobs may be due right now
    if (max == 0 || heap_.size() == 0 || next_due_lb_ > now) {
      refresh_live();
      return PollStatus::kOk;  // provably nothing due: skip the pop churn
    }

    const std::size_t budget =
        std::min(cfg_.max_poll_batch,
                 std::max<std::size_t>(max * std::max<std::size_t>(cfg_.poll_over_pull, 1),
                                       max));
    // 1. POP records, stopping at the first job that is not due. cycle()
    //    output ascends in JobLess order, deadline first, so once a chunk
    //    ends past `now` everything still queued is later too and only that
    //    chunk's tail gets requeued. The first chunk covers the previous
    //    poll's due count; each further one doubles up to node_capacity (the
    //    heap's k <= r contract), and `budget` bounds the total.
    //    Each chunk is one POP record stacking into pending_delivery_ via the
    //    observer (markers arm tombstones, victims annihilate); the single
    //    CLOSE record below commits them all, and recovery requeues the
    //    whole stack if we die first.
    std::size_t popped = 0, due_popped = 0;
    std::size_t chunk = std::max(kMinPopChunk, std::bit_ceil(last_due_popped_ + 1));
    std::uint64_t frontier = kNever;  // deadline of the last popped job
    while (popped < budget) {
      const std::size_t k = std::min({budget - popped, chunk, cfg_.node_capacity});
      sink_.clear();
      const std::size_t got = heap_.cycle({}, k, sink_);
      popped += got;
      due_popped += static_cast<std::size_t>(
          std::partition_point(sink_.begin(), sink_.end(),
                               [now](const Job& j) { return j.deadline_ns <= now; }) -
          sink_.begin());
      if (got < k) {
        frontier = kNever;  // heap ran dry: nothing queued beyond the pops
        break;
      }
      frontier = sink_.back().deadline_ns;
      if (frontier > now) break;  // first job that is not due
      chunk = std::min(chunk * 2, cfg_.node_capacity);
    }
    last_due_popped_ = due_popped;

    try {
      robustness::fire_fault(robustness::FailSite::kSvcDispatch);
    } catch (const robustness::InjectedFailure& f) {
      // Mid-transaction death, absorbed: close by requeueing EVERYTHING.
      // Deliver nothing; the jobs stay queued and the ledger stays exact —
      // the same path recovery takes for an unterminated transaction.
      delivered_buf_.clear();
      close_transaction(/*requeue_everything=*/true, frontier);
      obs::bump(live_.aborted_polls);
      robustness::note_recovery(f.site);
      refresh_live();
      return PollStatus::kAborted;
    }

    // 2. Partition survivors: due jobs compete in DRR for `max` slots.
    select_drr(max, now);

    // 3. CLOSE record: requeues in, remaining pending resolve as delivered.
    delivered_buf_.clear();
    close_transaction(/*requeue_everything=*/false, frontier);
    out.insert(out.end(), delivered_buf_.begin(), delivered_buf_.end());
    refresh_live();
    return PollStatus::kOk;
  }

  /// Graceful drain: make every staged op durable. The heap's remaining
  /// content IS the durable state — nothing else to flush.
  void drain() {
    obs::flight(obs::FlightKind::kSvcDrain, staged_.size(), heap_.size());
    commit();
    live_.draining.store(1, std::memory_order_relaxed);
  }

  // -------------------------------------------------------------- observers

  std::uint64_t now_ns() const {
    if (cfg_.clock != nullptr) return cfg_.clock();
    ::timespec ts{};
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  /// Jobs anywhere in the service: queued in the heap or staged.
  std::size_t backlog() const noexcept { return heap_.size() + staged_.size(); }
  const SvcConfig& config() const noexcept { return cfg_; }
  Inner& durable() noexcept { return heap_; }
  const Inner& durable() const noexcept { return heap_; }
  TenantTable& tenants() noexcept { return tenants_; }
  std::vector<TenantStatRow> stat_rows() const { return tenants_.stat_rows(); }

  SvcStats stats() const noexcept {
    auto get = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    const Live& lv = live_;
    return SvcStats{get(lv.acked),     get(lv.cancel_reqs), get(lv.delivered),
                    get(lv.cancelled), get(lv.requeued),    get(lv.shed),
                    get(lv.polls),     get(lv.commits),     get(lv.aborted_polls),
                    get(lv.recovered_inflight)};
  }

  /// Ledger + heap invariants, at quiescent points. The conservation law:
  /// every acked job is delivered, cancelled, or still in the heap — and
  /// the heap's size agrees item for item. Staged ops are in neither the
  /// ledger nor the heap until their commit.
  bool check_invariants(std::string* why = nullptr) {
    if (!heap_.check_invariants(why)) return false;
    std::uint64_t queued_jobs = 0, unmatched = 0;
    for (const auto& [key, n] : tombstones_) {
      (void)key;
      unmatched += n;
    }
    std::uint64_t cancel_reqs = 0, cancelled = 0;
    for (const auto& [id, st] : tenants_) {
      (void)id;
      queued_jobs += st.queued();
      cancel_reqs += st.cancel_reqs;
      cancelled += st.cancelled;
    }
    const std::uint64_t markers_alive =
        cancel_reqs - cancelled - unmatched - pruned_tombstones_;
    const std::uint64_t expect = queued_jobs + markers_alive +
                                 static_cast<std::uint64_t>(pending_delivery_.size());
    if (expect != heap_.size()) {
      if (why != nullptr) {
        *why = "svc ledger conservation broken: queued " +
               std::to_string(queued_jobs) + " + live markers " +
               std::to_string(markers_alive) + " + pending " +
               std::to_string(pending_delivery_.size()) + " != heap size " +
               std::to_string(heap_.size());
      }
      return false;
    }
    return true;
  }

  /// Lock-free live state. The mirrors (tenants .. tombstones) refresh at
  /// every commit and poll; the SvcStats totals are the counters themselves,
  /// bumped as each event happens.
  struct Live {
    std::atomic<std::uint64_t> tenants{0};
    std::atomic<std::uint64_t> queue_depth{0};   ///< backlog(): queued + staged
    std::atomic<std::uint64_t> pending{0};       ///< popped, uncommitted
    std::atomic<std::uint64_t> tombstones{0};
    std::atomic<std::uint64_t> overloaded{0};    ///< 1 while shedding
    std::atomic<std::uint64_t> draining{0};
    // SvcStats, field for field.
    std::atomic<std::uint64_t> acked{0}, cancel_reqs{0}, delivered{0},
        cancelled{0}, requeued{0}, shed{0}, polls{0}, commits{0},
        aborted_polls{0}, recovered_inflight{0};
  };
  const Live& live() const noexcept { return live_; }

  /// Publishes the svc_* gauges ph_top renders (tenants, queue depth, shed,
  /// delivered/acked totals) under the `heap` label, along with the
  /// durable_* gauges of the heap below.
  void register_gauges(const std::string& heap = "svc") {
    gauges_.clear();
    heap_.register_gauges(heap);
    static constexpr obs::GaugeField<Live> kFields[] = {
        {"svc_tenants", "Tenants seen by the scheduler service.", &Live::tenants},
        {"svc_queue_depth", "Jobs anywhere in the service (staged+queued).", &Live::queue_depth},
        {"svc_pending_delivery", "Jobs popped but not yet committed to a poller.", &Live::pending},
        {"svc_tombstones", "Unmatched cancel tombstones held.", &Live::tombstones},
        {"svc_overloaded", "1 while admission is shedding.", &Live::overloaded},
        {"svc_draining", "1 once drain has begun.", &Live::draining},
        {"svc_shed_total", "Requests refused with kOverloaded (since boot).", &Live::shed},
        {"svc_delivered_total", "Jobs delivered to pollers (WAL-derived).", &Live::delivered},
        {"svc_acked_total", "Schedules made durable and acked (WAL-derived).", &Live::acked},
    };
    gauges_.add_fields(&live_, {{"heap", heap}}, kFields);
  }

 private:
  using TombKey = std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>;
  static TombKey tomb_key(const Job& j) noexcept {
    return TombKey{j.deadline_ns, j.id, j.tenant};
  }

  static constexpr std::size_t kMinPopChunk = 8;  ///< smallest first POP chunk
  static constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

  Inner make_inner() {
    persist::DurableOptions opt;
    opt.dir = cfg_.dir;
    opt.fsync = cfg_.fsync;
    opt.checkpoint_interval = 0;   // never: the ledger needs full-WAL replay
    opt.checkpoint_on_open = false;
    return Inner(
        PipelinedParallelHeap<Job, JobLess>(cfg_.node_capacity, JobLess{}),
        std::move(opt),
        [this](persist::RecType type, std::uint64_t k, std::span<const Job> items,
               std::span<const Job> out) { absorb_record(type, k, items, out); });
  }

  Admit shed(std::uint32_t tenant, std::size_t backlog) {
    ++tenants_.at(tenant).shed;
    obs::bump(live_.shed);
    if (!overloaded_) {
      overloaded_ = true;
      obs::flight(obs::FlightKind::kSvcOverload, tenant, backlog);
    }
    live_.overloaded.store(1, std::memory_order_relaxed);
    return Admit::kOverloaded;
  }

  /// THE single source of ledger truth: called by DurableHeap for every
  /// applied op — live and replayed — in identical shape (see file header).
  void absorb_record(persist::RecType, std::uint64_t k, std::span<const Job> items,
                     std::span<const Job> out) {
    // Admissions (and requeue-returns) in the record's fresh items.
    returns_.clear();
    for (const Job& j : items) {
      TenantState& st = tenants_.at(j.tenant);
      if ((j.flags & kRequeuedFlag) != 0 && (j.flags & kCancelFlag) == 0) {
        returns_.emplace_back(tomb_key(j), 1u);
        ++st.requeued;
        obs::bump(live_.requeued);
      } else if ((j.flags & kCancelFlag) != 0) {
        ++st.cancel_reqs;
        obs::bump(live_.cancel_reqs);
        ++admitted_in_record_;
        note_admitted(j);
      } else {
        ++st.acked;
        obs::bump(live_.acked);
        ++admitted_in_record_;
        note_admitted(j);
      }
    }
    if (!returns_.empty()) take_pending();
    // Pops: markers arm tombstones, tombstoned jobs annihilate, survivors
    // await the transaction's CLOSE.
    for (const Job& j : out) {
      if ((j.flags & kCancelFlag) != 0) {
        ++tombstones_[tomb_key(j)];
        prune_tombstones();
      } else if (take_tombstone(j)) {
        ++tenants_.at(j.tenant).cancelled;
        obs::bump(live_.cancelled);
      } else {
        pending_delivery_.push_back(j);
      }
    }
    // A k==0 record is a commit point: whatever is still pending was not
    // requeued, so it was delivered.
    if (k == 0 && !pending_delivery_.empty()) {
      for (const Job& j : pending_delivery_) {
        ++tenants_.at(j.tenant).delivered;
        obs::bump(live_.delivered);
        if (!recovering_) delivered_buf_.push_back(j);
      }
      pending_delivery_.clear();
    }
  }

  /// Removes one pending entry per requeue return in `returns_`, in one pass
  /// over pending_delivery_: O((P + R) log R) for a record returning R of P
  /// pending jobs. Returns collapse to (identity, count) and each pending
  /// job consumes one count, so the earliest pending matches go — and the
  /// survivors keep their order, which is the delivery order.
  void take_pending() {
    std::sort(returns_.begin(), returns_.end());
    std::size_t distinct = 0;
    for (const auto& r : returns_) {
      if (distinct > 0 && returns_[distinct - 1].first == r.first) {
        ++returns_[distinct - 1].second;
      } else {
        returns_[distinct++] = r;
      }
    }
    const std::size_t total = returns_.size();
    returns_.resize(distinct);
    std::size_t matched = 0, kept = 0;
    for (const Job& j : pending_delivery_) {
      const TombKey key = tomb_key(j);
      auto it = std::lower_bound(
          returns_.begin(), returns_.end(), key,
          [](const std::pair<TombKey, std::uint32_t>& r, const TombKey& k) {
            return r.first < k;
          });
      if (it != returns_.end() && it->first == key && it->second > 0) {
        --it->second;
        ++matched;
      } else {
        pending_delivery_[kept++] = j;
      }
    }
    pending_delivery_.resize(kept);
    // A requeue with no matching pop means the WAL lied; recovery's hole
    // check should have caught it. Keep the ledger loud in debug builds.
    PH_ASSERT_MSG(matched == total, "svc: requeue record without a matching popped job");
  }

  bool take_tombstone(const Job& j) {
    auto it = tombstones_.find(tomb_key(j));
    if (it == tombstones_.end()) return false;
    if (--it->second == 0) tombstones_.erase(it);
    return true;
  }

  /// Best-effort bound on cancels whose victim was already delivered: drop
  /// the smallest-keyed entries (deterministic — replay prunes identically,
  /// because pruning depends only on the op stream). `pruned_tombstones_`
  /// keeps the conservation law exact.
  void prune_tombstones() {
    while (tombstones_.size() > cfg_.max_tombstones) {
      auto it = tombstones_.begin();
      ++pruned_tombstones_;
      if (--it->second == 0) tombstones_.erase(it);
    }
  }

  void note_admitted(const Job& j) noexcept {
    next_due_lb_ = std::min(next_due_lb_, j.deadline_ns);
  }

  /// DRR over the due survivors: each round credits quantum*weight, serving
  /// one job costs 1. Non-due survivors go straight to requeue_. Deficits
  /// persist across polls only while a tenant stays backlogged.
  void select_drr(std::size_t max, std::uint64_t now) {
    requeue_.clear();
    due_by_tenant_.clear();
    for (Job& j : pending_delivery_) {
      if (j.deadline_ns <= now) {
        due_by_tenant_[j.tenant].jobs.push_back(j);
      } else {
        requeue_.push_back(j);
      }
    }
    std::size_t remaining = 0;
    for (auto& [t, q] : due_by_tenant_) remaining += q.jobs.size();
    std::size_t granted = 0;
    while (granted < max && remaining > 0) {
      bool progressed = false;
      // Tenant-id order, rotated past the last served tenant so small `max`
      // doesn't starve high ids.
      auto serve = [&](std::uint32_t t, DueQueue& q) {
        if (q.head >= q.jobs.size() || granted >= max) return;
        TenantState& st = tenants_.at(t);
        st.deficit = std::min(st.deficit + cfg_.drr_quantum * st.weight,
                              2.0 * cfg_.drr_quantum * st.weight + 1.0);
        while (st.deficit >= 1.0 && q.head < q.jobs.size() && granted < max) {
          ++q.head;  // delivered: stays out of requeue_ below
          st.deficit -= 1.0;
          ++granted;
          --remaining;
          progressed = true;
          drr_cursor_ = t;
        }
        if (q.head >= q.jobs.size()) st.deficit = 0.0;  // classic DRR: credit
                                                        // dies with the queue
      };
      auto start = due_by_tenant_.upper_bound(drr_cursor_);
      for (auto it = start; it != due_by_tenant_.end(); ++it) serve(it->first, it->second);
      for (auto it = due_by_tenant_.begin(); it != start; ++it) serve(it->first, it->second);
      if (!progressed) break;  // max smaller than any one credit step — done
    }
    for (auto& [t, q] : due_by_tenant_) {
      for (std::size_t i = q.head; i < q.jobs.size(); ++i) {
        requeue_.push_back(q.jobs[i]);  // due but past max / fair share
      }
    }
  }

  /// Writes the CLOSE record. With requeue_everything, every pending job
  /// returns (the abort/recovery path); otherwise requeue_ holds the DRR
  /// losers and the rest resolve as delivered inside absorb_record.
  ///
  /// Due-hint bookkeeping: every job left in the heap after this transaction
  /// is >= the last popped job, whose deadline is `frontier` (kNever when
  /// the pop ran the heap dry, 0 when unknown), and requeues are a subset of
  /// the pops — so min(frontier, requeue deadlines) lower-bounds everything
  /// undelivered. The frontier term matters when the last pop was a cancel
  /// marker or an annihilated victim: neither is requeued, yet later jobs
  /// still wait behind it. The hint is RAISED to that bound BEFORE the close
  /// record applies; admissions riding the record lower it again through
  /// note_admitted. A raise is only legal from this proof; everywhere else
  /// the hint only ever goes down.
  void close_transaction(bool requeue_everything, std::uint64_t frontier) {
    if (requeue_everything) {
      requeue_.assign(pending_delivery_.begin(), pending_delivery_.end());
    }
    std::uint64_t lb = frontier;
    for (const Job& j : requeue_) lb = std::min(lb, j.deadline_ns);
    next_due_lb_ = lb;
    for (Job& j : requeue_) j.flags |= kRequeuedFlag;
    if (pending_delivery_.empty() && requeue_.empty()) return;  // all annihilated
    sink_.clear();
    heap_.cycle(std::span<const Job>(requeue_), 0, sink_);
    PH_ASSERT_MSG(pending_delivery_.empty(), "svc: CLOSE left pending jobs");
    requeue_.clear();
  }

  void refresh_live() noexcept {
    live_.tenants.store(tenants_.size(), std::memory_order_relaxed);
    live_.queue_depth.store(backlog(), std::memory_order_relaxed);
    live_.pending.store(pending_delivery_.size(), std::memory_order_relaxed);
    live_.tombstones.store(tombstones_.size(), std::memory_order_relaxed);
  }

  SvcConfig cfg_;
  // Ledger state MUST precede heap_: the observer fires during heap_'s
  // construction (recovery replay) and touches these members.
  struct DueQueue {
    std::vector<Job> jobs;
    std::size_t head = 0;  ///< delivered prefix
  };

  TenantTable tenants_;
  std::map<TombKey, std::uint32_t> tombstones_;
  std::uint64_t pruned_tombstones_ = 0;
  std::vector<Job> pending_delivery_;
  std::vector<Job> delivered_buf_;
  std::vector<Job> requeue_;
  std::vector<std::pair<TombKey, std::uint32_t>> returns_;  ///< take_pending input
  std::map<std::uint32_t, DueQueue> due_by_tenant_;
  std::vector<Job> sink_;
  std::vector<Job> staged_;  ///< schedules/cancels awaiting the next commit
  bool recovering_ = true;   ///< true while heap_ construction replays
  bool overloaded_ = false;
  std::uint32_t drr_cursor_ = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t next_due_lb_ = 0;  ///< 0 = unknown: must pop
  std::size_t last_due_popped_ = 0;  ///< due jobs the last POP run popped
  std::size_t admitted_in_record_ = 0;
  Live live_;
  obs::GaugeSet gauges_;
  Inner heap_;
};

}  // namespace ph::svc
