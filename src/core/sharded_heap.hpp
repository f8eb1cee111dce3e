// ShardedHeap — a key-range-sharded front end over K independent
// PipelinedParallelHeap engine instances, the first step of ROADMAP's
// "scale past one engine instance" item.
//
// The parallel heap's per-cycle contract — insert a batch, delete the k
// globally smallest — is preserved across shards by a three-part protocol:
//
//   1. Route. Each cycle's insert batch is split by a key-range partition
//      map (KeyRangePartitioner): shard i owns keys in [split[i-1],
//      split[i]). Splits start as quantiles of the first batch and are
//      periodically re-estimated from a rolling sample of recent inserts
//      (the MultiQueues/PIPQ pressure-relief move: relax one hot structure
//      into many, rebalance instead of serializing).
//
//   2. Pull + K-way merge. Every shard runs one pipelined cycle with a full
//      deletion budget of k, yielding its own k smallest as a sorted
//      prefix. The global k smallest are then selected by a K-way
//      tournament over those prefixes (ties resolved by shard index, which
//      under multiset key semantics matches the sorted-multiset oracle
//      exactly). The global batch is a subset of the union of per-shard
//      prefixes by construction, so the merge never needs to look past
//      them. A shard whose local minimum exceeds another shard's k-th key
//      contributes nothing — its whole prefix is returned in step 3 — and
//      an empty shard participates as an empty prefix.
//
//   3. Putback. Prefix items that lost the tournament are re-inserted into
//      the shard they came from via an insert-only cycle (k = 0). Putback
//      traffic is the price of not peeking across shards and is counted
//      (ShardedStats::putbacks, gauge heap_putbacks); a well-balanced
//      partition map keeps it near zero because the winning prefix comes
//      from few shards (merge width ≈ 1).
//
// Rebalancing never migrates stored items: a new partition map only routes
// *future* inserts, so shard contents may overlap in key range after a
// rebalance. Step 2 deliberately assumes nothing about range disjointness —
// the tournament is a general K-way merge — which is what makes "rebalance
// while items are in flight" safe (test_sharded.cpp pins this).
//
// With K = 1 the protocol degenerates to exactly one pipelined cycle per
// global cycle — no routing decisions, no putback — so sharded_heap<K=1>
// is bit-for-bit the unsharded PipelinedParallelHeap (pinned by
// test_sharded.cpp and the differential harness).
//
// The cycle is serial: the driver pulls the shards one after another and
// puts the losers back the same way. The paper's parallelism lives inside
// each pipelined heap (ParallelHeapEngine's maintenance and think teams),
// not across shards; DESIGN.md §12 records why.
//
// The cross-shard min hint (Config::min_hint) predicts each shard's pull
// prefix from its root node — stable across the odd half-step — replays the
// tournament over the predictions, and skips the full-k pull on shards that
// provably contribute nothing (they still run an insert-only cycle so their
// pipelines advance). This kills the delete-side putback storm without any
// cross-shard peeking at pull time; see compute_pull_budgets() for the
// exactness argument.
//
// Every ShardedStats counter lives once, as a relaxed atomic in the Live
// block: sharded_stats() and the heap_* gauges read the same words, and the
// driver thread is their only writer.
//
// Injected-fault / recovery cycles run with full pull budgets (fire_fault
// ordering and checkpoint-rollback are order-sensitive); those are the cold
// paths by construction.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "robustness/failpoint.hpp"
#include "robustness/watchdog.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace ph {

/// Sharding counters, additive to each shard's own HeapStats/PipelineStats.
struct ShardedStats {
  std::uint64_t cycles = 0;
  std::uint64_t routed = 0;          ///< items routed to shards (inserts)
  std::uint64_t routed_max_sum = 0;  ///< per-cycle max shard share, summed
  std::uint64_t putbacks = 0;        ///< pulled-but-not-taken items returned
  std::uint64_t rebalances = 0;      ///< partition-map re-estimations applied
  std::uint64_t merge_width_sum = 0; ///< shards contributing >=1 item, summed
  std::uint64_t quarantines = 0;     ///< shards retired by fault or verdict
  std::uint64_t hint_skips = 0;      ///< shard pulls skipped by the min hint

  /// Mean routing imbalance: K * max-share / fair-share (1.0 = perfectly
  /// balanced, K = everything lands on one shard). NaN-free: 0 when idle.
  double imbalance(std::size_t shards) const noexcept {
    if (routed == 0) return 0.0;
    return static_cast<double>(shards) * static_cast<double>(routed_max_sum) /
           static_cast<double>(routed);
  }
  /// Mean number of shards contributing to a deletion batch.
  double avg_merge_width() const noexcept {
    if (cycles == 0) return 0.0;
    return static_cast<double>(merge_width_sum) / static_cast<double>(cycles);
  }
};

/// Key-range partition map: K-1 sorted split values of T; an item routes to
/// the number of splits at or below it. Static splits plus sample-based
/// re-estimation (quantiles of a recent-insert sample).
template <typename T, typename Compare = std::less<T>>
class KeyRangePartitioner {
 public:
  explicit KeyRangePartitioner(std::size_t shards, Compare cmp = Compare())
      : shards_(shards), cmp_(std::move(cmp)) {
    PH_ASSERT(shards_ >= 1);
  }

  std::size_t shards() const noexcept { return shards_; }

  /// Partition of `v`: the count of splits <= v, i.e. shard i owns
  /// [split[i-1], split[i]). Total: every value of T routes to exactly one
  /// shard, and route is monotone under Compare.
  std::size_t route(const T& v) const {
    const auto it = std::upper_bound(splits_.begin(), splits_.end(), v,
                                     [this](const T& a, const T& b) {
                                       return cmp_(a, b);
                                     });
    return static_cast<std::size_t>(it - splits_.begin());
  }

  /// Current split values (size shards-1; empty until the first rebalance
  /// when K > 1, which routes everything to the last shard — valid, merely
  /// unbalanced).
  const std::vector<T>& splits() const noexcept { return splits_; }

  /// Installs an explicit map (must be sorted ascending, size shards-1).
  void set_splits(std::vector<T> splits) {
    PH_ASSERT(splits.size() + 1 == shards_);
    PH_ASSERT(std::is_sorted(splits.begin(), splits.end(),
                             [this](const T& a, const T& b) { return cmp_(a, b); }));
    splits_ = std::move(splits);
  }

  /// Re-estimates the splits as the K-quantiles of `sample`. An empty
  /// sample (or K = 1) leaves the map unchanged. Duplicate-heavy samples
  /// may produce equal splits; route() stays total (the duplicated range
  /// simply has empty shards between its bounds).
  void rebalance(std::span<const T> sample) {
    if (shards_ == 1 || sample.empty()) return;
    scratch_.assign(sample.begin(), sample.end());
    std::sort(scratch_.begin(), scratch_.end(),
              [this](const T& a, const T& b) { return cmp_(a, b); });
    splits_.clear();
    splits_.reserve(shards_ - 1);
    for (std::size_t i = 1; i < shards_; ++i) {
      splits_.push_back(scratch_[i * scratch_.size() / shards_]);
    }
  }

 private:
  std::size_t shards_;
  Compare cmp_;
  std::vector<T> splits_;
  std::vector<T> scratch_;
};

template <typename T, typename Compare = std::less<T>>
class ShardedHeap {
 public:
  using Shard = PipelinedParallelHeap<T, Compare>;
  using value_type = T;
  using ServiceCtx = typename Shard::ServiceCtx;

  struct Config {
    std::size_t shards = 1;
    /// Re-estimate the partition map every this many cycles from the
    /// rolling insert sample (0 = static splits after the seeding batch).
    std::size_t rebalance_interval = 0;
    /// Rolling sample size backing re-estimation.
    std::size_t sample_capacity = 1024;
    /// Graceful degradation: a shard whose cycle throws an injected failure
    /// (while quarantine is on and a fail-point is armed) is checkpointed,
    /// rolled back, drained, and retired — its items fold into this cycle's
    /// tournament and its key range is redistributed across the survivors.
    /// The last active shard is never quarantined.
    bool quarantine = false;
    /// Cross-shard min hint: before phase 2, predict every shard's pull
    /// prefix from its (half-step-stable) root node, replay the tournament
    /// over the predictions, and drop provably-losing shards' pull budgets
    /// to 0 — insert-only cycles that skip the pull AND the putback
    /// round-trip. Exact (see compute_pull_budgets()); counted by
    /// ShardedStats::hint_skips / gauge heap_hint_skips.
    bool min_hint = true;
    /// Routing override: item -> band, taken modulo the active shard count
    /// (unset = key-range quantile partitioner). The tournament never
    /// assumes range disjointness, so any router is exact; the DES driver
    /// uses (timestamp / window) bands to spread delete-wave hotspots.
    std::function<std::size_t(const T&)> router = nullptr;
  };

  ShardedHeap(std::size_t node_capacity, Config cfg, Compare cmp = Compare())
      : r_(node_capacity),
        cfg_(cfg),
        cmp_(cmp),
        part_(cfg.shards == 0 ? 1 : cfg.shards, cmp) {
    PH_ASSERT(r_ >= 1);
    if (cfg_.shards == 0) cfg_.shards = 1;
    if (cfg_.sample_capacity == 0) cfg_.sample_capacity = 1;
    shards_.reserve(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      shards_.emplace_back(r_, cmp_);
    }
    route_buf_.resize(cfg_.shards);
    pulled_.resize(cfg_.shards);
    redist_.resize(cfg_.shards);
    pull_k_.resize(cfg_.shards);
    hint_.resize(cfg_.shards);
    // One tournament entry per slot plus the trailing recovery run.
    runs_.resize(cfg_.shards + 1);
    take_.resize(cfg_.shards + 1);
    live_ = std::make_unique<Live>(cfg_.shards);
    reset_active();
    update_live(0);
  }

  ShardedHeap(std::size_t node_capacity, std::size_t shards, Compare cmp = Compare())
      : ShardedHeap(node_capacity, Config{shards, 0, 1024}, std::move(cmp)) {}

  std::size_t node_capacity() const noexcept { return r_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }

  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Shard& s : shards_) n += s.size();
    return n;
  }
  bool empty() const noexcept { return size() == 0; }

  /// The sharding counters, read from their one copy in the Live block.
  ShardedStats sharded_stats() const noexcept {
    const Live& lv = *live_;
    auto get = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    return ShardedStats{get(lv.cycles),          get(lv.routed),
                        get(lv.routed_max_sum),  get(lv.putbacks),
                        get(lv.rebalances),      get(lv.merge_width_sum),
                        get(lv.quarantines),     get(lv.hint_skips)};
  }
  const KeyRangePartitioner<T, Compare>& partitioner() const noexcept { return part_; }
  Shard& shard(std::size_t i) noexcept { return shards_[i]; }

  /// Shards still serving traffic (== num_shards() until a quarantine).
  std::size_t active_shards() const noexcept { return dense_.size(); }
  bool shard_active(std::size_t i) const noexcept { return active_[i] != 0; }

  /// Cycle-boundary snapshot of the whole sharded structure: the partition
  /// map, the active mask, and every shard's contents. The rolling insert
  /// sample is deliberately NOT captured — it only steers *future*
  /// rebalances, and the delete-min stream is exact under any partition map
  /// (the tournament assumes nothing about range disjointness), so dropping
  /// it cannot change observable output. Same O(n) contract as the
  /// pipelined heap's Snapshot; valid at any cycle boundary.
  struct Snapshot {
    std::vector<T> splits;
    std::vector<std::uint8_t> active;
    bool seeded = false;
    std::vector<std::vector<T>> shard_items;
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.splits = part_.splits();
    s.active = active_;
    s.seeded = seeded_;
    s.shard_items.reserve(shards_.size());
    for (const Shard& sh : shards_) s.shard_items.push_back(sh.snapshot().items);
    return s;
  }

  /// Rebuilds the structure from a snapshot: partition map, active mask,
  /// and per-shard contents all return to their captured values (the
  /// rolling sample restarts empty — see snapshot()).
  void restore(const Snapshot& s) {
    PH_ASSERT(s.shard_items.size() == shards_.size());
    PH_ASSERT(s.active.size() == shards_.size());
    active_ = s.active;
    sample_.clear();
    sample_cursor_ = 0;
    rebuild_routing();  // empty sample: an unseeded map at the active width
    // A pre-seed snapshot (or a width mismatch) stays unseeded: reseed lazily.
    if (s.splits.size() + 1 == dense_.size()) {
      part_.set_splits(s.splits);
      seeded_ = s.seeded;
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i].build(s.shard_items[i]);
    }
    update_live(0);
  }

  /// Wires watchdog stall verdicts into shard retirement: registers one
  /// heartbeat channel per shard (beaten at each shard-cycle completion) and
  /// quarantines any ACTIVE shard whose channel has been stalled for
  /// `polls_to_quarantine` consecutive polls — the same drain/redistribute
  /// retirement as the fault path, applied at the next cycle boundary
  /// (the quiescent point where the shard's state is consistent). The last
  /// active shard is never retired. Call before the first cycle.
  void attach_watchdog(robustness::PhaseWatchdog& wd,
                       std::uint32_t polls_to_quarantine = 1) {
    wd_ = &wd;
    wd_polls_ = polls_to_quarantine == 0 ? 1 : polls_to_quarantine;
    wd_ch_.clear();
    wd_ch_.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      wd_ch_.push_back(wd.add_channel("shard-" + std::to_string(s)));
    }
  }

  /// The watchdog channel id serving shard `s` (tests beat/poke these).
  std::size_t watchdog_channel(std::size_t s) const noexcept { return wd_ch_[s]; }

  /// Lock-free live state: what gauge callbacks read, so a scrape thread
  /// never touches the real shards and can run mid-cycle without
  /// synchronizing with the engine. The state mirrors (sizes, active mask,
  /// last_cycle_ns) are refreshed at every cycle boundary and by
  /// build/restore; the ShardedStats counters are the counters themselves,
  /// bumped by the driver as each event happens.
  struct Live {
    explicit Live(std::size_t shards) : shard_size(shards), shard_active(shards) {}
    std::vector<std::atomic<std::uint64_t>> shard_size;
    std::vector<std::atomic<std::uint64_t>> shard_active;  ///< 0/1
    std::atomic<std::uint64_t> active_shards{0};
    std::atomic<std::uint64_t> total_size{0};
    std::atomic<std::uint64_t> last_cycle_ns{0};
    // ShardedStats, field for field.
    std::atomic<std::uint64_t> cycles{0}, routed{0}, routed_max_sum{0},
        putbacks{0}, rebalances{0}, merge_width_sum{0}, quarantines{0},
        hint_skips{0};
  };

  const Live& live() const noexcept { return *live_; }

  /// Publishes this heap's live state as named gauges in the process-wide
  /// MetricsRegistry (per-shard size/liveness plus cycle/route/putback
  /// totals a scraper turns into rates). `heap` labels every gauge so
  /// multiple instances coexist. Deregistration is automatic (RAII) when
  /// the heap dies. Call once, before the first scrape matters.
  void register_gauges(const std::string& heap = "sharded") {
    gauges_.clear();
    Live* lv = live_.get();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<std::pair<std::string, std::string>> labels{
          {"heap", heap}, {"shard", std::to_string(s)}};
      gauges_.add(
          obs::GaugeDesc{"shard_size", labels,
                         "Items held by one shard (cycle-boundary mirror)."},
          [lv, s] { return static_cast<double>(
                        lv->shard_size[s].load(std::memory_order_relaxed)); });
      gauges_.add(
          obs::GaugeDesc{"shard_active", labels,
                         "1 while the shard serves traffic, 0 once quarantined."},
          [lv, s] { return static_cast<double>(
                        lv->shard_active[s].load(std::memory_order_relaxed)); });
    }
    static constexpr obs::GaugeField<Live> kFields[] = {
        {"active_shards", "Shards currently serving traffic.", &Live::active_shards},
        {"heap_size", "Total items across all shards.", &Live::total_size},
        {"heap_cycles", "Sharded cycles completed.", &Live::cycles},
        {"heap_routed", "Items routed to shards (inserts).", &Live::routed},
        {"heap_putbacks", "Prefix items returned after losing the tournament.", &Live::putbacks},
        {"heap_rebalances", "Partition-map re-estimations applied.", &Live::rebalances},
        {"heap_quarantines", "Shards retired by fault or watchdog verdict.", &Live::quarantines},
        {"heap_hint_skips", "Shard pulls skipped by the cross-shard min hint.", &Live::hint_skips},
        {"heap_last_cycle_ns", "Wall-clock duration of the last sharded cycle.", &Live::last_cycle_ns},
    };
    gauges_.add_fields(lv, {{"heap", heap}}, kFields);
  }

  /// Replaces the content: seeds the partition map from `items` and
  /// bulk-loads each shard with its range. Quarantined shards are
  /// reactivated (build is a full reset).
  void build(std::span<const T> items) {
    reset_active();
    observe(items);
    if (!seeded_ && !items.empty()) {
      part_.rebalance(items);
      seeded_ = true;
    }
    for (auto& b : route_buf_) b.clear();
    for (const T& v : items) route_buf_[slot_for(v)].push_back(v);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].build(route_buf_[s]);
    }
    update_live(0);
  }

  /// One sharded insert-delete cycle: routes `fresh` across the shards,
  /// pulls every shard's k-smallest prefix through one pipelined cycle
  /// each, K-way-merges the global k smallest into `out` (sorted), and
  /// puts losing prefix items back. Returns the number deleted.
  std::size_t cycle(std::span<const T> fresh, std::size_t k, std::vector<T>& out) {
    PH_ASSERT_MSG(k <= r_, "cycle(): k must not exceed the node capacity r");
    obs::bump(live_->cycles);
    recovery_.clear();

    // Causal identity: every span recorded during this cycle — route, each
    // shard's pipeline levels, merge, putback — carries this id, so the
    // Chrome exporter can stitch one cycle across all K shards into a single
    // flow. The flight recorder logs the same id, linking black-box events
    // to trace spans.
    const std::uint64_t trace_id = telemetry::new_trace_id();
    telemetry::TraceCtxScope trace_scope(trace_id);
    obs::flight(obs::FlightKind::kCycle, trace_id, fresh.size());
    Timer cycle_timer;

    // Phase 0: watchdog verdicts. A shard whose heartbeat channel has been
    // stalled for wd_polls_ consecutive polls is retired here, at the cycle
    // boundary — its state is quiescent and valid, so it takes the same
    // drain/redistribute path as a fault (with extra_ empty: nothing to
    // roll back) and its items fold into THIS cycle's tournament.
    if (wd_ != nullptr) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (active_[s] == 0 || active_shards() <= 1) continue;
        if (wd_->consecutive_stalls(wd_ch_[s]) >= wd_polls_) {
          // The shard's last pulled prefix was already put back (phase 4 of
          // the previous cycle), so its survivors are inside the shard and
          // drain into the recovery run; the stale pulled_ copy stays out of
          // the tournament because only this cycle's slots compete.
          extra_.clear();
          quarantine_shard(s);
        }
      }
    }

    // Phase 1: route. The first nonempty batch seeds the partition map.
    {
      telemetry::SpanScope span(telemetry::Phase::kShardRoute);
      obs::flight(obs::FlightKind::kPhase,
                  static_cast<std::uint64_t>(telemetry::Phase::kShardRoute),
                  trace_id);
      if (!seeded_ && !fresh.empty()) {
        part_.rebalance(fresh);
        seeded_ = true;
      }
      for (auto& b : route_buf_) b.clear();
      for (const T& v : fresh) route_buf_[slot_for(v)].push_back(v);
    }
    if (!fresh.empty()) {
      std::size_t mx = 0;
      for (const auto& b : route_buf_) mx = std::max(mx, b.size());
      obs::bump(live_->routed, fresh.size());
      obs::bump(live_->routed_max_sum, mx);
      observe(fresh);
    }

    // Phase 2: pull per-shard prefixes. Every active shard cycles every
    // global cycle — even an empty one — so parked update processes keep
    // advancing at the global cycle rate. A shard that trips a fail-point
    // here is quarantined: rolled back to its pre-cycle checkpoint, drained,
    // and folded into this cycle's tournament via the recovery run.
    cycle_slots_.assign(dense_.begin(), dense_.end());
    // Cold cycles — armed fail-points (fire-counter order is global and
    // order-sensitive) or a phase-0 recovery run — pull with full budgets;
    // everything else may use the min hint.
    const bool cold = robustness::any_armed() || !recovery_.empty();
    compute_pull_budgets(k, cold);
    for (const std::size_t s : cycle_slots_) {
      pulled_[s].clear();
      telemetry::TraceTagScope shard_tag(static_cast<std::uint32_t>(s));
      // Checkpointing is O(shard size); only pay for it when an injected
      // failure can actually fire and we have a survivor to fail over to.
      const bool guard = cfg_.quarantine && active_shards() > 1 &&
                         robustness::any_armed();
      if (!guard) {
        shards_[s].cycle(route_buf_[s], pull_k_[s], pulled_[s]);
        if (wd_ != nullptr) wd_->beat(wd_ch_[s]);
        continue;
      }
      const typename Shard::Snapshot snap = shards_[s].snapshot();
      try {
        robustness::fire_fault(robustness::FailSite::kShardCycle);
        shards_[s].cycle(route_buf_[s], pull_k_[s], pulled_[s]);
      } catch (const robustness::InjectedFailure&) {
        // The cycle died mid-flight: the shard may be poisoned and its
        // routed batch was never committed. Roll back to the checkpoint,
        // discard any partial pull, and retire the shard; checkpoint items
        // plus the uncommitted routed batch form its recovery content.
        shards_[s].restore(snap);
        pulled_[s].clear();
        extra_.assign(route_buf_[s].begin(), route_buf_[s].end());
        std::sort(extra_.begin(), extra_.end(), cmp_);
        quarantine_shard(s);
        robustness::note_recovery(robustness::FailSite::kShardCycle);
        continue;
      }
      if (wd_ != nullptr) wd_->beat(wd_ch_[s]);
    }

    // Phase 3: K-way tournament over the sorted prefixes (plus the recovery
    // run, if a quarantine happened this cycle); ties go to the lowest
    // shard index, and the recovery run, entered last, loses all ties
    // (deterministic; invisible under multiset keys). Only this cycle's
    // slots compete: a shard retired earlier keeps no prefix.
    std::size_t taken = 0;
    {
      telemetry::SpanScope span(telemetry::Phase::kShardMerge);
      obs::flight(obs::FlightKind::kPhase,
                  static_cast<std::uint64_t>(telemetry::Phase::kShardMerge),
                  trace_id);
      taken = tournament(pulled_, recovery_, k, &out);
    }
    const std::size_t rec_take = take_.back();
    // Every prefix item not taken, and the untaken recovery remainder, goes
    // back into a shard in phase 4.
    std::size_t width = rec_take > 0 ? 1 : 0;
    std::size_t put_total = recovery_.size() - rec_take;
    for (const std::size_t s : cycle_slots_) {
      if (take_[s] > 0) ++width;
      put_total += pulled_[s].size() - take_[s];
    }
    obs::bump(live_->merge_width_sum, width);
    obs::bump(live_->putbacks, put_total);

    // Phase 4: put losing prefix suffixes back where they came from
    // (insert-only cycles; k = 0 advances nothing out of the shard).
    for (const std::size_t s : cycle_slots_) {
      if (take_[s] >= pulled_[s].size()) continue;
      telemetry::TraceTagScope shard_tag(static_cast<std::uint32_t>(s));
      const auto rest = std::span<const T>(pulled_[s]).subspan(take_[s]);
      sink_.clear();
      shards_[s].cycle(rest, 0, sink_);
    }

    // Phase 4b: redistribute the untaken recovery remainder across the
    // survivors through the same insert-only path — routed by the (already
    // rebuilt) partition map, so a quarantined shard's key range is served
    // by the survivors from the very next route.
    if (rec_take < recovery_.size()) {
      for (auto& b : redist_) b.clear();
      for (std::size_t i = rec_take; i < recovery_.size(); ++i) {
        redist_[slot_for(recovery_[i])].push_back(recovery_[i]);
      }
      for (const std::size_t s : dense_) {
        if (redist_[s].empty()) continue;
        sink_.clear();
        shards_[s].cycle(redist_[s], 0, sink_);
      }
    }
    recovery_.clear();

    // Phase 5: periodic partition-map re-estimation, always between cycles
    // (never while shard pipelines are mid-half-step).
    if (rebalance_due()) rebalance_now();
    update_live(cycle_timer.nanos());
    return taken;
  }

  /// Verifies every shard's structural invariants (drains their pipelines).
  bool check_invariants(std::string* why = nullptr) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      std::string inner;
      if (!shards_[s].check_invariants(&inner)) {
        if (why) *why = "shard " + std::to_string(s) + ": " + inner;
        return false;
      }
    }
    return true;
  }

  /// All contents ascending (drains; testing/diagnostics).
  std::vector<T> sorted_contents() {
    std::vector<T> all;
    for (Shard& s : shards_) {
      const std::vector<T> part = s.sorted_contents();
      all.insert(all.end(), part.begin(), part.end());
    }
    std::sort(all.begin(), all.end(), cmp_);
    return all;
  }

 private:
  /// Recomputes dense_ from active_ and re-estimates the partition map at
  /// the new width from the rolling sample: quarantine narrows it,
  /// reset_active widens it, restore rebuilds it.
  void rebuild_routing() {
    dense_.clear();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (active_[i] != 0) dense_.push_back(i);
    }
    part_ = KeyRangePartitioner<T, Compare>(dense_.size(), cmp_);
    seeded_ = false;
    if (!sample_.empty()) {
      part_.rebalance(std::span<const T>(sample_));
      seeded_ = true;
    }
  }

  /// Slot (index into shards_) serving value v under the current partition
  /// map: the map spans only ACTIVE shards; dense_ translates its range
  /// index to a physical slot. A configured router bypasses the map: its
  /// band, modulo the active count, picks the slot directly.
  std::size_t slot_for(const T& v) const {
    if (cfg_.router) return dense_[cfg_.router(v) % dense_.size()];
    return dense_[part_.route(v)];
  }

  /// Satellite fix (delete-side putback storm): decide every shard's pull
  /// budget BEFORE phase 2. A shard's next pulled prefix is exactly the
  /// first min(k, ·) items of merge(root, sorted(routed batch)) — the
  /// paper's delete-correctness theorem confines the k smallest of
  /// (heap ∪ new) to (root ∪ new), and the root is stable across the odd
  /// half-step (PipelinedParallelHeap::root_items()) — so the driver can
  /// compute each prefix without running any pull. Replaying the
  /// phase-3 tournament over the predictions (same lowest-shard-index
  /// tie-break) yields the exact per-shard take counts; a shard whose
  /// count is zero provably contributes nothing this cycle, so its budget
  /// drops to 0: an insert-only cycle that skips the pull AND the putback
  /// round-trip while its pipeline still advances.
  ///
  /// Exactness: the tournament selects the k smallest candidates under the
  /// (key, shard index, position) priority; removing candidates that were
  /// never selected cannot change the selected multiset (each removed item
  /// ranks strictly after all k winners), so contributing shards take
  /// exactly what they always did. Tie counts depend only on key multisets,
  /// which the prediction reproduces even though payload order within equal
  /// keys may differ from the shard's own merge. Disabled on cold cycles,
  /// where pulled prefixes double as quarantine candidate sets.
  void compute_pull_budgets(std::size_t k, bool cold) {
    for (const std::size_t s : cycle_slots_) pull_k_[s] = k;
    if (!cfg_.min_hint || cold || k == 0 || cycle_slots_.size() < 2) return;
    for (const std::size_t s : cycle_slots_) {
      hint_fresh_.assign(route_buf_[s].begin(), route_buf_[s].end());
      std::sort(hint_fresh_.begin(), hint_fresh_.end(), cmp_);
      auto& h = hint_[s];
      h.clear();
      merge2(shards_[s].root_items(), std::span<const T>(hint_fresh_), h, cmp_);
      if (h.size() > k) h.erase(h.begin() + static_cast<std::ptrdiff_t>(k), h.end());
    }
    // Tournament replay over the predictions: phase 3's slot order and
    // tie-break, counting takes into take_ without output.
    tournament(hint_, {}, k, nullptr);
    std::size_t skips = 0;
    for (const std::size_t s : cycle_slots_) {
      // An empty prediction means the shard pulls nothing either way; keep
      // its budget at k so behavior matches the pre-hint code exactly.
      if (take_[s] == 0 && !hint_[s].empty()) {
        pull_k_[s] = 0;
        ++skips;
      }
    }
    obs::bump(live_->hint_skips, skips);
  }

  /// The K-way tournament (merge_k) over this cycle's slots' runs in `src`
  /// plus `tail`, entered last so it loses all ties. Every other slot is an
  /// empty run, so a shard retired earlier cannot compete with the stale
  /// contents of its buffer. Takes up to k items, appending them to *out
  /// when out is non-null; take_ holds the per-slot counts, then the tail's.
  std::size_t tournament(const std::vector<std::vector<T>>& src,
                         std::span<const T> tail, std::size_t k,
                         std::vector<T>* out) {
    std::fill(runs_.begin(), runs_.end(), std::span<const T>{});
    for (const std::size_t s : cycle_slots_) runs_[s] = std::span<const T>(src[s]);
    runs_.back() = tail;
    std::fill(take_.begin(), take_.end(), std::size_t{0});
    return merge_k(std::span<const std::span<const T>>(runs_), k,
                   std::span<std::size_t>(take_), out, cmp_);
  }

  /// Reactivates every shard and restores the full-width partition map
  /// (no-op unless a quarantine actually happened; ctor bootstrap aside).
  void reset_active() {
    if (!active_.empty() && dense_.size() == shards_.size()) return;
    active_.assign(cfg_.shards, std::uint8_t{1});
    rebuild_routing();
  }

  /// Retires shard `s`: drains it (plus `extra_`, the caller-supplied
  /// sorted items stranded by the failure) into the cycle's recovery run,
  /// removes it from the routing table, and narrows the partition map to
  /// the survivors — re-estimated from the rolling sample so the dead
  /// shard's key range splits across them instead of piling onto one
  /// neighbor. Conservation: recovery_ gains exactly the shard's committed
  /// items plus extra_; nothing else moves.
  void quarantine_shard(std::size_t s) {
    PH_ASSERT_MSG(active_shards() > 1, "cannot quarantine the last shard");
    PH_ASSERT(active_[s] != 0);
    active_[s] = 0;
    rebuild_routing();
    const std::vector<T> drained = shards_[s].sorted_contents();
    // sorted_contents() copies; actually empty the retired shard so its
    // items *move* into the recovery run — otherwise size()/empty() keep
    // counting the dead shard's stale copy forever.
    shards_[s].build(std::span<const T>{});
    const std::size_t mid = recovery_.size();
    recovery_.insert(recovery_.end(), drained.begin(), drained.end());
    recovery_.insert(recovery_.end(), extra_.begin(), extra_.end());
    extra_.clear();
    // Both pieces are sorted; a repeated quarantine in one cycle appends
    // another pair — sort the whole (cold-path) run once.
    std::sort(recovery_.begin() + static_cast<std::ptrdiff_t>(mid), recovery_.end(),
              cmp_);
    std::inplace_merge(recovery_.begin(),
                       recovery_.begin() + static_cast<std::ptrdiff_t>(mid),
                       recovery_.end(),
                       [this](const T& a, const T& b) { return cmp_(a, b); });
    obs::bump(live_->quarantines);
    obs::flight(obs::FlightKind::kQuarantine, s, drained.size());
  }

  /// Refreshes Live's state mirrors from authoritative state. Cycle
  /// boundaries only — the one place shard sizes are consistent.
  void update_live(std::uint64_t cycle_ns) noexcept {
    Live& lv = *live_;
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::uint64_t n = shards_[s].size();
      lv.shard_size[s].store(n, std::memory_order_relaxed);
      lv.shard_active[s].store(active_[s] != 0 ? 1 : 0, std::memory_order_relaxed);
      total += n;
    }
    lv.total_size.store(total, std::memory_order_relaxed);
    lv.active_shards.store(dense_.size(), std::memory_order_relaxed);
    if (cycle_ns != 0) lv.last_cycle_ns.store(cycle_ns, std::memory_order_relaxed);
  }


  /// Re-estimates the partition map from the rolling sample (phase 5).
  void rebalance_now() {
    if (cfg_.router) return;  // banded routing bypasses the partition map
    if (sample_.empty() || active_shards() == 1) return;
    part_.rebalance(std::span<const T>(sample_));
    obs::bump(live_->rebalances);
    obs::flight(obs::FlightKind::kRebalance, active_shards());
  }

  /// Phase 5's trigger: the periodic re-estimation interval just elapsed.
  bool rebalance_due() const noexcept {
    return cfg_.rebalance_interval != 0 &&
           live_->cycles.load(std::memory_order_relaxed) % cfg_.rebalance_interval == 0;
  }

  /// Rolling insert sample backing rebalance (overwrite-oldest ring; cheap,
  /// deterministic, biased to recent batches — which is the point: the map
  /// should track where keys are arriving *now*).
  void observe(std::span<const T> items) {
    // Static maps stop sampling after the seed — unless quarantine is on,
    // where the sample feeds the post-retirement partition re-estimation.
    if (cfg_.rebalance_interval == 0 && !cfg_.quarantine && seeded_) {
      return;
    }
    for (const T& v : items) {
      if (sample_.size() < cfg_.sample_capacity) {
        sample_.push_back(v);
      } else {
        sample_[sample_cursor_ % cfg_.sample_capacity] = v;
      }
      ++sample_cursor_;
    }
  }

  std::size_t r_;
  Config cfg_;
  Compare cmp_;
  KeyRangePartitioner<T, Compare> part_;
  std::vector<Shard> shards_;
  bool seeded_ = false;

  // Quarantine bookkeeping: active_[slot] flags live shards; dense_ maps the
  // partition map's [0, active) range index to a physical slot.
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> dense_;

  std::vector<T> sample_;
  std::size_t sample_cursor_ = 0;

  // Watchdog-driven retirement (attach_watchdog): one channel per shard.
  robustness::PhaseWatchdog* wd_ = nullptr;
  std::vector<std::size_t> wd_ch_;
  std::uint32_t wd_polls_ = 1;

  // Observability: Live is heap-allocated so the heap stays movable (a
  // vector of atomics is not), and gauge callbacks capture the stable Live*
  // — never `this`.
  std::unique_ptr<Live> live_;
  obs::GaugeSet gauges_;

  // Scratch (reused; allocation-free after warm-up).
  std::vector<std::vector<T>> route_buf_, pulled_, redist_;
  std::vector<std::size_t> cycle_slots_;
  std::vector<T> sink_, recovery_, extra_;
  // Tournament entries (one per slot, then the recovery run) and their take
  // counts; phase 3 and the min hint share them.
  std::vector<std::span<const T>> runs_;
  std::vector<std::size_t> take_;

  // Min-hint scratch (compute_pull_budgets).
  std::vector<std::size_t> pull_k_;   ///< per-slot deletion budget this cycle
  std::vector<std::vector<T>> hint_;  ///< predicted pulled prefixes
  std::vector<T> hint_fresh_;
};

}  // namespace ph
