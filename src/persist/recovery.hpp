// Exact restart recovery + the DurableHeap<PQ> adoption wrapper.
//
// Recovery state machine (run once, in the DurableHeap constructor):
//
//   1. SWEEP      unlink stray *.tmp files (a crash mid-checkpoint-write).
//   2. LOAD       walk checkpoints newest-first; the first one that passes
//                 full CRC/shape validation is restored into the PQ. A
//                 checkpoint that FAILS validation is renamed aside to
//                 `<name>.corrupt` — detected and skipped loudly (counted in
//                 RecoveryInfo::corrupt_checkpoints), never silently loaded,
//                 and never reconsidered. No valid checkpoint ⇒ start empty.
//   3. REPLAY     walk WAL segments in sequence order, applying each record
//                 whose op sequence extends the recovered state by exactly
//                 one. Records at or below the checkpoint's sequence are
//                 skipped (idempotence); a sequence HOLE — the next readable
//                 record skips ahead — throws CorruptStateError, because a
//                 hole means acknowledged operations are unrecoverable and
//                 continuing would silently drop them. A torn tail (crash
//                 mid-append) is benign: replay simply ends there.
//   4. VERIFY     the PQ's own invariant checker must pass over the
//                 recovered state.
//   5. REBASE     publish a fresh checkpoint at the recovered sequence and
//                 rotate to a new WAL segment. Crucially, recovery never
//                 MUTATES pre-existing checkpoint or segment files — so a
//                 crash during recovery (fail-point kRecoverReplay, or a
//                 real one) leaves the directory exactly as recoverable as
//                 before: re-running recovery is idempotent.
//
// Why replay is exact: the library's comparators are total orders, so "the
// k smallest of multiset M" is a unique multiset. Re-executing the logged
// multiset transitions therefore reaches the identical logical state — and
// the identical future delete-min stream — regardless of the PQ's internal
// layout, partition map, or pipeline schedule (DESIGN.md §10).
//
// DurableHeap<PQ> wraps any batch PQ (PipelinedParallelHeap, ShardedHeap)
// with write-ahead logging: every state-changing call appends a WAL record
// BEFORE mutating the PQ, fsyncs per policy, then applies. It forwards the
// pipeline-driver surface (root_work_public / advance / merge_ctx / drain),
// so the engine and the DES simulators adopt durability by substituting the
// type — no call-site churn.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "persist/checkpoint.hpp"
#include "persist/format.hpp"
#include "persist/wal.hpp"
#include "robustness/failpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ph::persist {

/// Unrecoverable durable-state damage: a sequence hole in the WAL, or a
/// recovered state that fails the PQ's invariants. Deliberately loud —
/// proceeding would fabricate or drop acknowledged operations.
class CorruptStateError : public PersistError {
 public:
  explicit CorruptStateError(const std::string& what) : PersistError(what) {}
};

struct DurableOptions {
  std::string dir;                    ///< durable directory (created if absent)
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  /// Auto-checkpoint after this many logged ops (0 = manual checkpoints).
  std::size_t checkpoint_interval = 0;
  /// Publish a fresh checkpoint at the end of recovery (step 5). Turning
  /// this off skips the O(n) write for open-inspect-close uses; the next
  /// explicit/auto checkpoint rebases instead.
  bool checkpoint_on_open = true;
};

/// Checkpoints retained after each new publication: two, so a corrupted
/// newest file can fall back with full WAL coverage.
inline constexpr std::size_t kKeepCheckpoints = 2;

/// What recovery found and did (DurableHeap::recovery_info()).
struct RecoveryInfo {
  bool checkpoint_loaded = false;
  std::uint64_t replayed = 0;           ///< WAL records applied
  std::uint64_t corrupt_checkpoints = 0;///< checkpoints rejected by validation
  bool wal_torn = false;                ///< a torn/garbage WAL tail was cut
};

template <typename PQ>
class DurableHeap {
 public:
  using value_type = typename PQ::value_type;
  using ServiceCtx = typename PQ::ServiceCtx;
  using T = value_type;

  /// Observes every logged state transition — live ops as they apply AND
  /// replayed records during recovery, in the identical (type, k, items,
  /// outputs) shape. Layers that derive state from the op stream (the svc
  /// tenant ledger) route BOTH paths through one observer, so what recovery
  /// rebuilds is what the live path built, by construction. Replay exactness
  /// (multiset semantics, DESIGN.md §10) extends to the outputs: a replayed
  /// record regenerates the same popped multiset the live run produced.
  /// Must not throw; must not call back into the heap.
  using OpObserver =
      std::function<void(RecType, std::uint64_t, std::span<const T>, std::span<const T>)>;

  /// Wraps `pq` (which supplies configuration: node capacity, comparator,
  /// shard layout) and recovers state from `opt.dir`. Any content `pq`
  /// arrived with is REPLACED by the recovered state (empty when the
  /// directory holds none) — durable content lives in the directory, not in
  /// the constructor argument; seed fresh content with build(). An observer
  /// passed here sees the recovery replay too.
  DurableHeap(PQ pq, DurableOptions opt, OpObserver observer = nullptr)
      : pq_(std::move(pq)), opt_(std::move(opt)), observer_(std::move(observer)) {
    PH_ASSERT_MSG(!opt_.dir.empty(), "DurableHeap: empty durable directory");
    recover();
  }

  DurableHeap(DurableHeap&&) = default;
  DurableHeap& operator=(DurableHeap&&) = default;

  // ------------------------------------------------------- logged mutators

  /// Replaces the content (logged as a kBuild record: replay re-executes the
  /// replacement, so a build is durable the same way any op is).
  void build(std::span<const T> items) {
    log_op(RecType::kBuild, 0, items);
    apply_guard([&] { pq_.build(items); });
    notify(RecType::kBuild, 0, items, {});
    finish_op();
  }

  std::size_t cycle(std::span<const T> fresh, std::size_t k, std::vector<T>& out) {
    log_op(RecType::kCycle, k, fresh);
    const std::size_t entry = out.size();
    std::size_t n = 0;
    apply_guard([&] { n = pq_.cycle(fresh, k, out); });
    notify(RecType::kCycle, k, fresh,
           std::span<const T>(out.data() + entry, out.size() - entry));
    finish_op();
    return n;
  }

  void insert_batch(std::span<const T> items) {
    log_op(RecType::kInsert, 0, items);
    apply_guard([&] { pq_.insert_batch(items); });
    notify(RecType::kInsert, 0, items, {});
    finish_op();
  }

  std::size_t delete_min_batch(std::size_t k, std::vector<T>& out) {
    log_op(RecType::kDelete, k, {});
    const std::size_t entry = out.size();
    std::size_t n = 0;
    apply_guard([&] { n = pq_.delete_min_batch(k, out); });
    notify(RecType::kDelete, k, {},
           std::span<const T>(out.data() + entry, out.size() - entry));
    finish_op();
    return n;
  }

  // --------------------------------- pipeline-driver surface (engine seam)
  //
  // root_work_public is the cycle's logged boundary (it consumes the fresh
  // batch and fixes k); the half-step advances that follow are deterministic
  // maintenance of the same logical transition, so they are forwarded
  // unlogged — replay applies the whole transition as one cycle().

  std::size_t root_work_public(std::span<const T> fresh, std::size_t k,
                               std::vector<T>& out) {
    log_op(RecType::kCycle, k, fresh);
    const std::size_t entry = out.size();
    std::size_t n = 0;
    apply_guard([&] { n = pq_.root_work_public(fresh, k, out); });
    notify(RecType::kCycle, k, fresh,
           std::span<const T>(out.data() + entry, out.size() - entry));
    finish_op();
    return n;
  }

  void advance(std::size_t parity) { pq_.advance(parity); }
  template <typename Runner>
  void advance_with(std::size_t parity, Runner&& runner) {
    pq_.advance_with(parity, static_cast<Runner&&>(runner));
  }
  void merge_ctx(ServiceCtx& ctx) { pq_.merge_ctx(ctx); }
  void drain() { pq_.drain(); }

  // ------------------------------------------------------------ checkpoint

  /// Publishes a checkpoint at the current op sequence, rotates to a fresh
  /// WAL segment, and prunes files outside the retention window. Returns
  /// false if an INJECTED failure aborted the write (counted, recovered:
  /// the heap keeps running on the previous checkpoint + live WAL); real
  /// I/O errors throw PersistError.
  bool checkpoint_now() {
    try {
      write_checkpoint(opt_.dir, op_seq(), to_image(pq_), opt_.fsync);
    } catch (const robustness::InjectedFailure& f) {
      robustness::note_recovery(f.site);
      return false;
    }
    rotate_wal();
    prune();
    ops_since_ckpt_ = 0;
    live_->checkpoints.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // -------------------------------------------------------------- observers

  PQ& heap() noexcept { return pq_; }
  const PQ& heap() const noexcept { return pq_; }
  /// What recovery found; `replayed` reads the Live counter.
  RecoveryInfo recovery_info() const noexcept {
    return RecoveryInfo{ckpt_loaded_, live_->replayed.load(std::memory_order_relaxed),
                        corrupt_ckpts_, wal_torn_};
  }
  const DurableOptions& options() const noexcept { return opt_; }
  /// Sequence of the last logged-and-applied operation.
  std::uint64_t op_seq() const noexcept {
    return live_->op_seq.load(std::memory_order_relaxed);
  }

  std::size_t size() const noexcept { return pq_.size(); }
  bool empty() const noexcept { return pq_.empty(); }
  std::size_t node_capacity() const noexcept { return pq_.node_capacity(); }

  bool check_invariants(std::string* why = nullptr) {
    return pq_.check_invariants(why);
  }

  /// Lock-free live state (the MetricsRegistry convention): the op
  /// sequence and the replay count live only here, so op_seq(),
  /// recovery_info() and the gauges read the same words. Recovery bumps
  /// `replayed` per applied record, so a scrape DURING a long replay shows
  /// advancing progress, not a stall.
  struct Live {
    std::atomic<std::uint64_t> op_seq{0};
    std::atomic<std::uint64_t> replayed{0};
    std::atomic<std::uint64_t> checkpoints{0};
    std::atomic<std::uint64_t> recovering{0};  ///< 1 while recover() runs
    /// Bytes this instance wrote to WAL segments, header frames included.
    /// A segment later pruned, or truncated by a rotation at the same op
    /// sequence (checkpoint_on_open right after recovery), still counts.
    std::atomic<std::uint64_t> wal_bytes{0};
  };

  const Live& live() const noexcept { return *live_; }

  /// Publishes durability gauges (op sequence, replay progress, checkpoint
  /// count, WAL bytes) in the process-wide MetricsRegistry under the `heap`
  /// label.
  void register_gauges(const std::string& heap = "durable") {
    gauges_.clear();
    static constexpr obs::GaugeField<Live> kFields[] = {
        {"durable_op_seq", "Last logged-and-applied operation sequence.", &Live::op_seq},
        {"durable_replayed", "WAL records applied by the current/last recovery.", &Live::replayed},
        {"durable_checkpoints", "Checkpoints published by this instance.", &Live::checkpoints},
        {"durable_recovering", "1 while a recovery pass is running.", &Live::recovering},
        {"durable_wal_bytes", "Bytes written to WAL segments, headers included.",
         &Live::wal_bytes},
    };
    gauges_.add_fields(live_.get(), {{"heap", heap}}, kFields);
  }

 private:
  // WAL-first with a repair path on both sides: a failed append truncates
  // itself (WalWriter); a PQ apply that throws AFTER the append un-logs the
  // record, so disk never claims an op memory refused.
  void log_op(RecType type, std::uint64_t k, std::span<const T> items) {
    pre_off_ = wal_->offset();
    wal_->append(type, op_seq() + 1, k, items);
  }

  template <typename Fn>
  void apply_guard(Fn&& fn) {
    try {
      fn();
    } catch (...) {
      wal_->truncate_to(pre_off_);
      throw;
    }
  }

  void finish_op() {
    set_op_seq(op_seq() + 1);
    publish_wal_bytes();
    ++ops_since_ckpt_;
    if (opt_.checkpoint_interval != 0 &&
        ops_since_ckpt_ >= opt_.checkpoint_interval) {
      checkpoint_now();  // injected failures swallowed inside (counted)
    }
  }

  /// The op sequence's one write site: a live op's finish, or recovery.
  void set_op_seq(std::uint64_t seq) noexcept {
    live_->op_seq.store(seq, std::memory_order_relaxed);
  }

  /// durable_wal_bytes' one write site: the closed segments' bytes plus the
  /// open segment's offset. A record un-logged by a failed op never reaches
  /// finish_op, so the gauge never counts it.
  void publish_wal_bytes() noexcept {
    live_->wal_bytes.store(closed_wal_bytes_ + wal_->offset(), std::memory_order_relaxed);
  }

  void rotate_wal() {
    if (wal_) closed_wal_bytes_ += wal_->offset();
    wal_.reset();  // close the old segment before the new one takes over
    const std::uint64_t seq = op_seq();
    wal_ = std::make_unique<WalWriter<T>>(opt_.dir + "/" + wal_filename(seq), seq,
                                          opt_.fsync);
    publish_wal_bytes();
  }

  /// Deletes checkpoints beyond the retention window and WAL segments that
  /// start before the oldest retained checkpoint (their records are all at
  /// or below its sequence). Best-effort: a failed unlink only delays reuse.
  void prune() {
    auto ckpts = list_checkpoints(opt_.dir);
    if (ckpts.size() > kKeepCheckpoints) {
      const std::size_t drop = ckpts.size() - kKeepCheckpoints;
      for (std::size_t i = 0; i < drop; ++i) ::unlink(ckpts[i].second.c_str());
      ckpts.erase(ckpts.begin(), ckpts.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    if (!ckpts.empty()) {
      const std::uint64_t floor_seq = ckpts.front().first;
      for (const auto& [sseq, spath] : list_wal_segments(opt_.dir)) {
        if (sseq < floor_seq) ::unlink(spath.c_str());
      }
    }
    if (opt_.fsync != FsyncPolicy::kNever) fsync_dir(opt_.dir);
  }

  /// Observer entry for both paths. The live mutators call it with their
  /// real outputs; apply_record calls it with the replay-regenerated ones.
  void notify(RecType type, std::uint64_t k, std::span<const T> items,
              std::span<const T> out) {
    if (observer_) observer_(type, k, items, out);
  }

  void apply_record(const WalRecord<T>& rec) {
    sink_.clear();
    switch (rec.type) {
      case RecType::kCycle:
        pq_.cycle(std::span<const T>(rec.items), rec.k, sink_);
        break;
      case RecType::kInsert:
        pq_.cycle(std::span<const T>(rec.items), 0, sink_);
        break;
      case RecType::kDelete:
        // Mirrors the live path: delete_min_batch chunks k into <= r-sized
        // steps, so a logged k may legally exceed the node capacity. A PQ
        // without that surface (ShardedHeap, reopening a WAL another layout
        // wrote) takes the same <= r-sized steps through cycle().
        if constexpr (requires(PQ& q, std::vector<T>& o) {
                        q.delete_min_batch(std::size_t{}, o);
                      }) {
          pq_.delete_min_batch(rec.k, sink_);
        } else {
          for (std::size_t left = rec.k; left > 0 && !pq_.empty();) {
            const std::size_t step = std::min(left, pq_.node_capacity());
            pq_.cycle(std::span<const T>(), step, sink_);
            left -= step;
          }
        }
        break;
      case RecType::kBuild:
        pq_.build(std::span<const T>(rec.items));
        break;
    }
    notify(rec.type, rec.k, std::span<const T>(rec.items),
           std::span<const T>(sink_));
  }

  void recover() {
    telemetry::SpanScope span(telemetry::Phase::kRecoverReplay);
    obs::flight(obs::FlightKind::kRecoveryStart);
    live_->recovering.store(1, std::memory_order_relaxed);
    std::error_code ec;
    std::filesystem::create_directories(opt_.dir, ec);
    if (ec) {
      throw PersistError("persist: cannot create " + opt_.dir + ": " + ec.message());
    }

    // 1. SWEEP stray tmp files.
    for (const auto& entry : std::filesystem::directory_iterator(opt_.dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
        ::unlink(entry.path().string().c_str());
      }
    }

    // 2. LOAD the newest valid checkpoint; quarantine rejects.
    std::uint64_t base = 0;
    bool loaded = false;
    auto ckpts = list_checkpoints(opt_.dir);
    for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
      CheckpointImage<T> img;
      std::uint64_t seq = 0;
      if (load_checkpoint(path_of(*it), img, seq) && seq == it->first) {
        from_image(pq_, img);
        base = seq;
        loaded = true;
        break;
      }
      ++corrupt_ckpts_;
      ::rename(path_of(*it).c_str(), (path_of(*it) + ".corrupt").c_str());
    }
    if (!loaded) pq_.build(std::span<const T>());
    ckpt_loaded_ = loaded;

    // A loaded checkpoint must be covered by the segment file set: every
    // publication rotates to a segment starting at the checkpoint's sequence
    // (and pruning only deletes segments below the oldest retained
    // checkpoint), so "no segment file at or below the checkpoint" can only
    // mean segment files were deleted out from under us — and with them,
    // possibly, acknowledged operations. That must be a loud failure, not a
    // silent heap frozen at the stale image. Coverage is judged by filename
    // alone: a zero-length or torn covering segment is the benign
    // crash-during-rotation case and stays recoverable.
    const auto segments = list_wal_segments(opt_.dir);
    if (loaded && base > 0) {
      bool covered = false;
      for (const auto& [sseq, spath] : segments) {
        if (sseq <= base) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        throw CorruptStateError(
            "persist: checkpoint " + std::to_string(base) + " in " + opt_.dir +
            " has no covering WAL segment (start <= " + std::to_string(base) +
            ") — segments were deleted; acknowledged ops may be lost");
      }
    }

    // 3. REPLAY the WAL tail.
    std::uint64_t expected = base;  // seq of the last applied op
    for (const auto& [sseq, spath] : segments) {
      const SegmentContents<T> seg = read_segment<T>(spath);
      if (!seg.header_ok) {
        // Unreadable segment: its records (if any existed) are gone. If they
        // mattered, a later record's sequence will jump and the hole check
        // below goes off; if they were all shadowed by the checkpoint, this
        // is a stale husk.
        wal_torn_ = true;
        continue;
      }
      for (const WalRecord<T>& rec : seg.records) {
        if (rec.seq <= expected) continue;  // shadowed by the checkpoint
        if (rec.seq != expected + 1) {
          throw CorruptStateError(
              "persist: WAL hole in " + spath + ": expected op " +
              std::to_string(expected + 1) + ", found op " +
              std::to_string(rec.seq) + " — acknowledged ops are missing");
        }
        robustness::fire_crash(robustness::FailSite::kRecoverReplay);
        apply_record(rec);
        expected = rec.seq;
        obs::bump(live_->replayed);
      }
      if (seg.torn_tail) wal_torn_ = true;
    }
    set_op_seq(expected);

    // 4. VERIFY the recovered state before acknowledging anything on top.
    std::string why;
    if (!verify_recovered(&why)) {
      throw CorruptStateError("persist: recovered state failed invariants: " + why);
    }

    // 5. REBASE: fresh checkpoint + fresh segment. Old files are never
    // mutated, so a crash anywhere in recovery replays identically.
    rotate_wal();
    if (opt_.checkpoint_on_open) checkpoint_now();
    live_->recovering.store(0, std::memory_order_relaxed);
    obs::flight(obs::FlightKind::kRecoveryDone, expected,
                live_->replayed.load(std::memory_order_relaxed));
  }

  bool verify_recovered(std::string* why) {
    if constexpr (requires(PQ& p) { p.verify_invariants(why); }) {
      return pq_.verify_invariants(why);
    } else {
      return pq_.check_invariants(why);
    }
  }

  static const std::string& path_of(const std::pair<std::uint64_t, std::string>& e) {
    return e.second;
  }

  PQ pq_;
  DurableOptions opt_;
  OpObserver observer_;
  // Initialized before the ctor body runs recover(); heap-allocated so the
  // wrapper stays movable and gauge callbacks hold a stable pointer.
  std::unique_ptr<Live> live_ = std::make_unique<Live>();
  obs::GaugeSet gauges_;
  std::unique_ptr<WalWriter<T>> wal_;
  std::size_t ops_since_ckpt_ = 0;
  std::uint64_t pre_off_ = 0;
  std::uint64_t closed_wal_bytes_ = 0;  ///< bytes of segments rotated away
  // RecoveryInfo's fields other than `replayed` (which lives in Live).
  bool ckpt_loaded_ = false;
  bool wal_torn_ = false;
  std::uint64_t corrupt_ckpts_ = 0;
  std::vector<T> sink_;  ///< replay scratch: regenerated outputs are discarded
};

}  // namespace ph::persist
