// ShardSupervisor — multi-process shard execution with per-shard recovery
// and kill-one-survivors-keep-cycling semantics (DESIGN.md §14).
//
// The supervisor presents the library's standard batch-PQ surface
// (cycle(fresh, k, out), bit-exact against a single-process oracle) while
// running each shard behind a Transport: a forked child process over a Unix
// socketpair (use_processes=true) or an in-process loopback (drills, tsan).
// Every shard backend owns its own durable directory (per-shard WAL +
// per-shard checkpoints via ShardServer), so one shard's death never
// invalidates another's state.
//
// A cycle decomposes into per-shard RPCs chosen so that NO acknowledged
// information exists only in a reply frame (protocol.hpp):
//
//   route    fresh items -> per-shard buckets (stateless value hash or
//            Config::router)
//   insert   one journaled kInsert per non-empty bucket
//   peek     read-only k-smallest prefix from every non-empty shard; the
//            union of prefixes provably contains the global k smallest
//   merge    k-way tournament picks the global winners and the per-shard
//            take counts
//   remove   one journaled kRemove{count} per contributing shard — the
//            removed items are exactly the winners already in hand
//
// Failure handling — detection, takeover, respawn, re-admission:
//
//   detect    a reply deadline, EOF/unframeable stream, send failure,
//             injected transport fault, waitpid() reap, or a PhaseWatchdog
//             stall verdict over the heartbeat channel
//   takeover  SIGKILL + reap what is left of the backend, then recover the
//             shard IN-PARENT from its own directory (ShardServer opening =
//             WAL recovery) and reconcile to the acknowledged op sequence
//             from the supervisor's journal of unpruned mutations; the
//             failed RPC is retried over the loopback — the cycle in
//             progress completes, survivors never notice
//   respawn   bounded retries with exponential backoff (kShardSpawn fail
//             point at each attempt); on success the fresh child recovers
//             from the same directory, its Hello is reconciled against the
//             journal, and the shard is re-admitted to process execution
//
// The journal is the supervisor's half of exactly-once: it holds every
// mutation since the shard's last acknowledged checkpoint (acks carry the
// checkpoint floor, pruning the prefix), so takeover replay plus the
// server-side "ack at-or-below op_seq without applying" rule make every
// retry idempotent. Determinism end to end: routing is a pure function of
// the value, the journal fixes the op stream, and total-order comparators
// make every delete-min multiset unique — hence bit-exact recovery.
#pragma once

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/sorted_ops.hpp"
#include "dist/protocol.hpp"
#include "dist/shard_server.hpp"
#include "dist/transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "persist/checkpoint.hpp"
#include "robustness/failpoint.hpp"
#include "robustness/watchdog.hpp"
#include "util/assert.hpp"

namespace ph::dist {

template <typename T, typename Compare = std::less<T>>
class ShardSupervisor {
 public:
  using value_type = T;

  /// A fail-point armed INSIDE spawned children only (the parent disarms a
  /// child's inherited mask at fork): per-child deterministic fault drills.
  struct ChildFault {
    robustness::FailSite site;
    robustness::FireSpec spec;
  };

  struct Config {
    std::size_t shards = 2;
    std::size_t node_capacity = 8;
    std::string dir;  ///< base durable directory; shards live in shard-<i>/
    persist::FsyncPolicy fsync = persist::FsyncPolicy::kOnCheckpoint;
    std::size_t checkpoint_interval = 16;  ///< per-shard, in applied mutations
    /// Value -> shard index (modulo is applied). Default: stateless byte
    /// hash, so routing is a pure function of the value across restarts.
    std::function<std::size_t(const T&)> router;
    bool use_processes = true;  ///< false: loopback backends (no fork)
    int reply_timeout_ms = 5000;
    int idle_beat_ms = 20;  ///< child heartbeat cadence while idle
    /// Consecutive in-cycle failovers of ONE shard before giving up loudly.
    std::size_t max_failovers_per_op = 3;
    /// Respawn attempts before the shard stays in-parent permanently.
    std::size_t max_spawn_retries = 5;
    std::uint64_t respawn_backoff_ns = 1'000'000;  ///< doubled per failure
    std::vector<ChildFault> child_faults;
    /// Injectable monotonic clock (ns); nullptr = steady_clock. Drives
    /// respawn backoff deadlines deterministically in tests.
    std::uint64_t (*clock)() = nullptr;
    Compare cmp{};
  };

  /// How a shard slot is currently executing.
  enum class BackendState : std::uint8_t {
    kProcess,    ///< child process over a socketpair
    kLoopback,   ///< configured in-process backend (use_processes=false)
    kTakenOver,  ///< recovered in-parent after a failure; respawn pending
    kDead,       ///< killed and not yet detected/taken over
  };

  struct Stats {
    std::uint64_t cycles = 0;
    std::uint64_t spawns = 0;          ///< successful backend spawns (initial + re)
    std::uint64_t respawns = 0;        ///< successful re-admissions after takeover
    std::uint64_t spawn_retries = 0;   ///< failed spawn attempts
    std::uint64_t takeovers = 0;       ///< in-parent recoveries
    std::uint64_t kills = 0;           ///< kill_shard() invocations
    std::uint64_t deaths = 0;          ///< child processes reaped dead
    std::uint64_t stall_verdicts = 0;  ///< watchdog-driven failovers
    std::uint64_t transport_faults = 0;///< injected transport failures absorbed
    std::uint64_t beats = 0;           ///< heartbeats observed
    std::uint64_t journal_replayed = 0;///< journal ops re-applied at takeovers
    std::uint64_t resent = 0;          ///< journal ops resent at re-admission
    std::uint64_t degraded_cycles = 0; ///< cycles completed while degraded
  };

  explicit ShardSupervisor(Config cfg) : cfg_(std::move(cfg)) {
    PH_ASSERT_MSG(cfg_.shards >= 1, "ShardSupervisor: need at least one shard");
    PH_ASSERT_MSG(!cfg_.dir.empty(), "ShardSupervisor: empty durable directory");
    if (cfg_.max_failovers_per_op == 0) cfg_.max_failovers_per_op = 1;
    std::error_code ec;
    std::filesystem::create_directories(cfg_.dir, ec);
    if (ec) {
      throw persist::PersistError("dist: cannot create " + cfg_.dir + ": " +
                                  ec.message());
    }
    slots_.resize(cfg_.shards);
    route_.resize(cfg_.shards);
    peeks_.resize(cfg_.shards);
    take_.resize(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      try {
        spawn_backend(s);
      } catch (const robustness::InjectedFailure& f) {
        // Injected spawn failure at construction: recover the (empty) shard
        // in-parent and let poll() keep retrying the real backend.
        note_spawn_failure(s);
        takeover_shard(s);
        robustness::note_recovery(f.site);
      }
    }
  }

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  ~ShardSupervisor() {
    for (Slot& sl : slots_) {
      if (sl.tr) {
        // Best-effort clean shutdown; SIGKILL + reap is the backstop (and
        // loses nothing: acknowledged state is on disk/page cache).
        encode_msg(Msg<T>{MsgType::kShutdown, 0, 0, 0, {}}, tx_);
        (void)sl.tr->send_frame(tx_);
        sl.tr->close();
      }
      reap(sl, /*kill_first=*/true);
    }
  }

  // ------------------------------------------------------------- main surface

  /// The standard batch-PQ cycle, distributed. Bit-exact against a
  /// single-process heap fed the same call stream, regardless of kills,
  /// dropped heartbeats, or injected transport faults along the way.
  std::size_t cycle(std::span<const T> fresh, std::size_t k, std::vector<T>& out) {
    poll();
    obs::bump(live_->cycles);
    obs::flight(obs::FlightKind::kCycle,
                live_->cycles.load(std::memory_order_relaxed), fresh.size());

    const std::size_t K = slots_.size();
    for (auto& b : route_) b.clear();
    for (const T& v : fresh) route_[route_of(v)].push_back(v);
    for (std::size_t s = 0; s < K; ++s) {
      if (route_[s].empty()) continue;
      mutate(s, Msg<T>{MsgType::kInsert, slots_[s].acked + 1, 0, 0, route_[s]});
    }

    std::size_t removed = 0;
    if (k > 0) {
      for (std::size_t s = 0; s < K; ++s) {
        peeks_[s].clear();
        take_[s] = 0;
        if (slots_[s].size == 0) continue;
        Msg<T> rep = rpc(s, Msg<T>{MsgType::kPeek, 0, k, 0, {}});
        if (rep.type != MsgType::kPeekReply) {
          throw persist::PersistError("dist: shard " + std::to_string(s) +
                                      " answered peek with " +
                                      msg_type_name(rep.type));
        }
        peeks_[s] = std::move(rep.items);
      }
      // K-way tournament over the per-shard sorted prefixes: the k global
      // winners (ascending) go to `out`, per-shard counts to take_. Ties
      // break by shard index — any total tie-break yields the same multiset.
      runs_.assign(peeks_.begin(), peeks_.end());
      removed = merge_k(std::span<const std::span<const T>>(runs_), k,
                        std::span<std::size_t>(take_), &out, cmp_);
      for (std::size_t s = 0; s < K; ++s) {
        if (take_[s] == 0) continue;
        mutate(s, Msg<T>{MsgType::kRemove, slots_[s].acked + 1, take_[s], 0, {}});
      }
    }
    // Counted at completion, not entry: a mid-cycle takeover makes THIS the
    // first degraded cycle, independent of how fast poll() respawns later.
    if (degraded()) obs::bump(live_->degraded_cycles);
    update_live();
    return removed;
  }

  /// Replaces all content: routed build via per-shard inserts over empty
  /// shards (callers use it only on a fresh supervisor, mirroring build()).
  void build(std::span<const T> items) {
    std::vector<T> sink;
    cycle(items, 0, sink);
  }

  /// Detection + maintenance pass (also runs at every cycle() entry): reaps
  /// dead children, drains pending heartbeats, converts watchdog stall
  /// verdicts into failovers, and attempts due respawns. Ends by refreshing
  /// the Live state mirrors, so a standalone poll() leaves the dist_* gauges
  /// current.
  void poll() {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      Slot& sl = slots_[s];
      if (sl.state == BackendState::kDead) {
        // A loopback backend killed out-of-band has no fd to go EOF: the
        // maintenance pass is its detector.
        fail_shard(s);
      }
      if (sl.state == BackendState::kProcess && sl.pid > 0) {
        int status = 0;
        const ::pid_t r = ::waitpid(sl.pid, &status, WNOHANG);
        if (r == sl.pid) {
          sl.pid = 0;
          fail_shard(s, /*reaped=*/true);
          continue;
        }
        drain_beats(s);
      }
      if (wd_ != nullptr && sl.wd_ch != kNoChannel &&
          sl.state != BackendState::kDead &&
          wd_->consecutive_stalls(sl.wd_ch) >= polls_to_failover_) {
        obs::bump(live_->stall_verdicts);
        fail_shard(s);
        if (robustness::armed(robustness::FailSite::kHeartbeatDrop)) {
          robustness::note_recovery(robustness::FailSite::kHeartbeatDrop);
        }
      }
      maybe_respawn(s);
    }
    update_live();
  }

  /// Simulated external kill: SIGKILLs the shard's child (or, for loopback
  /// backends, destroys the backend outright). Detection is deliberately
  /// NOT synchronous — the next poll()/RPC must notice, exactly as it would
  /// for a `kill -9` from a terminal.
  void kill_shard(std::size_t s) {
    Slot& sl = slots_[s];
    obs::bump(live_->kills);
    if (sl.pid > 0) {
      ::kill(sl.pid, SIGKILL);
      return;
    }
    sl.tr.reset();
    sl.local.reset();
    sl.state = BackendState::kDead;
  }

  /// Forces a checkpoint on every live shard (journal prune follows acks).
  void checkpoint_all() {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      const Msg<T> rep = rpc(s, Msg<T>{MsgType::kCheckpoint, 0, 0, 0, {}});
      prune_journal(s, rep.b);
    }
  }

  // ------------------------------------------------------------ observability

  std::size_t shards() const noexcept { return slots_.size(); }
  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Slot& sl : slots_) n += sl.size;
    return n;
  }
  bool empty() const noexcept { return size() == 0; }
  /// The supervisor's counters, read from their one copy in the Live block.
  Stats stats() const noexcept {
    const Live& lv = *live_;
    auto get = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    return Stats{get(lv.cycles),         get(lv.spawns),
                 get(lv.respawns),       get(lv.spawn_retries),
                 get(lv.takeovers),      get(lv.kills),
                 get(lv.deaths),         get(lv.stall_verdicts),
                 get(lv.transport_faults), get(lv.beats),
                 get(lv.journal_replayed), get(lv.resent),
                 get(lv.degraded_cycles)};
  }
  BackendState backend_state(std::size_t s) const noexcept {
    return slots_[s].state;
  }
  ::pid_t shard_pid(std::size_t s) const noexcept { return slots_[s].pid; }
  std::uint64_t shard_op_seq(std::size_t s) const noexcept {
    return slots_[s].acked;
  }
  /// True while any shard executes somewhere other than its configured
  /// backend (survivors keep cycling; this flags the window).
  bool degraded() const noexcept {
    for (const Slot& sl : slots_) {
      if (sl.state == BackendState::kTakenOver ||
          sl.state == BackendState::kDead) {
        return true;
      }
    }
    return false;
  }

  bool check_invariants(std::string* why = nullptr) {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      Slot& sl = slots_[s];
      if (sl.local && !sl.local->check_invariants(why)) return false;
      if (sl.state != BackendState::kDead && sl.local &&
          sl.local->op_seq() != sl.acked) {
        if (why != nullptr) {
          *why = "shard " + std::to_string(s) + " op seq " +
                 std::to_string(sl.local->op_seq()) + " != acked " +
                 std::to_string(sl.acked);
        }
        return false;
      }
    }
    return true;
  }

  /// Heartbeats feed one watchdog channel per shard; `polls_to_failover`
  /// consecutive stalled polls convert into a failover (mirrors
  /// ShardedHeap::attach_watchdog).
  void attach_watchdog(robustness::PhaseWatchdog& wd,
                       std::uint32_t polls_to_failover = 2) {
    wd_ = &wd;
    polls_to_failover_ =
        polls_to_failover == 0 ? 1 : polls_to_failover;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      slots_[s].wd_ch = wd.add_channel("dist-shard-" + std::to_string(s));
    }
  }

  /// Lock-free live state for gauge callbacks (ShardedHeap::Live
  /// convention). The state mirrors are refreshed at the end of every
  /// cycle() and poll(); the Stats counters are the counters themselves,
  /// bumped by the driver as each event happens.
  struct Live {
    std::atomic<std::uint64_t> total_size{0};
    std::atomic<std::uint64_t> degraded{0};  ///< 1 while any shard is degraded
    std::atomic<std::uint64_t> process_backends{0};
    // Stats, field for field.
    std::atomic<std::uint64_t> cycles{0}, spawns{0}, respawns{0},
        spawn_retries{0}, takeovers{0}, kills{0}, deaths{0}, stall_verdicts{0},
        transport_faults{0}, beats{0}, journal_replayed{0}, resent{0},
        degraded_cycles{0};
  };
  const Live& live() const noexcept { return *live_; }

  void register_gauges(const std::string& heap = "dist") {
    gauges_.clear();
    static constexpr obs::GaugeField<Live> kFields[] = {
        {"dist_total_size", "Items across all supervised shards.", &Live::total_size},
        {"dist_cycles", "Distributed cycles completed.", &Live::cycles},
        {"dist_takeovers", "In-parent shard takeovers after failures.", &Live::takeovers},
        {"dist_respawns", "Shard processes respawned and re-admitted.", &Live::respawns},
        {"dist_deaths", "Shard child processes reaped dead.", &Live::deaths},
        {"dist_stall_verdicts", "Watchdog verdicts converted to failovers.", &Live::stall_verdicts},
        {"dist_degraded", "1 while any shard runs off its configured backend.", &Live::degraded},
        {"dist_process_backends", "Shards currently executing in child processes.", &Live::process_backends},
    };
    gauges_.add_fields(live_.get(), {{"heap", heap}}, kFields);
  }

 private:
  static constexpr std::size_t kNoChannel = static_cast<std::size_t>(-1);

  /// One journaled mutation: everything needed to re-apply it at takeover
  /// or resend it at re-admission. Removes carry only the count — their
  /// output is deterministic (the count smallest) and already known.
  struct JournalOp {
    MsgType type;
    std::uint64_t seq;
    std::uint64_t count;  ///< kRemove only
    std::vector<T> items; ///< kInsert only
  };

  struct Slot {
    BackendState state = BackendState::kDead;
    ::pid_t pid = 0;
    std::unique_ptr<Transport> tr;
    std::unique_ptr<ShardServer<T, Compare>> local;  ///< loopback/takeover
    std::uint64_t acked = 0;  ///< highest acknowledged op sequence
    std::size_t size = 0;     ///< from the last ack/hello
    std::deque<JournalOp> journal;
    std::size_t wd_ch = kNoChannel;
    std::size_t spawn_attempts = 0;      ///< consecutive failed (re)spawns
    std::uint64_t next_respawn_at = 0;   ///< clock deadline for the next try
  };

  std::uint64_t clock_now() const noexcept {
    if (cfg_.clock != nullptr) return cfg_.clock();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  std::size_t route_of(const T& v) const {
    if (cfg_.router) return cfg_.router(v) % slots_.size();
    // Stateless FNV-1a over the value bytes: the same value routes to the
    // same shard in every run and after every recovery.
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
    return static_cast<std::size_t>(h % slots_.size());
  }

  typename ShardServer<T, Compare>::Config server_config(std::size_t s) const {
    return {persist::shard_dir(cfg_.dir, s), cfg_.node_capacity, cfg_.fsync,
            cfg_.checkpoint_interval, cfg_.cmp};
  }

  // ----------------------------------------------------------- spawn / child

  /// Creates the configured backend for slot `s` and completes the
  /// handshake/reconciliation. Throws InjectedFault (kShardSpawn) or
  /// PersistError on failure; the slot is left backend-less.
  void spawn_backend(std::size_t s) {
    Slot& sl = slots_[s];
    robustness::fire_fault(robustness::FailSite::kShardSpawn);
    Msg<T> hello;
    if (cfg_.use_processes) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw persist::PersistError(std::string("dist: socketpair failed: ") +
                                    std::strerror(errno));
      }
      const ::pid_t pid = ::fork();
      if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw persist::PersistError(std::string("dist: fork failed: ") +
                                    std::strerror(errno));
      }
      if (pid == 0) child_main(s, fds[1], fds[0]);  // never returns
      ::close(fds[1]);
      sl.tr = std::make_unique<SocketTransport>(fds[0]);
      sl.pid = pid;
      sl.state = BackendState::kProcess;
      // The Hello deadline is generous: opening IS recovery, and a long WAL
      // replay is legitimate work, not a stall.
      hello = await_hello(s);
    } else {
      sl.local = std::make_unique<ShardServer<T, Compare>>(server_config(s));
      sl.tr = make_loopback(s);
      sl.pid = 0;
      sl.state = BackendState::kLoopback;
      hello = sl.local->hello();
    }
    reconcile(s, hello);
    obs::bump(live_->spawns);
    obs::flight(obs::FlightKind::kShardProcSpawn, s,
                static_cast<std::uint64_t>(sl.pid));
  }

  [[noreturn]] void child_main(std::size_t s, int child_fd, int parent_fd) {
    ::close(parent_fd);
    // Drop inherited peer fds of the OTHER shards: holding a sibling's
    // socket open would mask its EOF when it dies.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (i != s && slots_[i].tr) slots_[i].tr->close();
    }
    // The forked image inherits the parent's armed mask and crash hook;
    // a child is its OWN fault domain — only child_faults apply here.
    robustness::disarm_all();
    robustness::set_crash_hook([](robustness::FailSite) {
      const char* dir = std::getenv("PH_FLIGHTREC_DIR");
      if (dir != nullptr && dir[0] != '\0') {
        obs::FlightRecorder::instance().dump_to_file("shard-crash");
      }
      std::_Exit(41);
    });
    for (const ChildFault& f : cfg_.child_faults) {
      robustness::arm(f.site, f.spec);
    }
    SocketTransport tr(child_fd);
    try {
      ShardServer<T, Compare> server(server_config(s));
      run_shard_child(server, tr, cfg_.idle_beat_ms);
    } catch (const robustness::InjectedFailure&) {
      std::_Exit(40);
    } catch (...) {
      std::_Exit(3);
    }
  }

  Msg<T> await_hello(std::size_t s) {
    Slot& sl = slots_[s];
    Msg<T> m;
    while (true) {
      const RecvStatus st = sl.tr->recv_frame(rx_, cfg_.reply_timeout_ms);
      if (st != RecvStatus::kOk || !decode_msg(rx_, m)) {
        throw persist::PersistError("dist: shard " + std::to_string(s) +
                                    " failed its hello handshake");
      }
      if (m.type == MsgType::kBeat) {
        note_beat(s);
        continue;
      }
      if (m.type != MsgType::kHello) {
        throw persist::PersistError("dist: shard " + std::to_string(s) +
                                    " sent " + msg_type_name(m.type) +
                                    " instead of hello");
      }
      return m;
    }
  }

  /// Brings a freshly recovered backend level with the acknowledged op
  /// sequence by resending the journal suffix it is missing. A backend that
  /// recovered PAST our journal's reach means acknowledged ops were lost on
  /// disk out from under us — loud failure.
  void reconcile(std::size_t s, const Msg<T>& hello) {
    Slot& sl = slots_[s];
    if (sl.acked == 0 && sl.journal.empty() && hello.a > 0) {
      // A fresh supervisor adopting a pre-existing durable directory: the
      // backend's recovered sequence IS the baseline. (An in-flight first
      // op would have left a journal entry, so this cannot swallow one.)
      sl.acked = hello.a;
    }
    std::uint64_t resent = 0;
    if (hello.a < sl.acked) {
      for (const JournalOp& op : sl.journal) {
        if (op.seq <= hello.a || op.seq > sl.acked) continue;
        const Msg<T> rep = backend_roundtrip(s, to_msg(op));
        if (rep.type != MsgType::kAck) {
          throw persist::PersistError(
              "dist: shard " + std::to_string(s) +
              " rejected journal resend of op " + std::to_string(op.seq));
        }
        ++resent;
      }
      // Every hole below the journal floor would have been skipped silently
      // above; the final sequence check catches exactly that.
    }
    const std::uint64_t now_seq = hello.a < sl.acked
                                      ? probe_op_seq(s)
                                      : hello.a;
    if (now_seq < sl.acked) {
      throw persist::PersistError(
          "dist: shard " + std::to_string(s) + " recovered to op " +
          std::to_string(now_seq) + " < acknowledged " +
          std::to_string(sl.acked) + " — acknowledged ops were lost");
    }
    // now_seq == acked + 1 is legal: an in-flight op was logged before the
    // failure; the retry will be acknowledged-without-applying.
    sl.size = static_cast<std::size_t>(probe_size(s, hello));
    obs::bump(live_->resent, resent);
    note_beat(s);
  }

  Msg<T> to_msg(const JournalOp& op) const {
    if (op.type == MsgType::kInsert) {
      return Msg<T>{MsgType::kInsert, op.seq, 0, 0, op.items};
    }
    return Msg<T>{MsgType::kRemove, op.seq, op.count, 0, {}};
  }

  /// One framed request/reply against the CURRENT backend, no failover (used
  /// inside handshakes, where a failure fails the spawn attempt itself).
  Msg<T> backend_roundtrip(std::size_t s, const Msg<T>& req) {
    Slot& sl = slots_[s];
    encode_msg(req, tx_);
    if (!sl.tr->send_frame(tx_)) {
      throw persist::PersistError("dist: shard " + std::to_string(s) +
                                  " dropped a handshake frame");
    }
    Msg<T> rep;
    while (true) {
      const RecvStatus st = sl.tr->recv_frame(rx_, cfg_.reply_timeout_ms);
      if (st != RecvStatus::kOk || !decode_msg(rx_, rep)) {
        throw persist::PersistError("dist: shard " + std::to_string(s) +
                                    " went silent mid-handshake");
      }
      if (rep.type == MsgType::kBeat) {
        note_beat(s);
        continue;
      }
      return rep;
    }
  }

  std::uint64_t probe_op_seq(std::size_t s) {
    const Msg<T> rep = backend_roundtrip(s, Msg<T>{MsgType::kPeek, 0, 0, 0, {}});
    return rep.a;
  }
  std::uint64_t probe_size(std::size_t s, const Msg<T>& hello) {
    if (slots_[s].journal.empty() && hello.a == slots_[s].acked) return hello.c;
    const Msg<T> rep = backend_roundtrip(s, Msg<T>{MsgType::kPeek, 0, 0, 0, {}});
    return rep.c;
  }

  std::unique_ptr<Transport> make_loopback(std::size_t s) {
    auto lb = std::make_unique<LoopbackTransport>();
    lb->set_handler([this, s](std::span<const std::uint8_t> payload,
                              std::vector<std::vector<std::uint8_t>>& replies) {
      Slot& sl = slots_[s];
      Msg<T> req;
      if (!sl.local || !decode_msg(payload, req)) return;  // dead backend
      const Msg<T> rep = sl.local->handle(req);
      std::vector<std::uint8_t> buf;
      if (sl.local->want_beat()) {
        encode_msg(Msg<T>{MsgType::kBeat, sl.local->op_seq(), 0, 0, {}}, buf);
        replies.push_back(buf);
      }
      encode_msg(rep, buf);
      replies.push_back(std::move(buf));
    });
    return lb;
  }

  // ------------------------------------------------- failure / takeover path

  void reap(Slot& sl, bool kill_first) {
    if (sl.pid <= 0) return;
    if (kill_first) ::kill(sl.pid, SIGKILL);
    int status = 0;
    while (::waitpid(sl.pid, &status, 0) < 0 && errno == EINTR) {
    }
    sl.pid = 0;
  }

  /// Failure verdict for shard `s`: put the backend down for good, recover
  /// in-parent, reconcile to the acknowledged sequence. Survivors are not
  /// touched; the caller retries whatever RPC was in flight. A child process
  /// counts as one death, whether poll() already reaped it (`reaped`) or
  /// this verdict kills it.
  void fail_shard(std::size_t s, bool reaped = false) {
    Slot& sl = slots_[s];
    obs::flight(obs::FlightKind::kShardProcDeath, s,
                static_cast<std::uint64_t>(sl.pid));
    if (reaped || sl.pid > 0) obs::bump(live_->deaths);
    if (sl.pid > 0) reap(sl, /*kill_first=*/true);
    if (sl.tr) sl.tr->close();
    sl.tr.reset();
    sl.local.reset();
    sl.state = BackendState::kDead;
    takeover_shard(s);
  }

  /// In-parent recovery: open this shard's directory (WAL replay inside),
  /// re-apply the journal suffix the disk is missing, serve via loopback.
  void takeover_shard(std::size_t s) {
    Slot& sl = slots_[s];
    sl.tr.reset();
    sl.local = std::make_unique<ShardServer<T, Compare>>(server_config(s));
    std::uint64_t replayed = 0;
    for (const JournalOp& op : sl.journal) {
      if (op.seq <= sl.local->op_seq() || op.seq > sl.acked) continue;
      const Msg<T> rep = sl.local->handle(to_msg(op));
      if (rep.type != MsgType::kAck) {
        throw persist::PersistError(
            "dist: takeover of shard " + std::to_string(s) +
            " hit a journal hole at op " + std::to_string(op.seq));
      }
      ++replayed;
    }
    if (sl.local->op_seq() < sl.acked) {
      throw persist::PersistError(
          "dist: takeover of shard " + std::to_string(s) + " reached op " +
          std::to_string(sl.local->op_seq()) + " < acknowledged " +
          std::to_string(sl.acked) + " — acknowledged ops were lost");
    }
    sl.size = sl.local->size();
    sl.tr = make_loopback(s);
    sl.state = BackendState::kTakenOver;
    sl.next_respawn_at = clock_now() + backoff_ns(sl.spawn_attempts);
    obs::bump(live_->takeovers);
    obs::bump(live_->journal_replayed, replayed);
    note_beat(s);
    obs::flight(obs::FlightKind::kShardTakeover, s, replayed);
  }

  std::uint64_t backoff_ns(std::size_t attempts) const noexcept {
    const std::size_t shift = attempts < 20 ? attempts : 20;
    return cfg_.respawn_backoff_ns << shift;
  }

  void note_spawn_failure(std::size_t s) {
    Slot& sl = slots_[s];
    obs::bump(live_->spawn_retries);
    ++sl.spawn_attempts;
    sl.next_respawn_at = clock_now() + backoff_ns(sl.spawn_attempts);
  }

  /// Attempts a due respawn of a degraded shard: close the in-parent
  /// backend (its directory must be free for the child), spawn, handshake,
  /// reconcile. Any failure re-takes the shard over and backs off.
  void maybe_respawn(std::size_t s) {
    Slot& sl = slots_[s];
    if (sl.state != BackendState::kTakenOver) return;
    if (sl.spawn_attempts >= cfg_.max_spawn_retries) return;  // permanent
    if (clock_now() < sl.next_respawn_at) return;
    const bool was_faulted = sl.spawn_attempts > 0;
    sl.tr.reset();
    sl.local.reset();
    try {
      spawn_backend(s);
    } catch (const robustness::InjectedFailure&) {
      note_spawn_failure(s);
      takeover_shard(s);
      return;
    } catch (const persist::PersistError&) {
      note_spawn_failure(s);
      takeover_shard(s);
      return;
    }
    obs::bump(live_->respawns);
    if (was_faulted && robustness::armed(robustness::FailSite::kShardSpawn)) {
      robustness::note_recovery(robustness::FailSite::kShardSpawn);
    }
    sl.spawn_attempts = 0;
    obs::flight(obs::FlightKind::kShardReadmit, s,
                static_cast<std::uint64_t>(slots_[s].pid));
  }

  // ------------------------------------------------------------ RPC machinery

  /// Journaled mutation: append to the journal FIRST (so a takeover during
  /// the RPC can replay/retry it), then push it through rpc() and account
  /// the ack.
  void mutate(std::size_t s, Msg<T> req) {
    Slot& sl = slots_[s];
    PH_ASSERT(req.a == sl.acked + 1);
    if (req.type == MsgType::kInsert) {
      sl.journal.push_back(JournalOp{MsgType::kInsert, req.a, 0, req.items});
    } else {
      sl.journal.push_back(JournalOp{MsgType::kRemove, req.a, req.b, {}});
    }
    const Msg<T> rep = rpc(s, req);
    if (rep.type != MsgType::kAck || rep.a < req.a) {
      throw persist::PersistError("dist: shard " + std::to_string(s) +
                                  " failed to acknowledge op " +
                                  std::to_string(req.a));
    }
    sl.acked = req.a;
    sl.size = static_cast<std::size_t>(rep.c);
    prune_journal(s, rep.b);
  }

  void prune_journal(std::size_t s, std::uint64_t ckpt_seq) {
    auto& j = slots_[s].journal;
    while (!j.empty() && j.front().seq <= ckpt_seq) j.pop_front();
  }

  /// Request/reply with failover: any transport-level failure (deadline,
  /// EOF, bad frame, injected fault) kills + takes over the shard and
  /// retries against the recovered backend, up to max_failovers_per_op.
  Msg<T> rpc(std::size_t s, const Msg<T>& req) {
    for (std::size_t attempt = 0; attempt <= cfg_.max_failovers_per_op;
         ++attempt) {
      Slot& sl = slots_[s];
      if (sl.state == BackendState::kDead || !sl.tr) {
        fail_shard(s);
      }
      std::optional<robustness::FailSite> injected;
      Msg<T> rep;
      bool ok = false;
      try {
        ok = attempt_rpc(s, req, rep);
      } catch (const robustness::InjectedFailure& f) {
        obs::bump(live_->transport_faults);
        injected = f.site;
      }
      if (ok) return rep;
      fail_shard(s);
      if (injected.has_value()) robustness::note_recovery(*injected);
    }
    throw persist::PersistError("dist: shard " + std::to_string(s) +
                                " still failing after " +
                                std::to_string(cfg_.max_failovers_per_op) +
                                " failovers — giving up loudly");
  }

  /// One attempt against the current backend. False = transport-level
  /// failure (failover material). Throws on protocol divergence (kError):
  /// that is corruption, not something a respawn can fix.
  bool attempt_rpc(std::size_t s, const Msg<T>& req, Msg<T>& rep) {
    Slot& sl = slots_[s];
    encode_msg(req, tx_);
    if (!sl.tr->send_frame(tx_)) return false;
    while (true) {
      const RecvStatus st = sl.tr->recv_frame(rx_, cfg_.reply_timeout_ms);
      if (st != RecvStatus::kOk) return false;
      if (!decode_msg(rx_, rep)) return false;
      if (rep.type == MsgType::kBeat) {
        note_beat(s);
        continue;
      }
      if (rep.type == MsgType::kError) {
        throw persist::PersistError(
            "dist: shard " + std::to_string(s) + " protocol divergence: " +
            "expected op " + std::to_string(rep.a) + ", supervisor sent " +
            std::to_string(rep.b));
      }
      // Deliberately NOT a beat: liveness is carried only by kBeat frames
      // (which kHeartbeatDrop suppresses server-side), so a shard whose
      // heartbeat path is broken escalates through the watchdog even while
      // request traffic still flows.
      return true;
    }
  }

  /// Drains heartbeats a child pushed while the supervisor was elsewhere.
  void drain_beats(std::size_t s) {
    Slot& sl = slots_[s];
    while (sl.tr) {
      const RecvStatus st = sl.tr->recv_frame(rx_, 0);
      if (st == RecvStatus::kTimeout) return;
      if (st == RecvStatus::kClosed) {
        fail_shard(s);
        return;
      }
      Msg<T> m;
      if (decode_msg(rx_, m) && m.type == MsgType::kBeat) note_beat(s);
      // Anything else here is a stray reply from a failed-over attempt;
      // sequence-numbered retries already made it harmless.
    }
  }

  void note_beat(std::size_t s) {
    obs::bump(live_->beats);
    Slot& sl = slots_[s];
    if (wd_ != nullptr && sl.wd_ch != kNoChannel) wd_->beat(sl.wd_ch);
  }

  /// Refreshes Live's state mirrors (size, degraded flag, process count)
  /// from the slots. End of cycle() and poll().
  void update_live() noexcept {
    Live& lv = *live_;
    lv.total_size.store(size(), std::memory_order_relaxed);
    lv.degraded.store(degraded() ? 1 : 0, std::memory_order_relaxed);
    std::uint64_t procs = 0;
    for (const Slot& sl : slots_) {
      if (sl.state == BackendState::kProcess) ++procs;
    }
    lv.process_backends.store(procs, std::memory_order_relaxed);
  }

  Config cfg_;
  Compare cmp_{cfg_.cmp};
  std::vector<Slot> slots_;
  std::vector<std::vector<T>> route_;
  std::vector<std::vector<T>> peeks_;
  std::vector<std::span<const T>> runs_;
  std::vector<std::size_t> take_;
  std::vector<std::uint8_t> tx_;
  std::vector<std::uint8_t> rx_;
  robustness::PhaseWatchdog* wd_ = nullptr;
  std::uint32_t polls_to_failover_ = 2;
  std::unique_ptr<Live> live_ = std::make_unique<Live>();
  obs::GaugeSet gauges_;
};

}  // namespace ph::dist
