// Shard server: the backend behind one supervised shard (DESIGN.md §14).
//
// Each shard owns a PipelinedParallelHeap wrapped in DurableHeap on its OWN
// durable directory (`shard_dir(base, i)`): per-shard WAL segments, per-shard
// checkpoints, per-shard recovery — no monolithic image, no cross-shard
// coupling. The server itself is carrier-agnostic: handle() maps one decoded
// request to one reply, and the same object serves a forked child's socket
// loop (run_shard_child) and the supervisor's in-parent takeover loopback.
//
// Sequencing contract (the recovery linchpin): mutations carry an op
// sequence assigned by the supervisor; the server applies seq == op_seq+1,
// acknowledges-WITHOUT-applying seq <= op_seq (a post-failover retry of an
// op the WAL already holds), and answers anything else with kError — a
// sequence the supervisor has no journal for can only mean divergence, and
// divergence must be loud. Peeks are read-only (delete-then-reinsert on the
// inner heap, net-zero multiset change, never logged), so replies lost with
// a dying process never contain unrecoverable state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "dist/protocol.hpp"
#include "dist/transport.hpp"
#include "persist/recovery.hpp"
#include "robustness/failpoint.hpp"

namespace ph::dist {

template <typename T, typename Compare = std::less<T>>
class ShardServer {
 public:
  using Heap = ph::PipelinedParallelHeap<T, Compare>;

  struct Config {
    std::string dir;  ///< this shard's own durable directory
    std::size_t node_capacity = 8;
    persist::FsyncPolicy fsync = persist::FsyncPolicy::kOnCheckpoint;
    /// Checkpoint after this many applied mutations (0 = only on request).
    std::size_t checkpoint_interval = 16;
    Compare cmp{};
  };

  /// Opening IS recovery: DurableHeap's SWEEP→LOAD→REPLAY→VERIFY→REBASE runs
  /// over this shard's directory alone.
  explicit ShardServer(const Config& cfg)
      : cfg_(cfg),
        q_(Heap(cfg.node_capacity, cfg.cmp),
           persist::DurableOptions{cfg.dir, cfg.fsync, /*checkpoint_interval=*/0,
                                   /*checkpoint_on_open=*/true}) {
    last_ckpt_seq_ = q_.op_seq();
  }

  Msg<T> hello() const {
    return Msg<T>{MsgType::kHello, q_.op_seq(), last_ckpt_seq_, q_.size(), {}};
  }

  /// True unless the kHeartbeatDrop fail point eats this beat — the drill
  /// for "shard alive but its liveness signal lost".
  bool want_beat() noexcept {
    return !robustness::fire(robustness::FailSite::kHeartbeatDrop);
  }

  Msg<T> handle(const Msg<T>& req) {
    switch (req.type) {
      case MsgType::kInsert: {
        if (const auto dup = check_seq(req); dup.has_value()) return *dup;
        q_.insert_batch(std::span<const T>(req.items));
        return finish_mutation();
      }
      case MsgType::kRemove: {
        if (const auto dup = check_seq(req); dup.has_value()) return *dup;
        scratch_.clear();
        q_.delete_min_batch(static_cast<std::size_t>(req.b), scratch_);
        return finish_mutation();
      }
      case MsgType::kPeek: {
        scratch_.clear();
        q_.heap().delete_min_batch(static_cast<std::size_t>(req.b), scratch_);
        q_.heap().insert_batch(std::span<const T>(scratch_));
        return Msg<T>{MsgType::kPeekReply, q_.op_seq(), 0, q_.size(), scratch_};
      }
      case MsgType::kCheckpoint: {
        if (q_.checkpoint_now()) last_ckpt_seq_ = q_.op_seq();
        return ack();
      }
      case MsgType::kShutdown:
        return ack();
      default:
        return Msg<T>{MsgType::kError, q_.op_seq() + 1,
                      static_cast<std::uint64_t>(req.type), 0, {}};
    }
  }

  std::uint64_t op_seq() const noexcept { return q_.op_seq(); }
  std::uint64_t last_ckpt_seq() const noexcept { return last_ckpt_seq_; }
  std::size_t size() const noexcept { return q_.size(); }
  persist::RecoveryInfo recovery_info() const noexcept {
    return q_.recovery_info();
  }
  bool check_invariants(std::string* why = nullptr) {
    return q_.check_invariants(why);
  }

 private:
  Msg<T> ack() const {
    return Msg<T>{MsgType::kAck, q_.op_seq(), last_ckpt_seq_, q_.size(), {}};
  }

  /// nullopt: apply it. An ack: duplicate, already applied (idempotent
  /// retry). An error: a future/held-back sequence — divergence.
  std::optional<Msg<T>> check_seq(const Msg<T>& req) const {
    if (req.a <= q_.op_seq()) return ack();
    if (req.a == q_.op_seq() + 1) return std::nullopt;
    return Msg<T>{MsgType::kError, q_.op_seq() + 1, req.a, 0, {}};
  }

  Msg<T> finish_mutation() {
    ++ops_since_ckpt_;
    if (cfg_.checkpoint_interval != 0 &&
        ops_since_ckpt_ >= cfg_.checkpoint_interval) {
      ops_since_ckpt_ = 0;
      if (q_.checkpoint_now()) last_ckpt_seq_ = q_.op_seq();
    }
    return ack();
  }

  Config cfg_;
  persist::DurableHeap<Heap> q_;
  std::uint64_t last_ckpt_seq_ = 0;
  std::size_t ops_since_ckpt_ = 0;
  std::vector<T> scratch_;
};

/// Child-process body: everything after fork(). Serves framed requests from
/// `tr` until EOF/shutdown. Never returns — exits the process:
///   0  clean shutdown (kShutdown or supervisor closed the socket)
///   40 an injected failure escaped (child_faults drills: the child "dies")
///   3  a real error escaped (recovery will surface it loudly upstream)
/// The caller must already have reset inherited fail-point arming and
/// installed its crash hook — this function only serves.
template <typename T, typename Compare>
[[noreturn]] inline void run_shard_child(ShardServer<T, Compare>& server,
                                         Transport& tr,
                                         int idle_beat_ms) {
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  try {
    encode_msg(server.hello(), out);
    if (!tr.send_frame(out)) std::_Exit(0);
    Msg<T> req;
    while (true) {
      const RecvStatus st = tr.recv_frame(in, idle_beat_ms);
      if (st == RecvStatus::kClosed) std::_Exit(0);
      if (st == RecvStatus::kTimeout) {
        // Idle: prove liveness anyway, so a supervisor-side watchdog
        // distinguishes "no work routed here" from "wedged".
        if (server.want_beat()) {
          encode_msg(Msg<T>{MsgType::kBeat, server.op_seq(), 0, 0, {}}, out);
          if (!tr.send_frame(out)) std::_Exit(0);
        }
        continue;
      }
      if (!decode_msg(in, req)) std::_Exit(3);
      const bool shutdown = req.type == MsgType::kShutdown;
      const Msg<T> rep = server.handle(req);
      // A beat precedes every reply: request service is itself liveness,
      // and the kHeartbeatDrop site can suppress exactly this signal.
      if (server.want_beat()) {
        encode_msg(Msg<T>{MsgType::kBeat, server.op_seq(), 0, 0, {}}, out);
        if (!tr.send_frame(out)) std::_Exit(0);
      }
      encode_msg(rep, out);
      if (!tr.send_frame(out)) std::_Exit(0);
      if (shutdown) std::_Exit(0);
    }
  } catch (const robustness::InjectedFailure&) {
    std::_Exit(40);
  } catch (...) {
    std::_Exit(3);
  }
}

}  // namespace ph::dist
