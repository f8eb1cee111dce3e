// The phd event loop: framed requests over localhost TCP into SchedulerCore
// (DESIGN.md §15).
//
// One thread, poll(2), nonblocking fds — the same stance as the metrics
// publisher. Concurrency lives where the library already earns it (the
// staging slots); the protocol edge stays serial so every WAL record, ack,
// and ledger transition has one total order.
//
// Request handling per loop iteration:
//
//   read      every readable connection feeds its FrameParser; complete
//             frames decode (strictly) and dispatch. Schedule/Cancel stage
//             into the core and park their ack in the connection's deferred
//             queue — acks are withheld until the op's admission record is
//             durable. PollDue/Stats execute inline. A poisoned parser or
//             undecodable frame kills the connection (kError first when the
//             stream still parses).
//   commit    one group commit admits everything staged this iteration as
//             ONE WAL record (+ one fsync under kEveryRecord); then every
//             parked ack flushes. This is the fsync-policy/latency tradeoff
//             made real: batching N acks behind one record.
//   write     drain outbufs; a connection whose outbuf exceeds the cap is a
//             dead-slow consumer and is dropped (backpressure, not OOM). A
//             connection marked for closing (peer EOF, protocol error)
//             closes once it owes nothing: outbuf drained, no parked acks.
//
// Backpressure ladder (client-visible order): parked-ack depth over
// max_inflight => immediate kOverloaded (cheapest — core untouched); then
// the core's hard max_backlog wall; then per-tenant token debt above the
// overload watermark (core.hpp).
//
// Drain sequence (kShutdown or stop()): stop accepting; stop reading;
// execute what's already parsed; final commit; flush every outbuf (bounded
// by drain_timeout); ack the shutdown requester last; exit. kill -9 instead
// of drain is the recovery path's job, and the service-smoke CI job does
// exactly that.
//
// Liveness: a PhaseWatchdog channel beats once per loop iteration; its
// monitor thread dumps the flight recorder on a stall. The SnapshotPublisher
// serves /metrics, /metrics.json and /healthz with the svc_* gauges.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dist/frame.hpp"
#include "obs/publisher.hpp"
#include "robustness/watchdog.hpp"
#include "svc/core.hpp"
#include "svc/proto.hpp"

namespace ph::svc {

struct ServerConfig {
  SvcConfig core;
  std::uint16_t port = 0;          ///< 0 = ephemeral (read back via port())
  std::size_t max_conns = 256;
  std::size_t max_inflight = 4096; ///< parked (unacked) ops before kOverloaded
  std::size_t max_outbuf = 16u << 20;  ///< per-conn write backlog before drop
  int idle_timeout_ms = 10;        ///< poll timeout = commit cadence when idle
  std::uint64_t drain_timeout_ms = 2000;
  int metrics_port = -1;           ///< -1 off; 0 ephemeral (SnapshotPublisher)
  std::string metrics_file;
  bool watchdog = true;
  std::uint64_t watchdog_stall_ms = 2000;
};

class Server {
 public:
  explicit Server(ServerConfig cfg) : cfg_(std::move(cfg)), core_(cfg_.core) {
    core_.register_gauges("svc");
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw std::runtime_error("svc: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    if (::bind(listen_fd_, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0) {
      ::close(listen_fd_);
      throw std::runtime_error("svc: cannot listen on 127.0.0.1:" +
                               std::to_string(cfg_.port));
    }
    ::socklen_t alen = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<::sockaddr*>(&addr), &alen);
    port_ = ntohs(addr.sin_port);

    if (cfg_.metrics_port >= 0 || !cfg_.metrics_file.empty()) {
      obs::SnapshotPublisher::Config pc;
      pc.port = cfg_.metrics_port;
      pc.file_path = cfg_.metrics_file;
      publisher_ = std::make_unique<obs::SnapshotPublisher>(pc);
      publisher_->start();
    }
    if (cfg_.watchdog) {
      robustness::PhaseWatchdog::Config wc;
      wc.stall_timeout_ns = cfg_.watchdog_stall_ms * 1000000ull;
      watchdog_ = std::make_unique<robustness::PhaseWatchdog>(wc);
      loop_channel_ = watchdog_->add_channel("svc_loop");
      watchdog_->start();
    }
  }

  ~Server() {
    watchdog_.reset();  // stop the monitor before tearing the loop state down
    publisher_.reset();
    for (auto& c : conns_) {
      if (c->fd >= 0) ::close(c->fd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  SchedulerCore& core() noexcept { return core_; }
  int metrics_port() const noexcept {
    return publisher_ ? publisher_->port() : -1;
  }

  /// Open client connections, as of the last accept or reap. Any thread.
  std::size_t open_connections() const noexcept {
    return open_conns_.load(std::memory_order_relaxed);
  }

  /// Requests drain-and-exit from another thread (or a signal handler via a
  /// self-pipe — phd uses a flag poked by SIGTERM).
  void stop() noexcept { stop_.store(true, std::memory_order_release); }

  /// Runs the event loop until a drain completes. Returns the number of
  /// requests served.
  std::uint64_t run() {
    std::uint64_t drain_deadline = 0;
    while (true) {
      if (watchdog_) watchdog_->beat(loop_channel_);
      if (!draining_ && stop_.load(std::memory_order_acquire)) begin_drain();

      build_pollfds();
      // Only these connections have a pollfd; accept_new() may append more
      // below, and those wait for the next round.
      const std::size_t polled = conns_.size();
      const int pr = ::poll(pfds_.data(), static_cast<nfds_t>(pfds_.size()),
                            cfg_.idle_timeout_ms);
      if (pr < 0 && errno != EINTR) break;

      std::size_t pi = 0;
      if (!draining_) {
        if ((pfds_[pi].revents & POLLIN) != 0) accept_new();
        ++pi;
      }
      for (std::size_t ci = 0; ci < polled; ++ci, ++pi) {
        Conn& c = *conns_[ci];
        if (c.fd < 0) continue;
        const short re = pfds_[pi].revents;
        if ((re & (POLLERR | POLLHUP | POLLNVAL)) != 0 && c.outbuf_empty()) {
          close_conn(c);
          continue;
        }
        if (!draining_ && (re & POLLIN) != 0) read_conn(c);
      }

      // Group commit: one admission record covers every op staged above,
      // then the parked acks become sendable.
      core_.commit();
      flush_parked_acks();

      for (auto& c : conns_) {
        if (c->fd >= 0 && !c->outbuf_empty()) write_conn(*c);
        // A peer that hung up owing nothing stays readable (EOF) forever:
        // close it here, or every poll() returns at once and the loop spins.
        if (c->fd >= 0 && c->kill && c->outbuf_empty() && c->parked.empty() &&
            c.get() != shutdown_conn_) {
          close_conn(*c);
        }
      }
      reap_closed();

      if (draining_) {
        if (drain_deadline == 0) {
          drain_deadline = mono_ms() + cfg_.drain_timeout_ms;
        }
        const bool flushed = all_flushed();
        if (flushed || mono_ms() >= drain_deadline) {
          if (shutdown_conn_ != nullptr && shutdown_conn_->fd >= 0) {
            // The shutdown requester is acked dead last, after the final
            // commit — its ack means "everything acked before this is on
            // disk and every outbuf drained".
            SvcMsg ack;
            ack.type = SvcType::kAck;
            ack.c = core_.now_ns();
            ack.d = core_.durable().op_seq();
            send_now(*shutdown_conn_, ack);
            flush_blocking(*shutdown_conn_, mono_ms() + cfg_.drain_timeout_ms);
          }
          break;
        }
      }
    }
    return served_;
  }

 private:
  struct Parked {
    SvcMsg ack;  ///< ready-to-send kAck, parked until the commit
  };

  struct Conn {
    int fd = -1;
    dist::FrameParser parser;
    std::vector<std::uint8_t> out;     ///< pending wire bytes
    std::size_t out_off = 0;
    std::vector<Parked> parked;        ///< acks awaiting durability
    bool kill = false;                 ///< close once outbuf drains

    bool outbuf_empty() const noexcept { return out_off >= out.size(); }
  };

  static std::uint64_t mono_ms() {
    ::timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000ull +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000000ull;
  }

  void build_pollfds() {
    pfds_.clear();
    if (!draining_) {
      const bool room = conns_.size() < cfg_.max_conns;
      pfds_.push_back(::pollfd{listen_fd_, static_cast<short>(room ? POLLIN : 0), 0});
    }
    for (auto& c : conns_) {
      short ev = 0;
      if (c->fd >= 0) {
        if (!draining_) ev |= POLLIN;
        if (!c->outbuf_empty()) ev |= POLLOUT;
      }
      pfds_.push_back(::pollfd{c->fd, ev, 0});
    }
  }

  void accept_new() {
    while (conns_.size() < cfg_.max_conns) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN or transient: next poll round retries
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto c = std::make_unique<Conn>();
      c->fd = fd;
      conns_.push_back(std::move(c));
      open_conns_.store(conns_.size(), std::memory_order_relaxed);
    }
  }

  void read_conn(Conn& c) {
    std::uint8_t chunk[16384];
    while (true) {
      const ::ssize_t r = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(c);
        return;
      }
      if (r == 0) {  // EOF — peer is done sending; finish writes, then close
        c.kill = true;
        break;
      }
      c.parser.feed(std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(r)));
      if (static_cast<std::size_t>(r) < sizeof(chunk)) break;
    }
    std::vector<std::uint8_t> payload;
    while (c.fd >= 0) {
      const dist::FrameStatus st = c.parser.next(payload);
      if (st == dist::FrameStatus::kNeedMore) break;
      if (st == dist::FrameStatus::kBad) {
        // Corrupt stream: no error frame — the stream itself is the casualty.
        close_conn(c);
        return;
      }
      handle_frame(c, payload);
    }
  }

  void handle_frame(Conn& c, std::span<const std::uint8_t> payload) {
    ++served_;
    SvcMsg m;
    if (!decode_svc(payload, m)) {
      SvcMsg err;
      err.type = SvcType::kError;
      err.a = kErrBadRequest;
      send_now(c, err);
      c.kill = true;  // protocol skew: answer loudly, then hang up
      return;
    }
    switch (m.type) {
      case SvcType::kSchedule:
      case SvcType::kCancel: {
        if (draining_) return reply_error(c, m, kErrDraining);
        if (parked_total_ >= cfg_.max_inflight) {
          // Cheapest shed: the loop itself is the bottleneck; don't even
          // touch the core.
          return reply_overloaded(c, m);
        }
        std::uint64_t deadline = m.a;
        const Admit a =
            m.type == SvcType::kSchedule
                ? core_.schedule(m.tenant, m.a, m.b, m.c, m.d, &deadline)
                : core_.cancel(m.tenant, m.a, m.b);
        if (a == Admit::kOverloaded) return reply_overloaded(c, m);
        if (a == Admit::kTransient) return reply_error(c, m, kErrTransient);
        Parked p;
        p.ack.type = SvcType::kAck;
        p.ack.tenant = m.tenant;
        p.ack.a = deadline;
        p.ack.b = m.b;
        c.parked.push_back(std::move(p));
        ++parked_total_;
        return;
      }
      case SvcType::kPollDue: {
        jobs_scratch_.clear();
        std::uint64_t now = 0;
        core_.poll_due(static_cast<std::size_t>(m.a), jobs_scratch_, &now);
        // poll_due commits staged work as a side effect: parked acks from
        // earlier in this iteration are durable too. Flush them FIRST so no
        // client can see its own job delivered before it was acked.
        flush_parked_acks();
        SvcMsg rep;
        rep.type = SvcType::kDueReply;
        rep.tenant = m.tenant;
        rep.a = now;
        rep.b = core_.backlog();
        rep.jobs = jobs_scratch_;
        send_now(c, rep);
        return;
      }
      case SvcType::kStats: {
        SvcMsg rep;
        rep.type = SvcType::kStatsReply;
        rep.tenant = m.tenant;
        rep.a = core_.now_ns();
        rep.b = core_.backlog();
        rep.c = core_.durable().op_seq();
        rep.stats = core_.stat_rows();
        rep.d = rep.stats.size();
        send_now(c, rep);
        return;
      }
      case SvcType::kShutdown: {
        begin_drain();
        shutdown_conn_ = &c;
        return;
      }
      default:
        return reply_error(c, m, kErrBadRequest);
    }
  }

  void reply_overloaded(Conn& c, const SvcMsg& m) {
    SvcMsg rep;
    rep.type = SvcType::kOverloaded;
    rep.tenant = m.tenant;
    rep.a = m.a;
    rep.b = m.b;
    rep.c = core_.now_ns();
    send_now(c, rep);
  }

  void reply_error(Conn& c, const SvcMsg& m, std::uint64_t code) {
    SvcMsg rep;
    rep.type = SvcType::kError;
    rep.tenant = m.tenant;
    rep.a = code;
    rep.b = m.b;
    send_now(c, rep);
  }

  /// Encodes + frames a reply into the connection's outbuf (sent by the
  /// write phase). Oversized outbuf = dead-slow consumer: drop it.
  void send_now(Conn& c, const SvcMsg& m) {
    if (c.fd < 0) return;
    encode_svc(m, enc_scratch_);
    const std::size_t live = c.out.size() - c.out_off;
    if (live + enc_scratch_.size() + 8 > cfg_.max_outbuf) {
      close_conn(c);
      return;
    }
    if (c.out_off > 0 && c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    persist::append_frame(c.out, std::span<const std::uint8_t>(enc_scratch_));
  }

  /// After a commit with the staging fully drained, every parked ack's
  /// admission record is on disk (per fsync policy): release them in order.
  void flush_parked_acks() {
    if (!core_.staged_fully_admitted()) return;  // injected flush fault: the
                                                 // restaged ops commit later
    const std::uint64_t now = core_.now_ns();
    const std::uint64_t seq = core_.durable().op_seq();
    for (auto& c : conns_) {
      if (c->parked.empty()) continue;
      // send_now can close_conn(*c) (outbuf cap), which clears c->parked —
      // detach the batch first so the loop never walks a mutated vector.
      auto parked = std::move(c->parked);
      c->parked.clear();
      parked_total_ -= parked.size();
      for (Parked& p : parked) {
        if (c->fd < 0) break;
        p.ack.c = now;
        p.ack.d = seq;
        send_now(*c, p.ack);
      }
    }
  }

  /// Bounded blocking flush for the final shutdown ack: the loop is about to
  /// exit, so a healthy-but-momentarily-full socket (EAGAIN, partial write)
  /// must not cost the requester its ack. Polls for POLLOUT until the outbuf
  /// drains or deadline_ms passes.
  void flush_blocking(Conn& c, std::uint64_t deadline_ms) {
    while (c.fd >= 0 && !c.outbuf_empty()) {
      write_conn(c);
      if (c.fd < 0 || c.outbuf_empty()) return;
      const std::uint64_t now = mono_ms();
      if (now >= deadline_ms) return;
      ::pollfd p{c.fd, POLLOUT, 0};
      const int pr = ::poll(&p, 1, static_cast<int>(deadline_ms - now));
      if (pr < 0 && errno != EINTR) return;
      if (pr > 0 && (p.revents & (POLLERR | POLLNVAL)) != 0) return;
    }
  }

  void write_conn(Conn& c) {
    while (c.fd >= 0 && !c.outbuf_empty()) {
      const ::ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        close_conn(c);
        return;
      }
      c.out_off += static_cast<std::size_t>(w);
    }
    if (c.outbuf_empty()) {
      c.out.clear();
      c.out_off = 0;
      if (c.kill) close_conn(c);
    }
  }

  void close_conn(Conn& c) {
    if (c.fd < 0) return;
    ::close(c.fd);
    c.fd = -1;
    parked_total_ -= c.parked.size();
    c.parked.clear();
    if (shutdown_conn_ == &c) shutdown_conn_ = nullptr;
  }

  void reap_closed() {
    for (std::size_t i = 0; i < conns_.size();) {
      if (conns_[i]->fd < 0) {
        if (shutdown_conn_ == conns_[i].get()) shutdown_conn_ = nullptr;
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    open_conns_.store(conns_.size(), std::memory_order_relaxed);
  }

  void begin_drain() {
    if (draining_) return;
    draining_ = true;
    core_.drain();
  }

  bool all_flushed() const {
    if (!core_.staged_fully_admitted()) return false;
    for (const auto& c : conns_) {
      if (c->fd >= 0 && (!c->outbuf_empty() || !c->parked.empty())) return false;
    }
    return true;
  }

  ServerConfig cfg_;
  SchedulerCore core_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<::pollfd> pfds_;
  std::vector<Job> jobs_scratch_;
  std::vector<std::uint8_t> enc_scratch_;
  std::size_t parked_total_ = 0;
  std::uint64_t served_ = 0;
  bool draining_ = false;
  Conn* shutdown_conn_ = nullptr;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> open_conns_{0};
  std::unique_ptr<obs::SnapshotPublisher> publisher_;
  std::unique_ptr<robustness::PhaseWatchdog> watchdog_;
  std::size_t loop_channel_ = 0;
};

}  // namespace ph::svc
