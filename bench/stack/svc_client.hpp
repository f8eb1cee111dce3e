// The service side of bench_stack: one phd process per lifetime, and a
// nonblocking client connection speaking svc/proto.hpp over dist/frame.hpp.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dist/frame.hpp"
#include "svc/proto.hpp"

namespace stack {

/// One phd process. start() waits until phd reports its listening port;
/// the destructor kills and reaps a process that is still running, so no
/// phd outlives the benchmark (PR_SET_PDEATHSIG covers a crash of ours).
class PhdProcess {
 public:
  PhdProcess() = default;
  ~PhdProcess();
  PhdProcess(const PhdProcess&) = delete;
  PhdProcess& operator=(const PhdProcess&) = delete;

  /// Starts `phd --dir dir --port 0 [extra...]` pinned to `cpu` (-1 = no
  /// pinning), stderr to `log_path`.
  bool start(const std::string& phd, const std::string& dir,
             const std::vector<std::string>& extra, const std::string& log_path, int cpu);
  pid_t pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }
  /// Waits up to `timeout_s` for exit (then SIGKILLs). True iff it exited 0.
  bool wait_exit(double timeout_s);

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;  ///< read end of phd's stdout
  std::uint16_t port_ = 0;
};

/// A nonblocking framed connection to phd.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connect_to(std::uint16_t port);
  int fd() const noexcept { return fd_; }
  bool dead() const noexcept { return dead_; }

  /// Encodes and frames `m` into the send buffer.
  void queue(const ph::svc::SvcMsg& m);
  bool want_write() const noexcept { return off_ < out_.size(); }
  /// Sends as much of the buffer as the socket takes without blocking.
  void flush();
  /// Reads everything available without blocking (EOF marks the peer dead).
  void read_some();
  /// Cuts the next reply off the received stream; false when none.
  bool next(ph::svc::SvcMsg& m);

  /// Blocking request/reply for quiet connections (set-up, restart): sends
  /// `req` and waits up to `timeout_s` for a reply of type `want`.
  bool roundtrip(const ph::svc::SvcMsg& req, ph::svc::SvcType want,
                 ph::svc::SvcMsg& reply, double timeout_s);

 private:
  int fd_ = -1;
  bool dead_ = false;
  ph::dist::FrameParser parser_;
  std::vector<std::uint8_t> enc_, out_, payload_;
  std::size_t off_ = 0;
};

}  // namespace stack
