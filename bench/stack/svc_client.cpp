#include "svc_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "persist/format.hpp"
#include "stack.hpp"

namespace stack {

// ------------------------------------------------------------- PhdProcess

PhdProcess::~PhdProcess() { kill_and_reap(); }

bool PhdProcess::start(const std::string& phd, const std::string& dir,
                       const std::vector<std::string>& extra, const std::string& log_path,
                       int cpu) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) return false;
  const int logfd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (logfd < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return false;
  }
  std::vector<std::string> args = {phd, "--dir", dir, "--port", "0"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    ::close(logfd);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof(set), &set);
    }
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::dup2(logfd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  ::close(logfd);
  pid_ = pid;
  out_fd_ = pipefd[0];

  // phd prints "phd: listening on 127.0.0.1:<port> ..." once it listens.
  constexpr std::string_view kListening = "listening on 127.0.0.1:";
  std::string text;
  const std::uint64_t deadline = mono_ns() + 20'000'000'000ull;
  while (mono_ns() < deadline) {
    ::pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    const ::ssize_t r = ::read(out_fd_, buf, sizeof(buf));
    if (r <= 0) break;  // phd exited before listening
    text.append(buf, static_cast<std::size_t>(r));
    const auto at = text.find(kListening);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::strtoul(text.c_str() + at + kListening.size(), nullptr, 10));
      return port_ != 0;
    }
  }
  note("phd did not start (see %s)", log_path.c_str());
  kill_and_reap();
  return false;
}

bool PhdProcess::wait_exit(double timeout_s) {
  if (pid_ < 0) return false;
  const std::uint64_t deadline = mono_after(timeout_s);
  int status = 0;
  while (true) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) return false;
    if (mono_ns() >= deadline) {
      note("phd %d did not exit within %.0f s; killing it", static_cast<int>(pid_),
           timeout_s);
      kill_and_reap();
      return false;
    }
    ::usleep(1000);
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void PhdProcess::kill_and_reap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
}

// ------------------------------------------------------------------- Conn

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::connect_to(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0) {
    dead_ = true;
    return false;
  }
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return true;
}

void Conn::queue(const ph::svc::SvcMsg& m) {
  ph::svc::encode_svc(m, enc_);
  if (off_ > 0 && off_ == out_.size()) {
    out_.clear();
    off_ = 0;
  }
  ph::persist::append_frame(out_, std::span<const std::uint8_t>(enc_));
}

void Conn::flush() {
  while (!dead_ && want_write()) {
    const ::ssize_t w = ::send(fd_, out_.data() + off_, out_.size() - off_, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) dead_ = true;
      break;
    }
    off_ += static_cast<std::size_t>(w);
  }
  if (off_ == out_.size()) {
    out_.clear();
    off_ = 0;
  }
}

void Conn::read_some() {
  std::uint8_t chunk[65536];
  while (!dead_) {
    const ::ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) dead_ = true;
      return;
    }
    if (r == 0) {
      dead_ = true;
      return;
    }
    parser_.feed(std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(r)));
    if (static_cast<std::size_t>(r) < sizeof(chunk)) return;
  }
}

bool Conn::next(ph::svc::SvcMsg& m) {
  const ph::dist::FrameStatus st = parser_.next(payload_);
  if (st == ph::dist::FrameStatus::kNeedMore) return false;
  if (st == ph::dist::FrameStatus::kBad || !ph::svc::decode_svc(payload_, m)) {
    dead_ = true;
    return false;
  }
  return true;
}

bool Conn::roundtrip(const ph::svc::SvcMsg& req, ph::svc::SvcType want,
                     ph::svc::SvcMsg& reply, double timeout_s) {
  queue(req);
  const std::uint64_t deadline = mono_after(timeout_s);
  while (mono_ns() < deadline) {
    flush();
    while (next(reply)) {
      if (reply.type == want) return true;
    }
    if (dead_) return false;
    ::pollfd p{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)), 0};
    ::poll(&p, 1, 10);
    read_some();
  }
  return false;
}

}  // namespace stack
