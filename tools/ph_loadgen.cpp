// ph_loadgen — open-loop multi-tenant load generator + ledger auditor for phd.
//
// Drives a running phd over one pipelined connection: Zipf-skewed tenant
// choice, burst arrivals, target-rate pacing (send times come from the clock,
// not from replies — open loop, so an overloaded server shows up as shed
// counts and latency, not as a politely slowed client). Interleaves PollDue
// requests so dispatch happens under the same load. Tracks ack latency per
// tenant (log2 histograms; p50/p99), shed counts, and deliveries.
//
//   ph_loadgen --port 9230 --tenants 64 --rate 50000 --seconds 5
//   ph_loadgen --port 9230 --json                              machine-readable
//   ph_loadgen --port 9230 --ledger /tmp/run1.ledger           audit trail
//   ph_loadgen --port 9230 --verify --ledger /tmp/run2.ledger  drain + record
//   ph_loadgen --port 9230 --shutdown                          drain the server
//
// The ledger file is the differential-check artifact the service-smoke CI
// job diffs across a kill -9 (scripts/service_smoke.sh):
//
//   S <tenant> <id> <deadline>   schedule ACKED (durable per fsync policy)
//   C <tenant> <id>              cancel SENT (may or may not have landed)
//   D <tenant> <id>              job delivered by a PollDue reply
//   U <tenant> <id>              schedule sent, no ack observed (the kill
//       raced the commit: delivery in a later phase is optional, not a
//       fabrication)
//   W <outstanding_polls> <max_batch>   written at exit: the at-most-once
//       window — if a poll was in flight when the server died, up to one
//       batch may have committed whose reply was lost.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "dist/frame.hpp"
#include "svc/proto.hpp"
#include "util/flags.hpp"

namespace {

using namespace ph;
using svc::SvcMsg;
using svc::SvcType;

struct Options {
  std::uint16_t port = 9230;
  std::size_t tenants = 64;
  double zipf_s = 1.0;          ///< Zipf exponent (0 = uniform)
  double rate = 50000.0;        ///< target schedules/sec
  std::size_t burst = 32;       ///< arrivals per burst (open-loop clumping)
  double seconds = 5.0;
  std::uint64_t max_ops = 0;    ///< 0 = until --seconds
  std::uint64_t delay_min_us = 0, delay_max_us = 50000;  ///< job due delay
  double cancel_frac = 0.0;     ///< cancel this fraction of acked jobs
  std::size_t poll_every = 8;   ///< one PollDue per this many bursts
  std::size_t poll_batch = 256;
  std::uint64_t seed = 1;
  bool json = false;
  bool verify = false;          ///< drain mode: poll until backlog empties
  double verify_timeout_s = 30.0;
  bool shutdown = false;        ///< send kShutdown at the end, wait for ack
  std::string ledger;
};

std::uint64_t mono_ns() {
  ::timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Zipf via inverse-CDF over a precomputed table (fine for <=1e5 tenants).
struct ZipfPicker {
  std::vector<double> cdf;
  void build(std::size_t n, double s) {
    cdf.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf[i] = sum;
    }
    for (double& v : cdf) v /= sum;
  }
  std::uint32_t pick(double u) const {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::uint32_t>(it - cdf.begin());
  }
};

/// Log2-bucketed latency histogram (ns), enough for p50/p99 on millions of
/// samples without storing them.
struct Histo {
  std::uint64_t buckets[64] = {0};
  std::uint64_t n = 0;
  void add(std::uint64_t ns) {
    int b = 0;
    while (ns > 1 && b < 63) {
      ns >>= 1;
      ++b;
    }
    ++buckets[b];
    ++n;
  }
  /// Upper edge of the bucket holding quantile q — a <=2x overestimate.
  double quantile_us(double q) const {
    if (n == 0) return 0.0;
    std::uint64_t want = static_cast<std::uint64_t>(q * static_cast<double>(n));
    std::uint64_t seen = 0;
    for (int b = 0; b < 64; ++b) {
      seen += buckets[b];
      if (seen > want) return std::ldexp(1.0, b + 1) / 1000.0;
    }
    return 0.0;
  }
};

struct TenantView {
  std::uint64_t sent = 0, acked = 0, shed = 0, delivered = 0, cancels = 0;
  Histo lat;
};

struct Ledger {
  std::vector<std::string> lines;
  void rec(char kind, std::uint32_t t, std::uint64_t id, std::uint64_t extra,
           bool with_extra) {
    char buf[96];
    if (with_extra) {
      std::snprintf(buf, sizeof(buf), "%c %u %llu %llu", kind, t,
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(extra));
    } else {
      std::snprintf(buf, sizeof(buf), "%c %u %llu", kind, t,
                    static_cast<unsigned long long>(id));
    }
    lines.emplace_back(buf);
  }
};

class Client {
 public:
  bool connect_to(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd_, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool alive() const { return fd_ >= 0 && !dead_; }

  bool send_msg(const SvcMsg& m) {
    if (!alive()) return false;
    svc::encode_svc(m, enc_);
    if (!dist::send_frame_fd(fd_, std::span<const std::uint8_t>(enc_), wire_)) {
      dead_ = true;
      return false;
    }
    return true;
  }

  /// Pulls replies that are already buffered (or blocks up to timeout_ms for
  /// at least one read). Returns false once the connection is dead AND the
  /// parser is empty.
  template <typename Fn>
  bool drain_replies(int timeout_ms, Fn&& on_reply) {
    while (true) {
      SvcMsg m;
      std::vector<std::uint8_t> payload;
      const dist::FrameStatus st = parser_.next(payload);
      if (st == dist::FrameStatus::kBad) {
        dead_ = true;
        return false;
      }
      if (st == dist::FrameStatus::kFrame) {
        if (!svc::decode_svc(payload, m)) {
          dead_ = true;
          return false;
        }
        on_reply(m);
        continue;
      }
      if (dead_) return false;
      ::pollfd p{fd_, POLLIN, 0};
      const int pr = ::poll(&p, 1, timeout_ms);
      if (pr <= 0) return true;  // nothing more right now
      std::uint8_t chunk[16384];
      const ::ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) {
        dead_ = true;
        continue;  // flush whatever is parsed, then report dead
      }
      parser_.feed(std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(r)));
      timeout_ms = 0;  // got bytes: only drain what's buffered now
    }
  }

 private:
  int fd_ = -1;
  bool dead_ = false;
  dist::FrameParser parser_;
  std::vector<std::uint8_t> enc_, wire_;
};

struct Run {
  Options opt;
  Client client;
  ZipfPicker zipf;
  std::vector<TenantView> tenants;
  Ledger ledger;
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>>
      inflight;  ///< id -> (tenant, send_ns)
  std::uint64_t rng;
  std::uint64_t next_id = 1;
  std::uint64_t polls_sent = 0, polls_replied = 0;
  std::uint64_t delivered_total = 0, acked_total = 0, shed_total = 0;
  std::uint64_t overload_replies = 0, errors = 0;
  std::uint64_t last_backlog = 0;

  explicit Run(Options o) : opt(std::move(o)), rng(opt.seed * 2 + 1) {
    zipf.build(opt.tenants, opt.zipf_s);
    tenants.resize(opt.tenants);
  }

  void on_reply(const SvcMsg& m) {
    switch (m.type) {
      case SvcType::kAck: {
        const auto it = inflight.find(m.b);
        if (it != inflight.end()) {
          const auto [t, sent_ns] = it->second;
          inflight.erase(it);
          TenantView& tv = tenants[t % tenants.size()];
          ++tv.acked;
          ++acked_total;
          tv.lat.add(mono_ns() - sent_ns);
          ledger.rec('S', t, m.b, m.a, true);
          maybe_cancel(t, m.a, m.b);
        }
        break;
      }
      case SvcType::kOverloaded: {
        ++overload_replies;
        const auto it = inflight.find(m.b);
        if (it != inflight.end()) {
          ++tenants[it->second.first % tenants.size()].shed;
          ++shed_total;
          inflight.erase(it);
        }
        break;
      }
      case SvcType::kDueReply: {
        ++polls_replied;
        last_backlog = m.b;
        for (const svc::Job& j : m.jobs) {
          ++tenants[j.tenant % tenants.size()].delivered;
          ++delivered_total;
          ledger.rec('D', j.tenant, j.id, 0, false);
        }
        break;
      }
      case SvcType::kStatsReply:
        last_backlog = m.b;
        break;
      case SvcType::kError:
        ++errors;
        break;
      default:
        break;
    }
  }

  void maybe_cancel(std::uint32_t t, std::uint64_t deadline, std::uint64_t id) {
    if (opt.cancel_frac <= 0.0) return;
    const double u =
        static_cast<double>(splitmix(rng) >> 11) / 9007199254740992.0;
    if (u >= opt.cancel_frac) return;
    SvcMsg c;
    c.type = SvcType::kCancel;
    c.tenant = t;
    c.a = deadline;
    c.b = id;
    if (client.send_msg(c)) {
      ++tenants[t % tenants.size()].cancels;
      ledger.rec('C', t, id, 0, false);
    }
  }

  bool send_schedule() {
    const double u =
        static_cast<double>(splitmix(rng) >> 11) / 9007199254740992.0;
    const std::uint32_t t = zipf.pick(u);
    SvcMsg m;
    m.type = SvcType::kSchedule;
    m.tenant = t;
    const std::uint64_t span_us = opt.delay_max_us - opt.delay_min_us + 1;
    m.a = (opt.delay_min_us + splitmix(rng) % span_us) * 1000ull;
    m.b = next_id++;
    m.c = splitmix(rng);
    m.d = 0;
    ++tenants[t].sent;
    inflight.emplace(m.b, std::make_pair(t, mono_ns()));
    return client.send_msg(m);
  }

  bool send_poll() {
    SvcMsg m;
    m.type = SvcType::kPollDue;
    m.a = opt.poll_batch;
    if (!client.send_msg(m)) return false;
    ++polls_sent;
    return true;
  }

  /// The main open-loop phase. Returns false if the server died mid-run.
  bool generate() {
    const std::uint64_t start = mono_ns();
    const std::uint64_t end =
        start + static_cast<std::uint64_t>(opt.seconds * 1e9);
    const double burst_period_ns =
        1e9 * static_cast<double>(opt.burst) / std::max(opt.rate, 1.0);
    double next_send = static_cast<double>(start);
    std::uint64_t ops = 0, bursts = 0;
    while (client.alive()) {
      const std::uint64_t now = mono_ns();
      if (now >= end || (opt.max_ops != 0 && ops >= opt.max_ops)) break;
      if (static_cast<double>(now) >= next_send) {
        for (std::size_t b = 0; b < opt.burst && client.alive(); ++b) {
          if (!send_schedule()) break;
          ++ops;
        }
        next_send += burst_period_ns;
        if (++bursts % std::max<std::size_t>(opt.poll_every, 1) == 0) send_poll();
      }
      const double wait_ms = (next_send - static_cast<double>(mono_ns())) / 1e6;
      client.drain_replies(wait_ms > 1.0 ? static_cast<int>(wait_ms) : 0,
                           [this](const SvcMsg& m) { on_reply(m); });
    }
    // Settle: collect outstanding acks/poll replies (server may be committing).
    const std::uint64_t settle_end = mono_ns() + 2000000000ull;
    while (client.alive() && !inflight.empty() && mono_ns() < settle_end) {
      if (!client.drain_replies(50, [this](const SvcMsg& m) { on_reply(m); })) break;
    }
    return client.alive();
  }

  /// Drain mode: poll until the server reports an empty backlog (everything
  /// scheduled by a previous run gets delivered and recorded).
  bool verify_drain() {
    const std::uint64_t end =
        mono_ns() + static_cast<std::uint64_t>(opt.verify_timeout_s * 1e9);
    last_backlog = 1;
    while (client.alive() && mono_ns() < end) {
      if (!send_poll()) break;
      SvcMsg s;
      s.type = SvcType::kStats;
      client.send_msg(s);
      client.drain_replies(100, [this](const SvcMsg& m) { on_reply(m); });
      if (last_backlog == 0) return true;
      ::usleep(10000);  // jobs may simply not be due yet
    }
    return client.alive() && last_backlog == 0;
  }

  bool shutdown_server() {
    SvcMsg m;
    m.type = SvcType::kShutdown;
    m.a = 1;
    if (!client.send_msg(m)) return false;
    bool acked = false;
    const std::uint64_t end = mono_ns() + 10000000000ull;
    while (client.alive() && !acked && mono_ns() < end) {
      client.drain_replies(100, [&](const SvcMsg& r) {
        if (r.type == SvcType::kAck) acked = true;
        else on_reply(r);
      });
    }
    return acked;
  }

  void write_ledger() {
    if (opt.ledger.empty()) return;
    std::FILE* f = std::fopen(opt.ledger.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ph_loadgen: cannot write %s\n", opt.ledger.c_str());
      return;
    }
    for (const std::string& l : ledger.lines) std::fprintf(f, "%s\n", l.c_str());
    // Sent-but-unacked ops: the ack (or the kill) raced the commit. Such a
    // job MAY be durable — the auditor treats it as "delivery optional".
    for (const auto& [id, ts] : inflight) {
      std::fprintf(f, "U %u %llu\n", ts.first,
                   static_cast<unsigned long long>(id));
    }
    std::fprintf(f, "W %llu %zu\n",
                 static_cast<unsigned long long>(polls_sent - polls_replied),
                 opt.poll_batch);
    std::fclose(f);
  }

  double jain_index() const {
    // Over tenants that sent anything: fairness of delivered counts.
    double sum = 0.0, sumsq = 0.0;
    std::size_t n = 0;
    for (const TenantView& tv : tenants) {
      if (tv.sent == 0) continue;
      const double x = static_cast<double>(tv.delivered);
      sum += x;
      sumsq += x * x;
      ++n;
    }
    if (n == 0 || sumsq == 0.0) return 1.0;
    return (sum * sum) / (static_cast<double>(n) * sumsq);
  }

  void report(double wall_s, bool server_alive) const {
    Histo all;
    std::uint64_t sent = 0;
    for (const TenantView& tv : tenants) {
      sent += tv.sent;
      for (int b = 0; b < 64; ++b) all.buckets[b] += tv.lat.buckets[b];
      all.n += tv.lat.n;
    }
    if (opt.json) {
      std::printf("{\"tool\":\"ph_loadgen\",\"tenants\":%zu,\"zipf_s\":%.2f,"
                  "\"wall_s\":%.3f,\"sent\":%llu,\"acked\":%llu,\"shed\":%llu,"
                  "\"overload_replies\":%llu,\"delivered\":%llu,"
                  "\"polls\":%llu,\"ack_rate_per_s\":%.0f,"
                  "\"ack_p50_us\":%.1f,\"ack_p99_us\":%.1f,"
                  "\"jain_delivered\":%.4f,\"errors\":%llu,"
                  "\"server_alive\":%s}\n",
                  opt.tenants, opt.zipf_s, wall_s,
                  static_cast<unsigned long long>(sent),
                  static_cast<unsigned long long>(acked_total),
                  static_cast<unsigned long long>(shed_total),
                  static_cast<unsigned long long>(overload_replies),
                  static_cast<unsigned long long>(delivered_total),
                  static_cast<unsigned long long>(polls_replied),
                  wall_s > 0 ? static_cast<double>(acked_total) / wall_s : 0.0,
                  all.quantile_us(0.50), all.quantile_us(0.99), jain_index(),
                  static_cast<unsigned long long>(errors),
                  server_alive ? "true" : "false");
      return;
    }
    std::printf("ph_loadgen: %zu tenants (zipf %.2f)  %.2fs wall\n",
                opt.tenants, opt.zipf_s, wall_s);
    std::printf("  sent %llu  acked %llu (%.0f/s)  shed %llu  delivered %llu  "
                "polls %llu\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(acked_total),
                wall_s > 0 ? static_cast<double>(acked_total) / wall_s : 0.0,
                static_cast<unsigned long long>(shed_total),
                static_cast<unsigned long long>(delivered_total),
                static_cast<unsigned long long>(polls_replied));
    std::printf("  ack latency p50 %.1fus  p99 %.1fus   jain(delivered) %.4f%s\n",
                all.quantile_us(0.50), all.quantile_us(0.99), jain_index(),
                server_alive ? "" : "   [server died mid-run]");
    // Top tenants by traffic — the Zipf head, where fairness bites.
    std::printf("  tenant     sent    acked     shed  delivered  p99_us\n");
    for (std::size_t t = 0; t < std::min<std::size_t>(opt.tenants, 8); ++t) {
      const TenantView& tv = tenants[t];
      std::printf("  %6zu %8llu %8llu %8llu %10llu %7.1f\n", t,
                  static_cast<unsigned long long>(tv.sent),
                  static_cast<unsigned long long>(tv.acked),
                  static_cast<unsigned long long>(tv.shed),
                  static_cast<unsigned long long>(tv.delivered),
                  tv.lat.quantile_us(0.99));
    }
  }
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--tenants N] [--zipf S] [--rate R] [--burst N]\n"
      "          [--seconds S] [--ops N] [--delay-max-us N] [--cancel-frac F]\n"
      "          [--poll-every N] [--poll-batch N] [--seed N] [--json]\n"
      "          [--ledger PATH] [--verify] [--shutdown]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](const char* flag, std::uint64_t hi = UINT64_MAX) {
      return ph::flag_uint("ph_loadgen", flag, next(), 0, hi);
    };
    auto real = [&](const char* flag) {
      return ph::flag_double("ph_loadgen", flag, next());
    };
    if (a == "--port") opt.port = static_cast<std::uint16_t>(count("--port", 65535));
    else if (a == "--tenants") opt.tenants = count("--tenants");
    else if (a == "--zipf") opt.zipf_s = real("--zipf");
    else if (a == "--rate") opt.rate = real("--rate");
    else if (a == "--burst") opt.burst = count("--burst");
    else if (a == "--seconds") opt.seconds = real("--seconds");
    else if (a == "--ops") opt.max_ops = count("--ops");
    else if (a == "--delay-min-us") opt.delay_min_us = count("--delay-min-us");
    else if (a == "--delay-max-us") opt.delay_max_us = count("--delay-max-us");
    else if (a == "--cancel-frac") opt.cancel_frac = real("--cancel-frac");
    else if (a == "--poll-every") opt.poll_every = count("--poll-every");
    else if (a == "--poll-batch") opt.poll_batch = count("--poll-batch");
    else if (a == "--seed") opt.seed = count("--seed");
    else if (a == "--json") opt.json = true;
    else if (a == "--ledger") opt.ledger = next();
    else if (a == "--verify") opt.verify = true;
    else if (a == "--verify-timeout") opt.verify_timeout_s = real("--verify-timeout");
    else if (a == "--shutdown") opt.shutdown = true;
    else if (a == "--help" || a == "-h") { usage(argv[0]); return 0; }
    else {
      std::fprintf(stderr, "ph_loadgen: unknown flag %s\n", a.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.tenants == 0) opt.tenants = 1;
  if (opt.delay_max_us < opt.delay_min_us) opt.delay_max_us = opt.delay_min_us;

  Run run(opt);
  if (!run.client.connect_to(opt.port)) {
    std::fprintf(stderr, "ph_loadgen: cannot connect to 127.0.0.1:%u\n",
                 static_cast<unsigned>(opt.port));
    return 1;
  }

  const std::uint64_t t0 = mono_ns();
  bool ok = true;
  if (opt.verify) {
    ok = run.verify_drain();
    if (!ok) {
      std::fprintf(stderr,
                   "ph_loadgen: verify drain failed (backlog %llu, alive %d)\n",
                   static_cast<unsigned long long>(run.last_backlog),
                   run.client.alive() ? 1 : 0);
    }
  } else if (opt.seconds > 0.0 || opt.max_ops > 0) {
    ok = run.generate();
  }
  if (opt.shutdown && run.client.alive()) {
    if (!run.shutdown_server()) {
      std::fprintf(stderr, "ph_loadgen: shutdown not acked\n");
      ok = false;
    }
  }
  const double wall_s = static_cast<double>(mono_ns() - t0) / 1e9;

  run.write_ledger();
  run.report(wall_s, run.client.alive());
  return ok ? 0 : 1;
}
