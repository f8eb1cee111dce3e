// The two service workloads, svc_mixed and svc_timeouts: a real phd over
// loopback TCP, driven by a single-threaded open-loop client and measured
// from outside (client view, /proc/<pid>, the WAL directory, a restart).
// The traced run adds phd's metrics file, a log-space capacity search
// (svc_mixed), and the replay rungs that price each layer below the socket.
#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "ingest/ingest_tier.hpp"
#include "layers.hpp"
#include "persist/checkpoint.hpp"
#include "persist/recovery.hpp"
#include "persist/wal.hpp"
#include "sim/event.hpp"
#include "stack.hpp"
#include "svc/core.hpp"
#include "svc/job.hpp"
#include "svc/proto.hpp"
#include "svc_client.hpp"
#include "util/mini_json.hpp"
#include "util/rng.hpp"

namespace stack {
namespace {

using ph::svc::Job;
using ph::svc::JobLess;
using ph::svc::SvcMsg;
using ph::svc::SvcType;
using ph::svc::TenantStatRow;
namespace fs = std::filesystem;

constexpr std::size_t kTenants = 64;
constexpr double kZipfS = 1.0;
constexpr std::uint64_t kPollMax = 1024;
constexpr std::uint64_t kPollPeriodNs = 1'000'000;
constexpr double kWarmupS = 1.0;   ///< plus the longest job delay
constexpr double kSubWindowS = 0.25;
constexpr std::uint64_t kMs = 1'000'000;
constexpr std::uint64_t kSec = 1'000'000'000;
// Replay rungs: phd's heap layout (K = 4 shards of r = 128) over a bounded
// prefix of the run's WAL.
constexpr std::size_t kRungShards = 4;
constexpr std::size_t kRungR = 128;
constexpr std::uint64_t kReplayBytes = 64ull << 20;
// Capacity search (svc_mixed, traced run): log-space bisection.
constexpr double kCapLo = 25'000.0;
constexpr double kCapHi = 400'000.0;
constexpr int kCapProbes = 5;
constexpr double kCapProbeS = 2.0;
constexpr double kCapAckP99LimitUs = 10'000.0;

struct Shape {
  double rate;                 ///< schedules per second (Poisson arrivals)
  std::uint64_t delay_min_ns;  ///< job due delay, uniform in [min, max]
  std::uint64_t delay_max_ns;
  double cancel_frac;          ///< cancelled as soon as the schedule's ack arrives
};

Shape shape_of(SvcShape s) {
  return s == SvcShape::kMixed ? Shape{25'000.0, 0, 50 * kMs, 0.05}
                               : Shape{10'000.0, 2 * kSec, 4 * kSec, 0.90};
}

double pct(std::vector<double> v, double p) { return percentile(v, p); }

/// Zipf(s) over tenants by inverse CDF (tenant 0 is the heaviest).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& v : cdf_) v /= sum;
  }
  std::uint32_t pick(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

// ------------------------------------------------------------ open loop

enum JobFlag : std::uint16_t {
  kAcked = 1,
  kWantCancel = 2,
  kCancelSent = 4,
  kCancelAcked = 8,
  kDelivered = 16,
  kShed = 32,
  kCancelShed = 64,
  kInWindow = 128,
  kHaveDeadline = 256,
};

struct JobRec {
  std::uint64_t due_ns = 0;    ///< when the schedule was due to be sent (mono)
  std::uint64_t delay_ns = 0;
  std::uint64_t deadline = 0;  ///< server deadline, from the ack or delivery
  std::uint32_t tenant = 0;
  std::uint16_t flags = 0;

  bool has(std::uint16_t f) const { return (flags & f) != 0; }
  /// The schedule got its ack or its kOverloaded.
  bool answered() const { return has(kAcked | kShed); }
  bool cancel_pending() const {
    return has(kCancelSent) && !has(kCancelAcked | kCancelShed);
  }
  /// Acked, not cancelled, and not delivered yet.
  bool owed() const { return has(kAcked) && !has(kCancelAcked | kDelivered); }
};

/// One request as the client sent it, for the in-process svc rung.
struct LogEntry {
  std::uint64_t t_ns;  ///< send time relative to the run start
  std::uint32_t idx;   ///< job index (schedule/cancel)
  char kind;           ///< 'S' schedule, 'C' cancel, 'P' PollDue
};

struct TenantCount {
  std::uint64_t acked = 0, cancel_acked = 0, delivered = 0, shed = 0;
};

/// The open-loop client: one thread, a producer connection (schedules and
/// cancels) and a worker connection (PollDue every 1 ms, at most one
/// outstanding). Arrivals are Poisson from the seed; every request is
/// stamped with the time it was DUE to be sent, so a stall anywhere shows
/// up in the latency of every request it delayed.
class OpenLoop {
 public:
  OpenLoop(Conn& prod, Conn& work, const Shape& shape, std::uint64_t seed,
           std::uint64_t id_base, bool keep_log)
      : prod_(prod),
        work_(work),
        shape_(shape),
        rng_(seed),
        zipf_(kTenants, kZipfS),
        id_base_(id_base),
        keep_log_(keep_log) {
    start_ = mono_ns();
    next_due_ = start_;
    next_poll_ = start_;
  }

  /// Sizes the per-job records for `seconds` of load up front, so no
  /// reallocation stalls the generator mid-window.
  void reserve(double seconds) {
    const auto jobs = static_cast<std::size_t>(shape_.rate * seconds * 1.2) + 1024;
    jobs_.reserve(jobs);
    ack_us_.reserve(jobs);
    lag_us_.reserve(jobs);
    late_us_.reserve(jobs);
    const auto polls = static_cast<std::size_t>(seconds * 1e9 / kPollPeriodNs);
    if (keep_log_) log_.reserve(jobs * 2 + polls);
  }

  /// Offers load for `seconds`; jobs due in this phase count toward the
  /// measured samples when `window`.
  void generate(double seconds, bool window) {
    window_ = window;
    const std::uint64_t until = mono_after(seconds);
    if (window && window_start_ == 0) window_start_ = mono_ns();
    pump(until, true);
    if (window) window_end_ = mono_ns();
    window_ = false;
  }

  /// Stops offering load and keeps polling until every request is answered,
  /// every acked job that was not cancelled is delivered, and phd reports
  /// an empty backlog — or until `timeout_s`.
  bool drain(double timeout_s) {
    const std::uint64_t deadline = mono_after(timeout_s);
    while (mono_ns() < deadline && alive()) {
      pump(std::min(deadline, mono_ns() + 20 * kMs), false);
      if (settled()) return true;
    }
    return settled();
  }

  /// Waits for the outstanding poll, then stops polling.
  void stop_polling(double timeout_s) {
    polling_ = false;
    const std::uint64_t deadline = mono_after(timeout_s);
    while (poll_out_ && alive() && mono_ns() < deadline) pump(mono_ns() + kMs, false);
  }

  /// kStats over the producer connection (other replies keep flowing).
  bool stats(std::vector<TenantStatRow>& rows, std::uint64_t& backlog, double timeout_s) {
    SvcMsg m;
    m.type = SvcType::kStats;
    prod_.queue(m);
    stats_seen_ = false;
    const std::uint64_t deadline = mono_after(timeout_s);
    while (!stats_seen_ && alive() && mono_ns() < deadline) pump(mono_ns() + kMs, false);
    rows = stats_rows_;
    backlog = stats_backlog_;
    return stats_seen_;
  }

  /// kShutdown over the producer connection; true once phd acks it.
  bool shutdown(double timeout_s) {
    SvcMsg m;
    m.type = SvcType::kShutdown;
    m.a = 1;
    SvcMsg rep;
    return prod_.roundtrip(m, SvcType::kAck, rep, timeout_s) && rep.b == 0;
  }

  bool alive() const { return !prod_.dead() && !work_.dead(); }

  /// True when nothing is outstanding (see drain()).
  bool settled() const {
    if (poll_out_ || backlog_ != 0) return false;
    return std::all_of(jobs_.begin(), jobs_.end(), [](const JobRec& j) {
      return j.answered() && !j.cancel_pending() && !j.owed();
    });
  }

  // ----- what the run saw -----
  std::vector<JobRec> jobs_;
  std::vector<LogEntry> log_;
  std::vector<TenantCount> tenants_ = std::vector<TenantCount>(kTenants);
  std::vector<double> ack_us_, late_us_, lag_us_;  ///< in-window samples
  /// (mono time, phd backlog) from every kDueReply.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> backlog_seen_;
  std::uint64_t start_ = 0, window_start_ = 0, window_end_ = 0;
  std::uint64_t acked_ = 0, window_acked_ = 0, cancels_sent_ = 0, cancel_acked_ = 0;
  std::uint64_t shed_ = 0, errors_ = 0, delivered_ = 0, polls_sent_ = 0, empty_polls_ = 0;
  std::uint64_t duplicates_ = 0, fabricated_ = 0, mismatched_ = 0, unexpected_ = 0;
  std::uint64_t backlog_ = 0;

 private:
  void emit_schedule() {
    JobRec j;
    j.due_ns = next_due_;
    j.tenant = zipf_.pick(rng_.next_double());
    const std::uint64_t spread = shape_.delay_max_ns - shape_.delay_min_ns;
    j.delay_ns = shape_.delay_min_ns + rng_.next_below(spread + 1);
    if (rng_.next_double() < shape_.cancel_frac) j.flags |= kWantCancel;
    if (window_) j.flags |= kInWindow;
    SvcMsg m;
    m.type = SvcType::kSchedule;
    m.tenant = j.tenant;
    m.a = j.delay_ns;
    m.b = id_base_ + jobs_.size() + 1;
    m.c = rng_();
    prod_.queue(m);
    const auto idx = static_cast<std::uint32_t>(jobs_.size());
    if (keep_log_) log_.push_back(LogEntry{mono_ns() - start_, idx, 'S'});
    jobs_.push_back(j);
    due_offset_ns_ += -std::log(1.0 - rng_.next_double()) / shape_.rate * 1e9;
    next_due_ = start_ + static_cast<std::uint64_t>(due_offset_ns_);
  }

  JobRec* job_of(std::uint64_t id) {
    if (id <= id_base_ || id - id_base_ > jobs_.size()) return nullptr;
    return &jobs_[id - id_base_ - 1];
  }

  void on_producer(const SvcMsg& m, std::uint64_t now) {
    if (m.type == SvcType::kAck && m.b == 0) return;  // the kShutdown ack
    if (m.type == SvcType::kStatsReply) {
      stats_rows_ = m.stats;
      stats_backlog_ = m.b;
      stats_seen_ = true;
      return;
    }
    if (m.type == SvcType::kError) {
      ++errors_;
      return;
    }
    JobRec* j = job_of(m.b);
    if (j == nullptr || (m.type != SvcType::kAck && m.type != SvcType::kOverloaded)) {
      ++unexpected_;
      return;
    }
    const bool cancel_pending = j->cancel_pending();
    if (m.type == SvcType::kOverloaded) {
      if (!j->answered()) {
        j->flags |= kShed;
      } else if (cancel_pending) {
        j->flags |= kCancelShed;
      } else {
        ++unexpected_;
        return;
      }
      ++shed_;
      ++tenants_[j->tenant].shed;
      return;
    }
    if (!j->answered()) {  // the schedule's ack
      j->flags |= kAcked;
      ++acked_;
      ++tenants_[j->tenant].acked;
      note_deadline(*j, m.a);
      if (j->has(kInWindow)) {
        ack_us_.push_back(static_cast<double>(now - j->due_ns) / 1e3);
        ++window_acked_;
      }
      if (j->has(kWantCancel)) {
        SvcMsg c;
        c.type = SvcType::kCancel;
        c.tenant = j->tenant;
        c.a = m.a;
        c.b = m.b;
        prod_.queue(c);
        j->flags |= kCancelSent;
        ++cancels_sent_;
        const auto idx = static_cast<std::uint32_t>(m.b - id_base_ - 1);
        if (keep_log_) log_.push_back(LogEntry{now - start_, idx, 'C'});
      }
    } else if (cancel_pending) {  // the cancel's ack
      j->flags |= kCancelAcked;
      ++cancel_acked_;
      ++tenants_[j->tenant].cancel_acked;
    } else {
      ++unexpected_;
    }
  }

  void on_worker(const SvcMsg& m, std::uint64_t now, std::uint64_t real_now) {
    if (m.type != SvcType::kDueReply) {
      ++unexpected_;
      return;
    }
    poll_out_ = false;
    backlog_ = m.b;
    backlog_seen_.emplace_back(now, m.b);
    if (m.jobs.empty()) ++empty_polls_;
    for (const Job& dj : m.jobs) {
      JobRec* j = job_of(dj.id);
      if (j == nullptr || j->tenant != dj.tenant || j->has(kShed)) {
        ++fabricated_;
        continue;
      }
      if (j->has(kDelivered)) {
        ++duplicates_;
        continue;
      }
      j->flags |= kDelivered;
      ++delivered_;
      ++tenants_[j->tenant].delivered;
      note_deadline(*j, dj.deadline_ns);
      if (j->has(kInWindow)) {
        const double late_ns =
            static_cast<double>(real_now) - static_cast<double>(dj.deadline_ns);
        late_us_.push_back(late_ns / 1e3);
      }
    }
  }

  void note_deadline(JobRec& j, std::uint64_t deadline) {
    if (j.has(kHaveDeadline)) {
      if (j.deadline != deadline) ++mismatched_;
    } else {
      j.deadline = deadline;
      j.flags |= kHaveDeadline;
    }
  }

  void pump(std::uint64_t until, bool sending) {
    std::vector<std::uint64_t> batch_due;
    SvcMsg m;
    while (alive()) {
      std::uint64_t now = mono_ns();
      if (now >= until) break;
      batch_due.clear();
      if (sending) {
        while (next_due_ <= now) {
          batch_due.push_back(next_due_);
          emit_schedule();
        }
      }
      if (polling_ && !poll_out_ && now >= next_poll_) {
        SvcMsg p;
        p.type = SvcType::kPollDue;
        p.a = kPollMax;
        work_.queue(p);
        poll_out_ = true;
        ++polls_sent_;
        next_poll_ += kPollPeriodNs;
        if (next_poll_ <= now) next_poll_ = now + kPollPeriodNs;  // skip missed slots
        if (keep_log_) log_.push_back(LogEntry{now - start_, 0, 'P'});
      }
      const std::uint64_t t_send = mono_ns();
      prod_.flush();
      work_.flush();
      if (window_) {
        for (std::uint64_t due : batch_due) {
          lag_us_.push_back(static_cast<double>(t_send - due) / 1e3);
        }
      }

      std::uint64_t wake = until;
      if (sending) wake = std::min(wake, next_due_);
      if (polling_ && !poll_out_) wake = std::min(wake, next_poll_);
      now = mono_ns();
      const std::uint64_t wait = wake > now ? wake - now : 0;
      ::timespec ts{static_cast<time_t>(wait / kSec), static_cast<long>(wait % kSec)};
      auto events = [](const Conn& c) {
        return static_cast<short>(POLLIN | (c.want_write() ? POLLOUT : 0));
      };
      ::pollfd pf[2] = {{prod_.fd(), events(prod_), 0}, {work_.fd(), events(work_), 0}};
      ::ppoll(pf, 2, &ts, nullptr);

      prod_.read_some();
      work_.read_some();
      const std::uint64_t t_recv = mono_ns();
      const std::uint64_t r_recv = real_ns();
      while (prod_.next(m)) on_producer(m, t_recv);
      while (work_.next(m)) on_worker(m, t_recv, r_recv);
    }
  }

  Conn& prod_;
  Conn& work_;
  Shape shape_;
  ph::Xoshiro256 rng_;
  Zipf zipf_;
  std::uint64_t id_base_;
  bool keep_log_;
  bool window_ = false;
  bool polling_ = true;
  bool poll_out_ = false;
  bool stats_seen_ = false;
  std::vector<TenantStatRow> stats_rows_;
  std::uint64_t stats_backlog_ = 0;
  double due_offset_ns_ = 0.0;
  std::uint64_t next_due_ = 0, next_poll_ = 0;
};

// --------------------------------------------------------------- phd runs

/// Starts phd on `dir` and waits until it answers kStats over `conn`;
/// returns the seconds from spawn to that answer (negative on failure).
double start_ready(const Options& opt, PhdProcess& phd, Conn& conn,
                   const std::string& dir, const std::vector<std::string>& extra,
                   const std::string& log, std::vector<TenantStatRow>* rows = nullptr) {
  const std::uint64_t t0 = mono_ns();
  if (!phd.start(opt.phd, dir, extra, log, server_cpu())) return -1.0;
  if (!conn.connect_to(phd.port())) return -1.0;
  SvcMsg req, rep;
  req.type = SvcType::kStats;
  if (!conn.roundtrip(req, SvcType::kStatsReply, rep, 60.0)) return -1.0;
  const double s = static_cast<double>(mono_ns() - t0) / 1e9;
  if (rows != nullptr) *rows = rep.stats;
  return s;
}

bool stop_phd(PhdProcess& phd, Conn& conn) {
  SvcMsg req, rep;
  req.type = SvcType::kShutdown;
  req.a = 1;
  const bool acked = conn.roundtrip(req, SvcType::kAck, rep, 30.0);
  return phd.wait_exit(30.0) && acked;
}

/// Ledger rows equal in every durable column. Shed counts are per boot,
/// and a tenant that was only ever shed has no durable row at all.
bool same_ledger(const std::vector<TenantStatRow>& a,
                 const std::vector<TenantStatRow>& b) {
  using Durable = std::array<std::uint64_t, 5>;
  auto durable = [](const std::vector<TenantStatRow>& rows) {
    std::map<std::uint32_t, Durable> m;
    for (const TenantStatRow& r : rows) {
      const Durable d{r.acked, r.cancel_reqs, r.delivered, r.cancelled, r.requeued};
      if (d != Durable{}) m[r.tenant] = d;
    }
    return m;
  };
  return durable(a) == durable(b);
}

/// Audits phd's per-tenant ledger against what the client saw.
void audit_ledger(const OpenLoop& ol, const std::vector<TenantStatRow>& rows,
                  std::uint64_t backlog, Results& res) {
  std::vector<TenantCount> server(kTenants);
  std::uint64_t cancelled = 0;
  for (const TenantStatRow& r : rows) {
    if (r.tenant >= kTenants) {
      res.fail("svc: ledger has unknown tenant " + std::to_string(r.tenant));
      continue;
    }
    server[r.tenant] = TenantCount{r.acked, r.cancel_reqs, r.delivered, r.shed};
    cancelled += r.cancelled;
    if (r.delivered + r.cancelled != r.acked) {
      res.fail("svc: tenant " + std::to_string(r.tenant) + " acked " +
               std::to_string(r.acked) + " != delivered " + std::to_string(r.delivered) +
               " + cancelled " + std::to_string(r.cancelled) + " after the drain");
    }
  }
  for (std::size_t t = 0; t < kTenants; ++t) {
    const TenantCount& c = ol.tenants_[t];
    const TenantCount& s = server[t];
    auto row = [](const TenantCount& x) {
      return std::to_string(x.acked) + "/" + std::to_string(x.cancel_acked) + "/" +
             std::to_string(x.delivered) + "/" + std::to_string(x.shed);
    };
    if (row(c) != row(s)) {
      res.fail("svc: tenant " + std::to_string(t) +
               " ledger (acked/cancels/delivered/shed) " + row(s) + " != client view " +
               row(c));
    }
  }
  if (backlog != 0) {
    res.fail("svc: backlog " + std::to_string(backlog) + " after the drain");
  }
  if (cancelled > ol.cancel_acked_) {
    res.fail("svc: more jobs cancelled than cancels acked");
  }
}

// --------------------------------------------------------------- WAL scan

using WalRecord = ph::persist::WalRecord<Job>;

bool requeued(const Job& j) {
  return (j.flags & ph::svc::kRequeuedFlag) != 0 && (j.flags & ph::svc::kCancelFlag) == 0;
}

/// Streams every record of every segment in `dir` (in sequence order)
/// through fn(record) until fn returns false or `limit` record bytes were
/// read. Frames are cut by the repository's streaming decoder
/// (dist/frame.hpp, CRC-checked) and decoded as persist::read_segment does,
/// without loading a whole segment (hundreds of MB here) into memory.
template <typename Fn>
void for_each_record(const std::string& dir, std::uint64_t limit, Fn&& fn) {
  std::uint64_t seen = 0;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> chunk(1u << 20);
  WalRecord rec;
  for (const auto& segment : ph::persist::list_wal_segments(dir)) {
    std::FILE* f = std::fopen(segment.second.c_str(), "rb");
    if (f == nullptr) continue;
    ph::dist::FrameParser parser;
    bool header = true;  // the first frame: magic, version, item size, start seq
    bool go = true;
    while (go) {
      const std::size_t n = std::fread(chunk.data(), 1, chunk.size(), f);
      if (n == 0) break;
      parser.feed(std::span<const std::uint8_t>(chunk.data(), n));
      while (go && parser.next(payload) == ph::dist::FrameStatus::kFrame) {
        if (std::exchange(header, false)) continue;
        ph::persist::PayloadReader rd(payload);
        std::uint8_t type = 0;
        std::uint64_t count = 0;
        if (!rd.get_raw(&type, 1) || !rd.get_u64(rec.seq) || !rd.get_u64(rec.k) ||
            !rd.get_u64(count) || rd.remaining() % sizeof(Job) != 0 ||
            count != rd.remaining() / sizeof(Job)) {
          go = false;
          break;
        }
        rec.type = static_cast<ph::persist::RecType>(type);
        rec.items.resize(count);
        if (count > 0) rd.get_raw(rec.items.data(), count * sizeof(Job));
        seen += 8 + payload.size();
        go = fn(static_cast<const WalRecord&>(rec)) && seen < limit;
      }
    }
    std::fclose(f);
    if (!go) return;
  }
}

struct WalTotals {
  std::uint64_t bytes = 0;          ///< all files in the directory
  std::uint64_t records = 0;
  std::uint64_t requeue_items = 0;  ///< jobs re-logged by CLOSE records
  std::uint64_t admit_items = 0;    ///< schedules and cancel markers admitted
  std::uint64_t admit_records = 0;  ///< records that admitted at least one
};

WalTotals scan_wal(const std::string& dir) {
  WalTotals t;
  t.bytes = dir_bytes(dir);
  for_each_record(dir, ~0ull, [&](const WalRecord& rec) {
    ++t.records;
    std::uint64_t admits = 0;
    for (const Job& j : rec.items) {
      if (requeued(j)) {
        ++t.requeue_items;
      } else {
        ++admits;
      }
    }
    t.admit_items += admits;
    if (admits > 0) ++t.admit_records;
    return true;
  });
  return t;
}

// ------------------------------------------------------------ replay rungs

std::uint64_t fold(std::uint64_t h, const Job& j) {
  const std::uint64_t tenant = static_cast<std::uint64_t>(j.tenant) << 44;
  const std::uint64_t job = j.deadline_ns ^ (j.id << 7) ^ tenant ^ j.flags;
  return ph::sim::mix64(h ^ ph::sim::mix64(job));
}

template <typename Q>
void apply_record(Q& q, const WalRecord& rec, std::vector<Job>& out) {
  switch (rec.type) {
    case ph::persist::RecType::kCycle:
      q.cycle(std::span<const Job>(rec.items), rec.k, out);
      break;
    case ph::persist::RecType::kInsert:
      q.cycle(std::span<const Job>(rec.items), 0, out);
      break;
    case ph::persist::RecType::kDelete:
      q.cycle(std::span<const Job>(), rec.k, out);
      break;
    case ph::persist::RecType::kBuild:
      q.build(std::span<const Job>(rec.items));
      break;
  }
}

struct Rung {
  double us = 0;  ///< summed per-record span time
  std::uint64_t records = 0;
  std::uint64_t admitted = 0;       ///< schedules and cancel markers
  std::uint64_t admit_records = 0;  ///< records that admitted at least one
  std::uint64_t out_hash = 0;
};

/// Replays the bounded WAL prefix through apply(record, out), one span per
/// record; `after` runs outside the span (snapshots).
template <typename Apply>
Rung replay(const std::string& wal_dir, Tracer& tr, const char* span, Apply&& apply,
            const std::function<void()>& after = nullptr) {
  Rung r;
  std::vector<Job> out;
  for_each_record(wal_dir, kReplayBytes, [&](const WalRecord& rec) {
    out.clear();
    const std::uint64_t t0 = mono_ns();
    const std::uint32_t id = tr.begin(span);
    apply(rec, out);
    tr.end(id);
    r.us += static_cast<double>(mono_ns() - t0) / 1e3;
    ++r.records;
    const auto admitted = std::count_if(rec.items.begin(), rec.items.end(),
                                        [](const Job& j) { return !requeued(j); });
    r.admitted += static_cast<std::uint64_t>(admitted);
    r.admit_records += admitted > 0 ? 1 : 0;
    for (const Job& j : out) r.out_hash = fold(r.out_hash, j);
    if (after) after();
    return true;
  });
  return r;
}

using RungSharded = ph::ShardedHeap<Job, JobLess>;
using RungDurable = ph::persist::DurableHeap<RungSharded>;

RungSharded make_sharded() {
  RungSharded::Config sc;
  sc.shards = kRungShards;
  return RungSharded(kRungR, sc, JobLess{});
}

ph::persist::DurableOptions durable_opts(const std::string& dir) {
  ph::persist::DurableOptions o;
  o.dir = dir;
  o.fsync = ph::persist::FsyncPolicy::kNever;
  o.checkpoint_interval = 0;
  o.checkpoint_on_open = false;
  return o;
}

/// The WAL-replay waterfall: pipelined (K = 1) -> sharded -> durable ->
/// ingest, each rung re-executing the same records; neighbouring rungs'
/// difference is the layer's price. All rungs must emit the same outputs.
void replay_rungs(const std::string& wal_dir, const std::string& scratch,
                  std::uint64_t seed, Results& res, Tracer& tr) {
  // Rung 1: one PipelinedParallelHeap; the largest snapshot feeds the
  // kernel timings.
  ph::PipelinedParallelHeap<Job, JobLess> pq(kRungR, JobLess{});
  std::vector<Job> snap;
  const Rung r1 = replay(
      wal_dir, tr, "rung.pipelined",
      [&](const WalRecord& rec, std::vector<Job>& out) { apply_record(pq, rec, out); },
      [&] {
        if (pq.size() >= 3 * kRungR && pq.size() * 4 >= snap.size() * 5) {
          snap = drained_nodes(pq);
        }
      });

  // Rung 2: ShardedHeap with phd's layout.
  RungSharded sh = make_sharded();
  const Rung r2 = replay(wal_dir, tr, "rung.sharded",
                         [&](const WalRecord& rec, std::vector<Job>& out) {
                           apply_record(sh, rec, out);
                         });

  // Rung 3: DurableHeap (kNever) over a fresh ShardedHeap; then reopen the
  // directory to time recovery replay.
  const std::string d3 = scratch + "/rung-durable";
  Rung r3;
  double replay_s = 0.0;
  std::uint64_t replayed = 0;
  {
    RungDurable dh(make_sharded(), durable_opts(d3));
    r3 = replay(wal_dir, tr, "rung.durable",
                [&](const WalRecord& rec, std::vector<Job>& out) {
                  apply_record(dh, rec, out);
                });
  }
  {
    Tracer::Scope span(tr, "rung.recovery");
    const std::uint64_t t0 = mono_ns();
    RungDurable reopened(make_sharded(), durable_opts(d3));
    replay_s = static_cast<double>(mono_ns() - t0) / 1e9;
    replayed = reopened.recovery_info().replayed;
  }

  // Rung 4: IngestTier over DurableHeap: admissions are staged per tenant
  // (phd's producer slots), requeues ride the cycle as fresh items.
  const std::string d4 = scratch + "/rung-ingest";
  Rung r4;
  double stage_us = 0.0;
  std::uint64_t staged = 0;
  {
    ph::ingest::IngestConfig ic;
    ic.producers = ph::svc::SvcConfig{}.producers;
    ph::ingest::IngestTier<RungDurable, Job, JobLess> tier(
        RungDurable(make_sharded(), durable_opts(d4)), ic, JobLess{});
    std::vector<Job> fresh;
    auto ingest = [&](const WalRecord& rec, std::vector<Job>& out) {
      fresh.clear();
      {
        const std::uint64_t t0 = mono_ns();
        Tracer::Scope s(tr, "ingest.stage");
        for (const Job& j : rec.items) {
          if (requeued(j)) {
            fresh.push_back(j);
          } else {
            tier.stage(j.tenant, j);
            ++staged;
          }
        }
        stage_us += static_cast<double>(mono_ns() - t0) / 1e3;
      }
      Tracer::Scope s(tr, "ingest.cycle");
      tier.cycle(std::span<const Job>(fresh), rec.k, out);
    };
    r4 = replay(wal_dir, tr, "rung.ingest", ingest);
  }
  std::error_code ec;
  fs::remove_all(d3, ec);
  fs::remove_all(d4, ec);

  if (r1.out_hash != r2.out_hash || r2.out_hash != r3.out_hash ||
      r3.out_hash != r4.out_hash) {
    res.fail("svc: the replay rungs (pipelined/sharded/durable/ingest) disagree");
  }
  if (replayed != r3.records) {
    res.fail("svc: recovery replayed " + std::to_string(replayed) + " of " +
             std::to_string(r3.records) + " records");
  }

  // core.* from rung 1 (per admitted job), sharded.* from rung 2.
  time_kernels(snap, kRungR, JobLess{}, seed, res, tr);
  CoreDelta core;
  core.add(ph::HeapStats{}, pq.stats());
  set_core(res, tr, "rung.pipelined", core, r1.admitted);
  set_sharded(res, tr, "rung.sharded", sh.sharded_stats(), kRungShards);
  const double jobs = static_cast<double>(r1.admitted);

  res.set("persist.replay_records_per_s", per(static_cast<double>(replayed), replay_s),
          "records/s");
  res.set("ingest.stage_ns_per_item", per(stage_us * 1e3, static_cast<double>(staged)),
          "ns/item");
  res.set("ingest.admit_us_per_commit",
          per(r4.us - stage_us - r3.us, static_cast<double>(r4.admit_records)),
          "us/commit");

  std::printf("# waterfall svc replay of %" PRIu64 " WAL records (%" PRIu64
              " admitted jobs), us per job: pipelined %.3f | sharded %.3f | "
              "durable %.3f | ingest %.3f\n",
              r1.records, r1.admitted, per(r1.us, jobs), per(r2.us, jobs),
              per(r3.us, jobs), per(r4.us, jobs));
}

// ---------------------------------------------------------------- svc rung

std::atomic<std::uint64_t> g_fake_now{0};
std::uint64_t fake_clock() { return g_fake_now.load(std::memory_order_relaxed); }

/// The in-process SchedulerCore driven with the run's request log on a fake
/// clock, committing every `commit_batch` staged ops (the mean admission
/// record phd wrote). CPU is counted over the timed window's requests only.
void svc_rung(const OpenLoop& ol, double commit_batch, const std::string& dir,
              Results& res, Tracer& tr) {
  constexpr std::uint64_t kBase = 1'700'000'000'000'000'000ull;
  g_fake_now.store(kBase, std::memory_order_relaxed);
  ph::svc::SvcConfig cfg;
  cfg.dir = dir;
  cfg.clock = &fake_clock;
  const auto batch = std::max<std::size_t>(1, std::llround(commit_batch));
  const std::uint64_t win_lo = ol.window_start_ - ol.start_;
  const std::uint64_t win_hi = ol.window_end_ - ol.start_;
  std::vector<std::uint64_t> deadline(ol.jobs_.size(), 0);
  std::vector<double> sched_ns;
  std::vector<Job> out;
  std::uint64_t cpu_lo = 0, cpu_hi = 0, window_jobs = 0, schedules = 0, delivered = 0;
  std::size_t staged = 0;
  {
    ph::svc::SchedulerCore core(cfg);
    Tracer::Scope span(tr, "rung.svc");
    for (const LogEntry& e : ol.log_) {
      // The log is in send order, so the window is one contiguous stretch.
      const bool in_window = e.t_ns >= win_lo && e.t_ns < win_hi;
      if (in_window && cpu_lo == 0) cpu_lo = thread_cpu_ns();
      if (e.t_ns >= win_hi && cpu_hi == 0) cpu_hi = thread_cpu_ns();
      g_fake_now.store(kBase + e.t_ns, std::memory_order_relaxed);
      if (e.kind == 'S') {
        const JobRec& j = ol.jobs_[e.idx];
        const bool sample = schedules++ % 16 == 0;
        const std::uint64_t t0 = sample ? mono_ns() : 0;
        std::uint64_t dl = 0;
        const ph::svc::Admit a =
            core.schedule(j.tenant, j.delay_ns, e.idx + 1, 0, 0, &dl);
        if (sample) sched_ns.push_back(static_cast<double>(mono_ns() - t0));
        if (a == ph::svc::Admit::kOk) deadline[e.idx] = dl;
        window_jobs += in_window ? 1 : 0;
        if (++staged >= batch) {
          core.commit();
          staged = 0;
        }
      } else if (e.kind == 'C') {
        if (deadline[e.idx] != 0) {
          core.cancel(ol.jobs_[e.idx].tenant, deadline[e.idx], e.idx + 1);
        }
        if (++staged >= batch) {
          core.commit();
          staged = 0;
        }
      } else {
        out.clear();
        core.poll_due(kPollMax, out);
        delivered += out.size();
        staged = 0;
      }
    }
    if (cpu_hi == 0) cpu_hi = thread_cpu_ns();
    core.commit();
    std::string why;
    if (!core.check_invariants(&why)) res.fail("svc rung: " + why);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  res.set("svc.schedule_ns_p50", median(sched_ns), "ns");
  res.set("svc.cpu_us_per_job",
          per(static_cast<double>(cpu_hi - cpu_lo) / 1e3,
              static_cast<double>(window_jobs)),
          "us/job");
  std::printf("# svc rung: %zu requests, commit every %zu staged ops, %" PRIu64
              " delivered (phd delivered %" PRIu64 ")\n",
              ol.log_.size(), batch, delivered, ol.delivered_);
}

// ------------------------------------------------------- capacity search

/// One capacity probe at `rate`: passes when ack p99 <= 10 ms, nothing is
/// shed or refused, >= 99% of the offered jobs are acked, and the backlog
/// is not growing.
bool capacity_probe(Conn& prod, Conn& work, double rate, double seconds,
                    std::uint64_t seed, std::uint64_t id_base) {
  Shape s = shape_of(SvcShape::kMixed);
  s.rate = rate;
  OpenLoop ol(prod, work, s, seed, id_base, false);
  ol.reserve(seconds);
  ol.generate(seconds, true);
  const std::uint64_t end = mono_ns();
  const std::uint64_t mid = ol.window_start_ + (end - ol.window_start_) / 2;
  std::uint64_t backlog_mid = 0, backlog_end = 0;
  for (const auto& [t, b] : ol.backlog_seen_) {
    if (t <= mid) backlog_mid = b;
    if (t <= end) backlog_end = b;
  }
  ol.drain(2.0);
  const double p99 = pct(ol.ack_us_, 99.0);
  const double offered = static_cast<double>(ol.jobs_.size());
  const bool growing = static_cast<double>(backlog_end) >
                       1.5 * static_cast<double>(backlog_mid) + 1000.0;
  const double acked = per(static_cast<double>(ol.acked_), offered);
  const bool pass = ol.alive() && p99 <= kCapAckP99LimitUs && ol.shed_ == 0 &&
                    ol.errors_ == 0 && acked >= 0.99 && !growing;
  std::printf("# capacity probe %.0f jobs/s: ack p99 %.0f us, shed %" PRIu64
              ", acked %.4f, backlog %" PRIu64 " -> %" PRIu64 ": %s\n",
              rate, p99, ol.shed_, acked, backlog_mid, backlog_end,
              pass ? "pass" : "fail");
  return pass;
}

double capacity_search(Conn& prod, Conn& work, const Options& opt) {
  double lo = kCapLo, hi = kCapHi;
  const double probe_s = opt.smoke ? 0.5 : kCapProbeS;
  for (int i = 0; i < kCapProbes; ++i) {
    const double rate = std::sqrt(lo * hi);
    const auto probe = static_cast<std::uint64_t>(i);
    if (capacity_probe(prod, work, rate, probe_s, opt.seed * 7919 + probe,
                       (probe + 1) << 36)) {
      lo = rate;
    } else {
      hi = rate;
    }
    if (prod.dead() || work.dead()) break;
  }
  return lo;
}

// ------------------------------------------------------ phd metrics file

struct PhdTelemetry {
  bool ok = false;
  ph::minijson::Value doc;
  double phase(const char* name, const char* stat) const {
    return doc.at("telemetry").at("phases").at(name).at(stat).number();
  }
  double counter(const char* name) const {
    return doc.at("telemetry").at("counters").at(name).number();
  }
};

PhdTelemetry read_metrics(const std::string& path) {
  PhdTelemetry t;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    t.doc = ph::minijson::parse(ss.str());
    t.ok = true;
  } catch (const std::exception& e) {
    note("cannot parse phd metrics file %s: %s", path.c_str(), e.what());
  }
  return t;
}

}  // namespace

void run_svc(const Options& opt, SvcShape which, Results& res, Tracer& tr) {
  // The generator sleeps in ppoll until the next send is due; the default
  // 50 us timer slack would add up to that much lag to every send.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const Shape shape = shape_of(which);
  const std::string base = opt.work_dir + "/svc";
  std::error_code ec;
  fs::remove_all(base, ec);
  fs::create_directories(base, ec);
  const std::string dir = base + "/wal";
  const std::string metrics_file = base + "/phd-metrics.json";

  // Set-up: phd from spawn until it answers kStats on an empty directory.
  // The last set-up before the window serves the run.
  std::vector<double> setup_s;
  auto setup_probe = [&] {
    PhdProcess p;
    Conn c;
    const std::string d = base + "/setup";
    const double s = start_ready(opt, p, c, d, {}, base + "/phd-setup.log");
    const bool ok = s >= 0.0 && stop_phd(p, c);
    fs::remove_all(d, ec);
    if (ok) setup_s.push_back(s);
    return ok;
  };
  for (int i = 1; i < kSetups; ++i) {
    if (!setup_probe()) {
      res.fail("svc: a phd set-up failed");
      return;
    }
  }
  PhdProcess phd;
  Conn prod;
  std::vector<std::string> extra;
  if (opt.trace) extra = {"--metrics-file", metrics_file};
  {
    const double s = start_ready(opt, phd, prod, dir, extra, base + "/phd.log");
    if (s < 0.0) {
      res.fail("svc: phd did not start");
      return;
    }
    setup_s.push_back(s);
  }
  Conn work;
  {
    SvcMsg req, rep;
    req.type = SvcType::kStats;
    if (!work.connect_to(phd.port()) ||
        !work.roundtrip(req, SvcType::kStatsReply, rep, 30.0)) {
      res.fail("svc: worker connection failed");
      return;
    }
  }

  // Warm-up, long enough for the live set to reach its steady size; then the
  // timed window in quarter-second sub-windows, each giving phd's CPU per
  // acked schedule and the median ack latency.
  OpenLoop ol(prod, work, shape, opt.seed, 0, opt.trace);
  const double warmup_s =
      opt.smoke ? 0.2 : kWarmupS + static_cast<double>(shape.delay_max_ns) / 1e9;
  ol.reserve(warmup_s + opt.seconds);
  ol.generate(warmup_s, false);
  const std::vector<pid_t> tids = thread_ids(phd.pid());
  // With --metrics-file phd starts the publisher thread before the watchdog
  // monitor, so it holds the lowest thread id after the main thread.
  const pid_t publisher = opt.trace && tids.size() >= 3 ? tids[1] : 0;
  const ProcSample p0 = sample_proc(phd.pid());
  const std::uint64_t cpu0 = proc_cpu_ns(phd.pid());
  const std::uint64_t pub0 = publisher != 0 ? task_cpu_ns(phd.pid(), publisher) : 0;
  ::timespec g0{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &g0);
  std::vector<double> sub_ns_per_job, sub_ack_p50;
  const int subs = std::max(1, static_cast<int>(std::lround(opt.seconds / kSubWindowS)));
  std::uint64_t cpu1 = cpu0;
  for (int i = 0; i < subs; ++i) {
    const std::uint64_t c0 = cpu1;
    const std::size_t a0 = ol.ack_us_.size();
    ol.generate(opt.seconds / subs, true);
    cpu1 = proc_cpu_ns(phd.pid());
    std::vector<double> acks(ol.ack_us_.begin() + static_cast<std::ptrdiff_t>(a0),
                             ol.ack_us_.end());
    sub_ns_per_job.push_back(per(cpu1 - c0, acks.size()));
    sub_ack_p50.push_back(pct(acks, 50.0));
  }
  ::timespec g1{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &g1);
  const ProcSample p1 = sample_proc(phd.pid());
  const std::uint64_t pub1 = publisher != 0 ? task_cpu_ns(phd.pid(), publisher) : 0;
  const double window_s = static_cast<double>(ol.window_end_ - ol.window_start_) / 1e9;

  // Drain: every acked, uncancelled job must be delivered.
  const double drain_s = static_cast<double>(shape.delay_max_ns) / 1e9 + 5.0;
  if (!ol.drain(drain_s)) note("svc: drain did not settle within %.1f s", drain_s);
  ol.stop_polling(5.0);
  std::vector<TenantStatRow> before;
  std::uint64_t backlog = 0;
  if (!ol.stats(before, backlog, 30.0)) res.fail("svc: no kStats reply after the drain");
  const ProcSample p_end = sample_proc(phd.pid());
  if (!ol.shutdown(30.0)) res.fail("svc: phd did not ack kShutdown");
  if (!phd.wait_exit(30.0)) res.fail("svc: phd did not exit cleanly");
  audit_ledger(ol, before, backlog, res);

  // Correctness gates on the client's own view.
  std::uint64_t missing_acks = 0, undelivered = 0;
  for (const JobRec& j : ol.jobs_) {
    missing_acks += (j.answered() ? 0 : 1) + (j.cancel_pending() ? 1 : 0);
    undelivered += j.owed() ? 1 : 0;
  }
  auto gate = [&res](std::uint64_t count, const char* what) {
    if (count != 0) res.fail("svc: " + std::to_string(count) + " " + what);
  };
  gate(ol.duplicates_, "jobs delivered twice");
  gate(ol.fabricated_, "deliveries of jobs never sent, or shed");
  gate(ol.mismatched_, "deliveries with a deadline other than the ack's");
  gate(ol.unexpected_, "unexpected replies");
  gate(undelivered, "acked, uncancelled jobs never delivered");
  res.attempted = ol.jobs_.size() + ol.cancels_sent_;
  res.failed = ol.shed_ + ol.errors_ + missing_acks + undelivered;

  // The WAL as left at shutdown.
  const WalTotals wal = scan_wal(dir);

  // Restart: a fresh phd on the run's directory, timed to its first kStats;
  // its replayed ledger must equal the one before shutdown.
  double restart_s = 0.0;
  {
    PhdProcess again;
    Conn rp;
    std::vector<TenantStatRow> after;
    restart_s = start_ready(opt, again, rp, dir, {}, base + "/phd-restart.log", &after);
    if (restart_s < 0.0) {
      res.fail("svc: restarted phd did not answer kStats");
    } else if (!same_ledger(before, after)) {
      res.fail("svc: the restarted phd's ledger differs from the one before shutdown");
    }
    if (opt.trace && which == SvcShape::kMixed && !rp.dead()) {
      Conn rw;
      SvcMsg req, wr;
      req.type = SvcType::kStats;
      if (rw.connect_to(again.port()) &&
          rw.roundtrip(req, SvcType::kStatsReply, wr, 30.0)) {
        Tracer::Scope span(tr, "svc.capacity_search");
        res.set("capacity_jobs_per_s", capacity_search(rp, rw, opt), "jobs/s");
      }
    }
    if (!stop_phd(again, rp)) res.fail("svc: restarted phd did not shut down cleanly");
  }
  for (int i = 0; i < kSetups; ++i) {
    if (!setup_probe()) res.fail("svc: a phd set-up failed");
  }
  res.set("setup_s", median(setup_s), "s");

  // ----- end-to-end metrics -----
  const double cpu_s = static_cast<double>(cpu1 - cpu0) / 1e9;
  const double window_acked = static_cast<double>(ol.window_acked_);
  const std::uint64_t acked_ops = ol.acked_ + ol.cancel_acked_;
  res.set("ns_per_op", quiet(sub_ns_per_job), "ns");
  res.set("latency_p50_us", quiet(sub_ack_p50), "us");
  res.set("peak_rss_mb", p_end.hwm_mib, "MiB");
  res.set("server_cpu_us_per_job", per(cpu_s * 1e6, window_acked), "us/job");
  res.set("ack_p50_us", pct(ol.ack_us_, 50.0), "us");
  res.set("latency_p99_us", pct(ol.ack_us_, 99.0), "us");
  res.set("late_p50_us", pct(ol.late_us_, 50.0), "us");
  res.set("late_p99_us", pct(ol.late_us_, 99.0), "us");
  res.set("wal_bytes_per_job", per(wal.bytes, acked_ops), "B/job");
  res.set("restart_s", restart_s, "s");
  res.set("fail_frac", per(res.failed, res.attempted), "ratio");
  const auto in_window = [](const JobRec& j) { return j.has(kInWindow); };
  const auto window_jobs = std::count_if(ol.jobs_.begin(), ol.jobs_.end(), in_window);
  res.set("offered_jobs_per_s", per(static_cast<double>(window_jobs), window_s),
          "jobs/s");
  res.set("phd_cpu_frac", per(cpu_s, window_s), "ratio");
  res.set("ack_samples", static_cast<double>(ol.ack_us_.size()), "count");
  res.set("late_samples", static_cast<double>(ol.late_us_.size()), "count");
  res.set("wal_mb", static_cast<double>(wal.bytes) / (1u << 20), "MiB");

  // Generator health (a run whose generator lag p99 exceeds 1 ms is invalid).
  const double lag_p99 = pct(ol.lag_us_, 99.0);
  res.set("gen.lag_us_p99", lag_p99, "us");
  res.set("gen.lag_us_max", pct(ol.lag_us_, 100.0), "us");
  const double gen_cpu_s = static_cast<double>(g1.tv_sec - g0.tv_sec) +
                           static_cast<double>(g1.tv_nsec - g0.tv_nsec) / 1e9;
  res.set("gen.cpu_frac", per(gen_cpu_s, window_s), "ratio");
  if (lag_p99 > 1000.0) {
    note("INVALID RUN: generator lag p99 %.0f us exceeds 1 ms", lag_p99);
  }

  if (!opt.trace) {
    fs::remove_all(base, ec);
    return;
  }

  // ----- per-layer metrics -----
  res.set("edge.ctx_switches_per_job",
          per(static_cast<double>(p1.ctx_switches - p0.ctx_switches), window_acked),
          "switches/job");
  const double pub_s = static_cast<double>(pub1 - pub0) / 1e9;
  res.set("trace.overhead_frac", per(pub_s, cpu_s - pub_s), "ratio");
  res.set("persist.bytes_per_record", per(wal.bytes, wal.records), "B/record");
  res.set("persist.records_per_job", per(wal.records, acked_ops), "records/job");
  res.set("persist.requeue_byte_frac",
          per(wal.requeue_items * sizeof(Job), wal.bytes), "ratio");
  std::uint64_t delivered = 0, requeued_n = 0, cancelled = 0, cancel_reqs = 0;
  for (const TenantStatRow& r : before) {
    delivered += r.delivered;
    requeued_n += r.requeued;
    cancelled += r.cancelled;
    cancel_reqs += r.cancel_reqs;
  }
  // Every pop is a delivery, a requeue, a cancelled victim or a cancel marker.
  res.set("svc.pop_yield",
          per(static_cast<double>(delivered),
              static_cast<double>(delivered + requeued_n + cancelled + cancel_reqs)),
          "ratio");
  res.set("svc.requeued_per_poll", per(requeued_n, ol.polls_sent_), "jobs/poll");
  res.set("svc.empty_poll_frac", per(ol.empty_polls_, ol.polls_sent_), "ratio");

  const PhdTelemetry tel = read_metrics(metrics_file);
  if (tel.ok) {
    try {
      res.set("svc.commit_us_p50", tel.phase("svc_commit", "p50_ns") / 1e3, "us");
      res.set("svc.commit_us_p99", tel.phase("svc_commit", "p99_ns") / 1e3, "us");
      res.set("svc.poll_us_p50", tel.phase("svc_dispatch", "p50_ns") / 1e3, "us");
      res.set("svc.poll_us_p99", tel.phase("svc_dispatch", "p99_ns") / 1e3, "us");
      res.set("svc.jobs_per_commit",
              per(static_cast<double>(acked_ops), tel.phase("svc_commit", "count")),
              "jobs/commit");
      res.set("persist.append_us_per_record", tel.phase("wal_append", "mean_ns") / 1e3,
              "us/record");
      res.set("ingest.items_per_run",
              per(tel.counter("ingest_staged"), tel.counter("ingest_runs")), "items/run");
    } catch (const std::exception& e) {
      note("phd metrics file lacks a field: %s", e.what());
    }
  }

  replay_rungs(dir, base, opt.seed, res, tr);
  svc_rung(ol, per(wal.admit_items, wal.admit_records), base + "/rung-svc", res, tr);
  res.set("edge.cpu_us_per_job",
          res.get("server_cpu_us_per_job") - res.get("svc.cpu_us_per_job"), "us/job");
  res.set("ref.binary_ns_per_op", binary_hold_ns_per_op(opt.seed), "ns/op");
  std::printf("# waterfall svc us per job: svc rung %.3f | phd %.3f | edge %.3f\n",
              res.get("svc.cpu_us_per_job"), res.get("server_cpu_us_per_job"),
              res.get("edge.cpu_us_per_job"));
  fs::remove_all(base, ec);
}

}  // namespace stack
