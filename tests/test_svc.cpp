// Scheduler-service tests (src/svc/): the wire protocol codec, SchedulerCore
// exactness against a client-side oracle under a fake clock, durable cancel
// annihilation, DRR fair-share dispatch, backpressure, the pop-until-not-due
// rule (bounded requeues, due hint after a poll ending on a marker or
// victim, delivered sequence vs a due-set + DRR oracle), each admission
// record being the JobLess-sorted staged batch, WAL-replay ledger
// recovery (including kills between a poll's POP and CLOSE records and
// between two POP chunks — the unterminated-transaction path), opening a
// WAL written through the old 4-shard layout, stats()/gauge agreement, and
// passes through the TCP server (end to end, peer hang-up, accept bursts).
// Everything seeded and deterministic; the core's clock is a fn-pointer
// fake, never the wall.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/sharded_heap.hpp"
#include "dist/frame.hpp"
#include "obs/metrics_registry.hpp"
#include "persist/recovery.hpp"
#include "robustness/fault_matrix.hpp"
#include "svc/core.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"

namespace ph {
namespace {

using svc::Admit;
using svc::Job;
using svc::SchedulerCore;
using svc::SvcConfig;
using svc::SvcMsg;
using svc::SvcType;

std::atomic<std::uint64_t>& fake_now() {
  static std::atomic<std::uint64_t> now{1'000'000'000ull};
  return now;
}
std::uint64_t fake_clock() { return fake_now().load(std::memory_order_relaxed); }
void advance_ms(std::uint64_t ms) {
  fake_now().fetch_add(ms * 1'000'000ull, std::memory_order_relaxed);
}

SvcConfig small_cfg(const std::string& dir) {
  SvcConfig cfg;
  cfg.dir = dir;
  cfg.node_capacity = 8;
  cfg.clock = &fake_clock;
  return cfg;
}

struct Dir {
  std::string path;
  explicit Dir(const char* prefix)
      : path(persist::make_temp_dir(prefix)) {}
  ~Dir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// ------------------------------------------------------------------ protocol

TEST(SvcProto, RoundTripsEveryType) {
  std::vector<std::uint8_t> wire;
  for (const SvcType t :
       {SvcType::kSchedule, SvcType::kCancel, SvcType::kPollDue, SvcType::kStats,
        SvcType::kShutdown, SvcType::kAck, SvcType::kOverloaded, SvcType::kError}) {
    SvcMsg m;
    m.type = t;
    m.tenant = 42;
    m.a = 1, m.b = 2, m.c = 3, m.d = 4;
    svc::encode_svc(m, wire);
    SvcMsg got;
    ASSERT_TRUE(svc::decode_svc(std::span<const std::uint8_t>(wire), got))
        << svc::svc_type_name(t);
    EXPECT_EQ(got.type, t);
    EXPECT_EQ(got.tenant, 42u);
    EXPECT_EQ(got.a, 1u);
    EXPECT_EQ(got.d, 4u);
  }
}

TEST(SvcProto, RoundTripsJobAndStatItems) {
  SvcMsg m;
  m.type = SvcType::kDueReply;
  m.a = 99;
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.deadline_ns = 1000u + static_cast<std::uint64_t>(i);
    j.id = static_cast<std::uint64_t>(i) * 7 + 1;
    j.tenant = static_cast<std::uint32_t>(i % 3);
    j.payload0 = 0xdeadbeef;
    m.jobs.push_back(j);
  }
  std::vector<std::uint8_t> wire;
  svc::encode_svc(m, wire);
  SvcMsg got;
  ASSERT_TRUE(svc::decode_svc(std::span<const std::uint8_t>(wire), got));
  ASSERT_EQ(got.jobs.size(), 5u);
  EXPECT_EQ(got.jobs[4].id, 29u);
  EXPECT_EQ(got.jobs[0].payload0, 0xdeadbeefu);

  SvcMsg s;
  s.type = SvcType::kStatsReply;
  svc::TenantStatRow r;
  r.tenant = 7;
  r.acked = 100;
  r.delivered = 60;
  s.stats.push_back(r);
  svc::encode_svc(s, wire);
  ASSERT_TRUE(svc::decode_svc(std::span<const std::uint8_t>(wire), got));
  ASSERT_EQ(got.stats.size(), 1u);
  EXPECT_EQ(got.stats[0].acked, 100u);
}

TEST(SvcProto, StrictDecodeRejectsSkew) {
  SvcMsg m;
  m.type = SvcType::kSchedule;
  std::vector<std::uint8_t> wire;
  svc::encode_svc(m, wire);
  SvcMsg got;
  // Trailing byte.
  auto longer = wire;
  longer.push_back(0);
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(longer), got));
  // Truncation.
  auto shorter = wire;
  shorter.pop_back();
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(shorter), got));
  // Unknown type.
  auto bad = wire;
  bad[0] = 0xEE;
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(bad), got));
  // Items on a type that carries none.
  auto items = wire;
  items[1 + 4 + 32] = 8;  // item_size field
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(items), got));
  // Item-size drift on a carrying type (peer with a different Job layout).
  SvcMsg due;
  due.type = SvcType::kDueReply;
  due.jobs.emplace_back();
  svc::encode_svc(due, wire);
  wire[1 + 4 + 32] = sizeof(Job) - 8;
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(wire), got));
  EXPECT_TRUE(svc::decode_svc(
      [&] {
        svc::encode_svc(due, wire);
        return std::span<const std::uint8_t>(wire);
      }(),
      got));
}

TEST(SvcProto, RejectsWrappingItemCountWithoutThrowing) {
  // A crafted kDueReply whose nitems makes the u64 product `nitems *
  // sizeof(Job)` wrap to exactly the bytes present: nitems = 2^61 + 1 gives
  // 40 * nitems == 5 * 2^64 + 40 == 40 (mod 2^64). A multiply-based length
  // check passes it and the follow-up resize(2^61 + 1) throws through the
  // server loop — decode must simply return false instead.
  SvcMsg due;
  due.type = SvcType::kDueReply;
  due.jobs.emplace_back();
  std::vector<std::uint8_t> wire;
  svc::encode_svc(due, wire);
  const std::size_t nitems_off = 1 + 4 + 4 * 8 + 4;  // type, tenant, a..d, item_size
  const std::uint64_t wrap = (1ull << 61) + 1;
  for (int i = 0; i < 8; ++i) {
    wire[nitems_off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(wrap >> (8 * i));
  }
  SvcMsg got;
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(wire), got));
}

// ---------------------------------------------------------------------- core

TEST(SchedulerCore, SchedulesCommitAndDeliverInDeadlineOrder) {
  Dir dir("ph-svc-basic");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t deadline = 0;
  EXPECT_EQ(core.schedule(1, 30'000'000, 103, 0, 0, &deadline), Admit::kOk);
  EXPECT_EQ(core.schedule(1, 10'000'000, 101, 7, 9, &deadline), Admit::kOk);
  EXPECT_EQ(core.schedule(2, 20'000'000, 102, 0, 0, &deadline), Admit::kOk);
  EXPECT_GT(core.commit(), 0u);
  EXPECT_EQ(core.durable().size(), 3u);  // every staged op admitted
  EXPECT_EQ(core.backlog(), 3u);

  std::vector<Job> due;
  // Nothing due yet.
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  EXPECT_TRUE(due.empty());
  // 25ms later two are due, in deadline order, with payload intact.
  advance_ms(25);
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].id, 101u);
  EXPECT_EQ(due[0].payload0, 7u);
  EXPECT_EQ(due[1].id, 102u);
  EXPECT_EQ(core.backlog(), 1u);
  advance_ms(25);
  due.clear();
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, 103u);
  EXPECT_EQ(core.backlog(), 0u);

  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.acked, 3u);
  EXPECT_EQ(st.delivered, 3u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, SaturatesHugeDelaysInsteadOfWrapping) {
  Dir dir("ph-svc-sat");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t deadline = 0;
  // A client-controlled delay near UINT64_MAX must clamp to the far future,
  // not wrap past `now` and deliver immediately.
  EXPECT_EQ(core.schedule(1, std::numeric_limits<std::uint64_t>::max() - 5, 1,
                          0, 0, &deadline),
            Admit::kOk);
  EXPECT_EQ(deadline, std::numeric_limits<std::uint64_t>::max());
  advance_ms(10);
  std::vector<Job> due;
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(core.backlog(), 1u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, CancelAnnihilatesBeforeDelivery) {
  Dir dir("ph-svc-cancel");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t d1 = 0, d2 = 0;
  ASSERT_EQ(core.schedule(5, 1'000'000, 1, 0, 0, &d1), Admit::kOk);
  ASSERT_EQ(core.schedule(5, 2'000'000, 2, 0, 0, &d2), Admit::kOk);
  ASSERT_EQ(core.cancel(5, d1, 1), Admit::kOk);
  advance_ms(10);
  std::vector<Job> due;
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  ASSERT_EQ(due.size(), 1u);  // job 1 annihilated, job 2 delivered
  EXPECT_EQ(due[0].id, 2u);
  EXPECT_EQ(core.backlog(), 0u);
  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.acked, 2u);
  EXPECT_EQ(st.cancel_reqs, 1u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.delivered, 1u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, CancelAfterDeliveryLeavesTombstoneNotCorruption) {
  Dir dir("ph-svc-late-cancel");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t d1 = 0;
  ASSERT_EQ(core.schedule(3, 1'000'000, 9, 0, 0, &d1), Admit::kOk);
  advance_ms(5);
  std::vector<Job> due;
  core.poll_due(10, due);
  ASSERT_EQ(due.size(), 1u);
  // Too late: the job is gone. The marker must pop harmlessly.
  ASSERT_EQ(core.cancel(3, d1, 9), Admit::kOk);
  advance_ms(5);
  due.clear();
  core.poll_due(10, due);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(core.backlog(), 0u);
  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.delivered, 1u);
  EXPECT_EQ(st.cancelled, 0u);  // nothing annihilated; tombstone parked
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, BackpressureShedsAtWallAndWatermark) {
  Dir dir("ph-svc-shed");
  SvcConfig cfg = small_cfg(dir.path);
  cfg.max_backlog = 64;
  cfg.overload_watermark = 16;
  cfg.admit_rate = 1.0;  // one token/sec: the gate bites immediately above
  cfg.burst = 4.0;       // the watermark once each tenant's burst is spent
  SchedulerCore core(cfg);
  std::uint64_t shed_at_watermark = 0, shed_at_wall = 0, ok = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Admit a = core.schedule(i % 2, 60'000'000'000ull, i + 1, 0, 0);
    if (a == Admit::kOk) {
      ++ok;
    } else if (core.backlog() >= cfg.max_backlog) {
      ++shed_at_wall;
    } else {
      ++shed_at_watermark;
    }
    core.commit();
  }
  EXPECT_GT(shed_at_watermark, 0u);  // token gate engaged above the watermark
  EXPECT_LE(core.backlog(), cfg.max_backlog);
  EXPECT_EQ(core.stats().shed, shed_at_watermark + shed_at_wall);
  EXPECT_EQ(core.stats().acked, ok);
  // Watermark + per-tenant bursts bound admissions: 16 free + 2 tenants * 4.
  EXPECT_LE(ok, 16u + 2u * 4u + 1u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, DrrDeliversWeightedFairShares) {
  Dir dir("ph-svc-drr");
  SvcConfig cfg = small_cfg(dir.path);
  cfg.weight = [](std::uint32_t t) {
    return t == 3 ? 4.0 : (t == 2 ? 2.0 : 1.0);  // weights 1,1,2,4 (sum 8)
  };
  // The popped window must keep every tenant's frontier in play for all 16
  // polls: the heavy tenant's frontier advances 4x faster than the light
  // ones', so a narrow window would run past it and starve it mid-test.
  cfg.poll_over_pull = 40;
  SchedulerCore core(cfg);
  const std::size_t kTenants = 4, kJobs = 800;
  const std::uint64_t base = fake_clock();
  // Interleaved identical deadlines per rank, so the popped frontier always
  // holds all four tenants and fairness is genuinely DRR's doing.
  for (std::size_t j = 0; j < kJobs; ++j) {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      ASSERT_EQ(core.schedule(t, j * 1000, t * 1'000'000 + j, 0, 0), Admit::kOk);
    }
  }
  core.commit();
  advance_ms(3'600'000);  // everything due
  (void)base;

  std::map<std::uint32_t, std::size_t> delivered;
  std::vector<Job> due;
  const std::size_t kPolls = 16, kMax = 50;
  for (std::size_t p = 0; p < kPolls; ++p) {
    due.clear();
    ASSERT_EQ(core.poll_due(kMax, due), svc::PollStatus::kOk);
    for (const Job& j : due) ++delivered[j.tenant];
  }
  const double total = static_cast<double>(kPolls * kMax);
  const double weights[] = {1.0, 1.0, 2.0, 4.0};
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    const double expect = total * weights[t] / 8.0;
    const double got = static_cast<double>(delivered[t]);
    EXPECT_NEAR(got, expect, expect * 0.10)
        << "tenant " << t << " delivered " << got << " expected " << expect;
  }
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

/// Randomized differential: schedule/cancel/poll against a client-side
/// oracle. Every acked uncancelled job is delivered exactly once; cancelled
/// jobs at most once; conservation holds at every checkpointed step.
TEST(SchedulerCore, RandomizedExactnessVsOracle) {
  Dir dir("ph-svc-oracle");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t rng = 0xABCDEF12345ull;
  auto rnd = [&rng]() {
    std::uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> seen;  // -> deliveries
  std::set<std::pair<std::uint32_t, std::uint64_t>> cancelled;
  std::vector<Job> due;
  std::string why;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::uint32_t tenant = static_cast<std::uint32_t>(rnd() % 16);
    std::uint64_t deadline = 0;
    ASSERT_EQ(core.schedule(tenant, rnd() % 40'000'000, i + 1, rnd(), 0, &deadline),
              Admit::kOk);
    seen[{tenant, i + 1}] = 0;
    if (rnd() % 5 == 0) {
      ASSERT_EQ(core.cancel(tenant, deadline, i + 1), Admit::kOk);
      cancelled.insert({tenant, i + 1});
    }
    if (i % 16 == 15) {
      advance_ms(rnd() % 20);
      due.clear();
      core.poll_due(1 + rnd() % 32, due);
      for (const Job& j : due) {
        auto it = seen.find({j.tenant, j.id});
        ASSERT_NE(it, seen.end()) << "delivered a job never scheduled";
        ASSERT_EQ(++it->second, 1) << "job delivered twice";
        ASSERT_EQ(cancelled.count({j.tenant, j.id}), 0u)
            << "pre-delivery cancel failed to annihilate";
      }
      if (i % 256 == 255) {
        ASSERT_TRUE(core.check_invariants(&why)) << why;
      }
    }
  }
  advance_ms(3'600'000);
  for (int iter = 0; iter < 1000 && core.backlog() > 0; ++iter) {
    due.clear();
    core.poll_due(64, due);
    for (const Job& j : due) {
      auto it = seen.find({j.tenant, j.id});
      ASSERT_NE(it, seen.end());
      ASSERT_EQ(++it->second, 1);
      ASSERT_EQ(cancelled.count({j.tenant, j.id}), 0u);
    }
  }
  EXPECT_EQ(core.backlog(), 0u);
  for (const auto& [key, times] : seen) {
    if (cancelled.count(key) == 0) {
      ASSERT_EQ(times, 1) << "job lost: tenant " << key.first << " id "
                          << key.second;
    } else {
      ASSERT_EQ(times, 0);
    }
  }
  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.acked, 2000u);
  EXPECT_EQ(st.acked, st.delivered + st.cancelled);
  ASSERT_TRUE(core.check_invariants(&why)) << why;
}

// ------------------------------------------------------------ pop-until-due

TEST(SchedulerCore, PollRequeuesAtMostOneChunkPastTheDueJobs) {
  Dir dir("ph-svc-one-chunk");
  SvcConfig cfg = small_cfg(dir.path);
  cfg.node_capacity = 128;
  SchedulerCore core(cfg);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_EQ(core.schedule(static_cast<std::uint32_t>(i % 16), 3'600'000'000'000ull,
                            i + 1, 0, 0),
              Admit::kOk);
  }
  std::uint64_t next_id = 1'000'000;
  std::vector<Job> due;
  // Polls with growing due counts: each pops the due jobs plus at most the
  // tail of one chunk, never a fixed max * poll_over_pull window (which
  // would requeue ~2000 far-future jobs per poll here).
  for (const std::uint64_t n_due : {5u, 40u, 3u, 300u, 0u}) {
    for (std::uint64_t i = 0; i < n_due; ++i) {
      ASSERT_EQ(core.schedule(static_cast<std::uint32_t>(i % 4), 1'000'000, next_id++,
                              0, 0),
                Admit::kOk);
    }
    advance_ms(5);
    const std::uint64_t requeued_before = core.stats().requeued;
    due.clear();
    ASSERT_EQ(core.poll_due(1024, due), svc::PollStatus::kOk);
    EXPECT_EQ(due.size(), n_due);
    EXPECT_LE(core.stats().requeued - requeued_before, cfg.node_capacity)
        << "poll with " << n_due << " due jobs";
  }
  EXPECT_EQ(core.backlog(), 10'000u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, JobsBehindAPollEndingOnAMarkerOrVictimStillDeliver) {
  // small_cfg's first POP chunk is 8 items. `ahead` due jobs, then a cancel
  // marker + its victim, then job C, all later than the first poll: with 7
  // ahead the chunk ends on the marker, with 6 on the annihilated victim.
  // Neither is requeued, so a due hint taken from requeues alone would read
  // "heap empty" and strand C forever.
  for (const std::uint64_t ahead : {7u, 6u}) {
    Dir dir("ph-svc-hint");
    SchedulerCore core(small_cfg(dir.path));
    for (std::uint64_t i = 0; i < ahead; ++i) {
      ASSERT_EQ(core.schedule(1, 1'000'000, i + 1, 0, 0), Admit::kOk);
    }
    std::uint64_t victim_deadline = 0;
    ASSERT_EQ(core.schedule(2, 50'000'000, 100, 0, 0, &victim_deadline), Admit::kOk);
    ASSERT_EQ(core.cancel(2, victim_deadline, 100), Admit::kOk);
    ASSERT_EQ(core.schedule(2, 60'000'000, 200, 0, 0), Admit::kOk);
    advance_ms(2);
    std::vector<Job> due;
    ASSERT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
    EXPECT_EQ(due.size(), ahead);
    EXPECT_EQ(core.stats().requeued, 0u) << "the chunk must end on the marker/victim";
    EXPECT_EQ(core.stats().cancelled, ahead == 6 ? 1u : 0u);
    advance_ms(100);
    due.clear();
    ASSERT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
    ASSERT_EQ(due.size(), 1u) << "job behind the " << (ahead == 7 ? "marker" : "victim")
                              << " was stranded";
    EXPECT_EQ(due[0].id, 200u);
    EXPECT_EQ(core.backlog(), 0u);
    EXPECT_EQ(core.stats().cancelled, 1u);
    std::string why;
    EXPECT_TRUE(core.check_invariants(&why)) << why;
  }
}

/// Reference model for the seeded trace below: a sorted multiset of queued
/// jobs and markers. A poll takes every due item, annihilates marked
/// victims, and runs the same DRR over the due jobs. It models no pop
/// budget: the trace keeps each poll's due items within it (`popped`).
struct DispatchOracle {
  using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>;
  std::multiset<Job, svc::JobLess> queued;
  std::map<Key, int> tombstones;
  std::map<std::uint32_t, double> deficit;
  std::uint32_t cursor = std::numeric_limits<std::uint32_t>::max();
  std::size_t popped = 0;  ///< items (jobs and markers) the last poll took

  static Key key(const Job& j) { return Key{j.deadline_ns, j.id, j.tenant}; }

  std::vector<Job> poll(std::size_t max, std::uint64_t now, double quantum,
                        double (*weight)(std::uint32_t)) {
    std::vector<Job> due;
    for (popped = 0; !queued.empty() && queued.begin()->deadline_ns <= now; ++popped) {
      const Job j = *queued.begin();
      queued.erase(queued.begin());
      auto t = tombstones.find(key(j));
      if ((j.flags & svc::kCancelFlag) != 0) {
        ++tombstones[key(j)];
      } else if (t != tombstones.end()) {
        if (--t->second == 0) tombstones.erase(t);
      } else {
        due.push_back(j);
      }
    }
    std::map<std::uint32_t, std::vector<std::size_t>> by_tenant;  // -> due index
    for (std::size_t i = 0; i < due.size(); ++i) by_tenant[due[i].tenant].push_back(i);
    std::map<std::uint32_t, std::size_t> head;
    std::vector<bool> picked(due.size(), false);
    std::size_t granted = 0, remaining = due.size();
    while (granted < max && remaining > 0) {
      bool progressed = false;
      auto serve = [&](std::uint32_t t, const std::vector<std::size_t>& q) {
        std::size_t& h = head[t];
        if (h >= q.size() || granted >= max) return;
        double& d = deficit[t];
        d = std::min(d + quantum * weight(t), 2.0 * quantum * weight(t) + 1.0);
        while (d >= 1.0 && h < q.size() && granted < max) {
          picked[q[h++]] = true;
          d -= 1.0;
          ++granted;
          --remaining;
          progressed = true;
          cursor = t;
        }
        if (h >= q.size()) d = 0.0;
      };
      auto start = by_tenant.upper_bound(cursor);
      for (auto it = start; it != by_tenant.end(); ++it) serve(it->first, it->second);
      for (auto it = by_tenant.begin(); it != start; ++it) serve(it->first, it->second);
      if (!progressed) break;
    }
    std::vector<Job> delivered;
    for (std::size_t i = 0; i < due.size(); ++i) {
      if (picked[i]) {
        delivered.push_back(due[i]);
      } else {
        queued.insert(due[i]);
      }
    }
    return delivered;
  }
};

double oracle_weight(std::uint32_t t) { return 1.0 + static_cast<double>(t % 3); }

TEST(SchedulerCore, SeededTraceDeliversExactlyWhatTheDueSetOracleSelects) {
  Dir dir("ph-svc-due-oracle");
  SvcConfig cfg = small_cfg(dir.path);
  cfg.weight = &oracle_weight;
  cfg.poll_over_pull = 64;  // room for every due item: budget >= 64 per poll
  SchedulerCore core(cfg);
  DispatchOracle oracle;
  std::uint64_t rng = 0x5EEDF00Dull;
  auto rnd = [&rng]() {
    std::uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<Job> scheduled;
  std::vector<Job> due;
  std::size_t polls = 0, delivered = 0;
  auto poll_both = [&](std::size_t max) {
    const std::size_t budget = std::min(
        cfg.max_poll_batch, std::max(max * cfg.poll_over_pull, max));
    const std::vector<Job> expect =
        oracle.poll(max, fake_clock(), cfg.drr_quantum, &oracle_weight);
    ASSERT_LE(oracle.popped, budget) << "trace outgrew the pop budget";
    due.clear();
    ASSERT_EQ(core.poll_due(max, due), svc::PollStatus::kOk);
    ASSERT_EQ(due.size(), expect.size()) << "poll " << polls;
    for (std::size_t i = 0; i < due.size(); ++i) {
      ASSERT_TRUE(svc::same_job(due[i], expect[i]))
          << "poll " << polls << " slot " << i << ": got tenant " << due[i].tenant
          << " id " << due[i].id << ", oracle tenant " << expect[i].tenant << " id "
          << expect[i].id;
    }
    ++polls;
    delivered += due.size();
  };
  for (std::uint64_t i = 0; i < 3000; ++i) {
    Job j;
    j.tenant = static_cast<std::uint32_t>(rnd() % 8);
    j.id = i + 1;
    ASSERT_EQ(core.schedule(j.tenant, rnd() % 30'000'000, j.id, 0, 0, &j.deadline_ns),
              Admit::kOk);
    oracle.queued.insert(j);
    scheduled.push_back(j);
    if (rnd() % 5 == 0) {
      // Cancel a random earlier job: queued, in flight, or long delivered.
      Job marker = scheduled[rnd() % scheduled.size()];
      marker.flags = svc::kCancelFlag;
      ASSERT_EQ(core.cancel(marker.tenant, marker.deadline_ns, marker.id), Admit::kOk);
      oracle.queued.insert(marker);
    }
    if (i % 8 == 7) {
      advance_ms(rnd() % 10);
      ASSERT_NO_FATAL_FAILURE(poll_both(1 + rnd() % 24));
    }
  }
  advance_ms(3'600'000);
  for (int iter = 0; iter < 1000 && core.backlog() > 0; ++iter) {
    ASSERT_NO_FATAL_FAILURE(poll_both(64));
  }
  EXPECT_EQ(core.backlog(), 0u);
  EXPECT_TRUE(oracle.queued.empty());
  EXPECT_EQ(core.stats().delivered, delivered);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

// ------------------------------------------------------------------ recovery

TEST(SchedulerCore, RecoveryReplaysLedgerBitExactly) {
  Dir dir("ph-svc-recover");
  std::vector<svc::TenantStatRow> before;
  std::size_t backlog_before = 0;
  std::uint64_t seq_before = 0;
  {
    SchedulerCore core(small_cfg(dir.path));
    std::uint64_t rng = 77;
    auto rnd = [&rng]() { return rng = rng * 6364136223846793005ull + 1442695040888963407ull; };
    std::vector<Job> due;
    for (std::uint64_t i = 0; i < 600; ++i) {
      const std::uint32_t t = static_cast<std::uint32_t>(rnd() % 8);
      std::uint64_t deadline = 0;
      ASSERT_EQ(core.schedule(t, rnd() % 30'000'000, i + 1, 0, 0, &deadline),
                Admit::kOk);
      if (rnd() % 6 == 0) {
        ASSERT_EQ(core.cancel(t, deadline, i + 1), Admit::kOk);
      }
      if (i % 32 == 31) {
        advance_ms(10);
        core.poll_due(16, due);
        due.clear();
      }
    }
    core.commit();
    before = core.stat_rows();
    backlog_before = core.backlog();
    seq_before = core.durable().op_seq();
  }  // no checkpoint, no graceful anything: destruction == the process dying

  SchedulerCore core(small_cfg(dir.path));
  EXPECT_EQ(core.durable().op_seq(), seq_before);
  EXPECT_EQ(core.backlog(), backlog_before);
  const auto after = core.stat_rows();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].tenant, before[i].tenant);
    EXPECT_EQ(after[i].acked, before[i].acked) << "tenant " << before[i].tenant;
    EXPECT_EQ(after[i].cancel_reqs, before[i].cancel_reqs);
    EXPECT_EQ(after[i].delivered, before[i].delivered);
    EXPECT_EQ(after[i].cancelled, before[i].cancelled);
    EXPECT_EQ(after[i].requeued, before[i].requeued);
  }
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, KillBetweenPopAndCloseRequeuesInFlight) {
  Dir dir("ph-svc-torn-txn");
  std::size_t backlog_before = 0;
  std::uint64_t acked_before = 0;
  {
    SchedulerCore core(small_cfg(dir.path));
    for (std::uint64_t i = 0; i < 40; ++i) {
      ASSERT_EQ(core.schedule(i % 4, 1'000'000, i + 1, 0, 0), Admit::kOk);
    }
    core.commit();
    backlog_before = core.backlog();
    acked_before = core.stats().acked;
  }
  // Synthesize the torn transaction: append POP records (cycle k>0) through
  // a RAW DurableHeap on the same directory — and "die" before any CLOSE.
  // Two records, because a real wide poll window is a *run* of POP records
  // (one per node_capacity) stacked under a single CLOSE.
  {
    persist::DurableOptions opt;
    opt.dir = dir.path;
    opt.checkpoint_interval = 0;
    opt.checkpoint_on_open = false;
    ShardedHeap<Job, svc::JobLess>::Config sc;
    sc.shards = 2;
    persist::DurableHeap<ShardedHeap<Job, svc::JobLess>> raw(
        ShardedHeap<Job, svc::JobLess>(8, sc, svc::JobLess{}),
        std::move(opt));
    std::vector<Job> popped;
    ASSERT_EQ(raw.cycle({}, 8, popped), 8u);
    popped.clear();
    ASSERT_EQ(raw.cycle({}, 8, popped), 8u);
  }
  // Recovery: the 16 popped jobs are an unterminated transaction — no
  // client saw them, so they must be requeued, not lost.
  SchedulerCore core(small_cfg(dir.path));
  EXPECT_EQ(core.stats().recovered_inflight, 16u);
  EXPECT_EQ(core.backlog(), backlog_before);  // all 40 still queued
  EXPECT_EQ(core.stats().acked, acked_before);
  advance_ms(10);
  std::vector<Job> due;
  std::set<std::uint64_t> ids;
  for (int iter = 0; iter < 100 && core.backlog() > 0; ++iter) {
    due.clear();
    core.poll_due(16, due);
    for (const Job& j : due) {
      EXPECT_TRUE(ids.insert(j.id).second) << "job " << j.id << " delivered twice";
    }
  }
  EXPECT_EQ(ids.size(), 40u);  // exactly once each, despite the torn poll
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, DeathBetweenPopChunksRequeuesThePoppedPrefix) {
  if (!robustness::kFailpoints) GTEST_SKIP() << "fail points compiled out";
  Dir dir("ph-svc-torn-chunks");
  std::vector<svc::TenantStatRow> before;
  {
    SchedulerCore core(small_cfg(dir.path));
    for (std::uint64_t i = 0; i < 40; ++i) {
      ASSERT_EQ(core.schedule(static_cast<std::uint32_t>(i % 4), 1'000'000, i + 1, 0, 0),
                Admit::kOk);
    }
    core.commit();
    before = core.stat_rows();
    advance_ms(5);
    // Everything is due, so the poll pops an 8-item chunk, then a 16-item
    // one. The second POP record's append dies (the segment is truncated
    // back, as a kill mid-write leaves it) and the core is abandoned.
    robustness::FireSpec spec;
    spec.nth = 2;
    robustness::arm(robustness::FailSite::kWalAppend, spec);
    std::vector<Job> due;
    EXPECT_THROW(core.poll_due(16, due), robustness::InjectedFault);
    robustness::disarm_all();
    EXPECT_TRUE(due.empty());
  }
  std::vector<svc::TenantStatRow> recovered;
  {
    SchedulerCore core(small_cfg(dir.path));
    EXPECT_EQ(core.stats().recovered_inflight, 8u);  // the first chunk only
    EXPECT_EQ(core.backlog(), 40u);
    recovered = core.stat_rows();
    ASSERT_EQ(recovered.size(), before.size());
    std::uint64_t requeued = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(recovered[i].acked, before[i].acked);
      EXPECT_EQ(recovered[i].delivered, 0u);
      EXPECT_EQ(recovered[i].cancelled, 0u);
      requeued += recovered[i].requeued;
    }
    EXPECT_EQ(requeued, 8u);
    std::string why;
    EXPECT_TRUE(core.check_invariants(&why)) << why;
  }
  // The recovery's CLOSE record is in the WAL now: a second replay rebuilds
  // the same ledger bit-exactly, with nothing left in flight.
  SchedulerCore core(small_cfg(dir.path));
  EXPECT_EQ(core.stats().recovered_inflight, 0u);
  const auto again = core.stat_rows();
  ASSERT_EQ(again.size(), recovered.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].tenant, recovered[i].tenant);
    EXPECT_EQ(again[i].acked, recovered[i].acked);
    EXPECT_EQ(again[i].cancel_reqs, recovered[i].cancel_reqs);
    EXPECT_EQ(again[i].delivered, recovered[i].delivered);
    EXPECT_EQ(again[i].cancelled, recovered[i].cancelled);
    EXPECT_EQ(again[i].requeued, recovered[i].requeued);
  }
  std::vector<Job> due;
  std::set<std::uint64_t> ids;
  for (int iter = 0; iter < 100 && core.backlog() > 0; ++iter) {
    due.clear();
    core.poll_due(16, due);
    for (const Job& j : due) {
      EXPECT_TRUE(ids.insert(j.id).second) << "job " << j.id << " delivered twice";
    }
  }
  EXPECT_EQ(ids.size(), 40u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, RefusesDirectoryWithForeignCheckpoint) {
  Dir dir("ph-svc-foreign");
  {
    // Someone else's DurableHeap, WITH checkpoints: poison for the ledger.
    persist::DurableOptions opt;
    opt.dir = dir.path;
    opt.checkpoint_interval = 1;
    ShardedHeap<Job, svc::JobLess>::Config sc;
    sc.shards = 2;
    persist::DurableHeap<ShardedHeap<Job, svc::JobLess>> raw(
        ShardedHeap<Job, svc::JobLess>(8, sc, svc::JobLess{}),
        std::move(opt));
    std::vector<Job> fresh(3);
    std::vector<Job> out;
    raw.cycle(std::span<const Job>(fresh), 0, out);
  }
  EXPECT_THROW(
      {
        SchedulerCore c(small_cfg(dir.path));
        (void)c;
      },
      persist::CorruptStateError);
}

/// Every WAL record in `dir`, in log order.
std::vector<persist::WalRecord<Job>> wal_records(const std::string& dir) {
  std::vector<persist::WalRecord<Job>> recs;
  for (const auto& [seq, path] : persist::list_wal_segments(dir)) {
    (void)seq;
    for (auto& r : persist::read_segment<Job>(path).records) recs.push_back(std::move(r));
  }
  return recs;
}

/// A seeded schedule/cancel/poll history that leaves a backlog, every
/// transaction closed.
void run_history(SchedulerCore& core, std::uint64_t seed, std::uint64_t ops) {
  std::uint64_t rng = seed;
  auto rnd = [&rng]() { return rng = rng * 6364136223846793005ull + 1442695040888963407ull; };
  std::vector<Job> due;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint32_t t = static_cast<std::uint32_t>((rnd() >> 33) % 8);
    std::uint64_t deadline = 0;
    ASSERT_EQ(core.schedule(t, (rnd() >> 20) % 30'000'000, i + 1, 0, 0, &deadline),
              Admit::kOk);
    if ((rnd() >> 40) % 6 == 0) {
      ASSERT_EQ(core.cancel(t, deadline, i + 1), Admit::kOk);
    }
    if (i % 32 == 31) {
      advance_ms(10);
      due.clear();
      core.poll_due(16, due);
    }
  }
  core.commit();
}

TEST(SchedulerCore, AdmissionRecordIsTheSortedStagedBatch) {
  // commit() logs everything staged since the previous commit as the fresh
  // items of one record, sorted by JobLess. Twelve tenants, batches of 1..64
  // schedules and cancels, polls between some commits; the WAL is read back
  // record by record, then reopened.
  Dir dir("ph-svc-admit-batch");
  constexpr std::uint32_t kTenants = 12;
  std::uint64_t rng = 0x5eed;
  auto rnd = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 17;
  };
  auto full_less = [](const Job& a, const Job& b) {
    return std::tie(a.deadline_ns, a.tenant, a.id, a.flags, a.payload0, a.payload1) <
           std::tie(b.deadline_ns, b.tenant, b.id, b.flags, b.payload0, b.payload1);
  };
  std::vector<std::vector<Job>> batches;  // each commit's staged ops, in order
  std::vector<Job> scheduled;             // cancel targets
  std::vector<svc::TenantStatRow> rows;
  svc::SvcStats stats;
  {
    SchedulerCore core(small_cfg(dir.path));
    std::vector<Job> due;
    std::uint64_t id = 0;
    for (int c = 0; c < 60; ++c) {
      std::vector<Job> batch;
      const std::size_t n = 1 + rnd() % 64;
      for (std::size_t i = 0; i < n; ++i) {
        Job j;
        if (!scheduled.empty() && rnd() % 4 == 0) {
          const Job& victim = scheduled[rnd() % scheduled.size()];
          ASSERT_EQ(core.cancel(victim.tenant, victim.deadline_ns, victim.id), Admit::kOk);
          j = victim;
          j.flags = svc::kCancelFlag;
          j.payload0 = j.payload1 = 0;
        } else {
          j.tenant = static_cast<std::uint32_t>(rnd() % kTenants);
          j.id = ++id;
          j.payload0 = rnd();
          j.payload1 = rnd();
          // A coarse delay grid, so deadlines tie across tenants and ids.
          ASSERT_EQ(core.schedule(j.tenant, (rnd() % 16) * 1'000'000, j.id, j.payload0,
                                  j.payload1, &j.deadline_ns),
                    Admit::kOk);
          scheduled.push_back(j);
        }
        batch.push_back(j);
      }
      EXPECT_EQ(core.backlog(), core.durable().size() + n);
      ASSERT_EQ(core.commit(), n) << "commit " << c;
      batches.push_back(std::move(batch));
      if (c % 3 == 2) {  // nothing staged: the poll writes only POP/CLOSE
        advance_ms(5);
        due.clear();
        core.poll_due(24, due);
      }
    }
    std::string why;
    EXPECT_TRUE(core.check_invariants(&why)) << why;
    rows = core.stat_rows();
    stats = core.stats();
    EXPECT_GT(stats.delivered, 0u);
    EXPECT_GT(stats.cancelled, 0u);
    EXPECT_GT(stats.requeued, 0u);
  }

  // Admission records are the k == 0 records whose items are not requeues
  // (a CLOSE record carries only requeued jobs, or nothing).
  std::size_t b = 0;
  for (const auto& r : wal_records(dir.path)) {
    if (r.k != 0 || r.items.empty()) continue;
    const bool requeues = (r.items.front().flags & svc::kRequeuedFlag) != 0;
    for (const Job& j : r.items) {
      ASSERT_EQ((j.flags & svc::kRequeuedFlag) != 0, requeues) << "mixed record";
    }
    if (requeues) continue;
    ASSERT_LT(b, batches.size()) << "more admission records than commits";
    EXPECT_TRUE(std::is_sorted(r.items.begin(), r.items.end(), svc::JobLess{}))
        << "admission record " << b;
    std::vector<Job> got = r.items, want = batches[b];
    std::sort(got.begin(), got.end(), full_less);
    std::sort(want.begin(), want.end(), full_less);
    ASSERT_EQ(got.size(), want.size()) << "admission record " << b;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_FALSE(full_less(got[i], want[i]) || full_less(want[i], got[i]))
          << "admission record " << b << " item " << i;
    }
    ++b;
  }
  EXPECT_EQ(b, batches.size());

  // The reopened ledger: every row and every WAL-derived total identical;
  // the per-boot counts (polls, commits, aborts) start over at zero.
  SchedulerCore core(small_cfg(dir.path));
  const auto after = core.stat_rows();
  ASSERT_EQ(after.size(), rows.size());
  EXPECT_EQ(after.size(), kTenants);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(after[i].tenant, rows[i].tenant);
    EXPECT_EQ(after[i].acked, rows[i].acked) << "tenant " << rows[i].tenant;
    EXPECT_EQ(after[i].cancel_reqs, rows[i].cancel_reqs);
    EXPECT_EQ(after[i].delivered, rows[i].delivered);
    EXPECT_EQ(after[i].cancelled, rows[i].cancelled);
    EXPECT_EQ(after[i].requeued, rows[i].requeued);
    EXPECT_EQ(after[i].shed, rows[i].shed);
  }
  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.acked, stats.acked);
  EXPECT_EQ(st.cancel_reqs, stats.cancel_reqs);
  EXPECT_EQ(st.delivered, stats.delivered);
  EXPECT_EQ(st.cancelled, stats.cancelled);
  EXPECT_EQ(st.requeued, stats.requeued);
  EXPECT_EQ(st.shed, stats.shed);
  EXPECT_EQ(st.recovered_inflight, stats.recovered_inflight);
  EXPECT_EQ(st.polls + st.commits + st.aborted_polls, 0u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, OpensAWalWrittenThroughTheFourShardLayout) {
  // Before the service ran on one pipelined heap, phd logged through
  // DurableHeap<ShardedHeap<Job>> with K = 4. WAL records are layout-free
  // cycle(items, k) records, so such a directory opens to the same ledger
  // and its heap pops the same job stream a ShardedHeap replay does.
  using Sharded = ShardedHeap<Job, svc::JobLess>;
  const auto four_shards = [] {
    Sharded::Config sc;
    sc.shards = 4;
    return Sharded(8, sc, svc::JobLess{});
  };
  Dir live("ph-svc-layout-live"), old("ph-svc-layout-old");
  std::vector<svc::TenantStatRow> rows;
  std::size_t backlog = 0;
  {
    SchedulerCore core(small_cfg(live.path));
    ASSERT_NO_FATAL_FAILURE(run_history(core, 91, 800));
    rows = core.stat_rows();
    backlog = core.backlog();
    EXPECT_GT(core.stats().cancelled, 0u);  // the WAL carries every record shape
    EXPECT_GT(core.stats().requeued, 0u);
    EXPECT_GT(backlog, 0u);
  }
  // Re-log the service's records through the 4-shard layout.
  const auto recs = wal_records(live.path);
  ASSERT_GT(recs.size(), 10u);
  {
    persist::DurableOptions opt;
    opt.dir = old.path;
    opt.checkpoint_interval = 0;
    opt.checkpoint_on_open = false;
    persist::DurableHeap<Sharded> raw(four_shards(), std::move(opt));
    std::vector<Job> out;
    for (const auto& r : recs) {
      ASSERT_EQ(r.type, persist::RecType::kCycle);
      out.clear();
      raw.cycle(std::span<const Job>(r.items), r.k, out);
    }
  }
  // The reference: a bare 4-shard heap replaying that WAL, then drained.
  Sharded ref = four_shards();
  std::vector<Job> sink, want;
  for (const auto& r : wal_records(old.path)) {
    sink.clear();
    ref.cycle(std::span<const Job>(r.items), r.k, sink);
  }
  while (!ref.empty()) ref.cycle({}, 8, want);

  std::vector<Job> got;
  {
    SchedulerCore core(small_cfg(old.path));
    EXPECT_EQ(core.stats().recovered_inflight, 0u);
    EXPECT_EQ(core.backlog(), backlog);
    const auto after = core.stat_rows();
    ASSERT_EQ(after.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(after[i].tenant, rows[i].tenant);
      EXPECT_EQ(after[i].acked, rows[i].acked) << "tenant " << rows[i].tenant;
      EXPECT_EQ(after[i].cancel_reqs, rows[i].cancel_reqs);
      EXPECT_EQ(after[i].delivered, rows[i].delivered);
      EXPECT_EQ(after[i].cancelled, rows[i].cancelled);
      EXPECT_EQ(after[i].requeued, rows[i].requeued);
    }
    std::string why;
    EXPECT_TRUE(core.check_invariants(&why)) << why;
    // Drain the recovered heap itself (no WAL writes: the directory stays).
    auto& heap = core.durable().heap();
    while (!heap.empty()) heap.cycle({}, 8, got);
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(svc::same_job(got[i], want[i]) && got[i].flags == want[i].flags)
        << "pop " << i << ": got tenant " << got[i].tenant << " id " << got[i].id
        << ", 4-shard replay tenant " << want[i].tenant << " id " << want[i].id;
  }
  // And the service drains it: every queued job exactly once.
  SchedulerCore core(small_cfg(old.path));
  advance_ms(3'600'000);
  std::vector<Job> due;
  std::set<std::pair<std::uint32_t, std::uint64_t>> ids;
  for (int iter = 0; iter < 1000 && core.backlog() > 0; ++iter) {
    due.clear();
    core.poll_due(64, due);
    for (const Job& j : due) {
      EXPECT_TRUE(ids.insert({j.tenant, j.id}).second) << "job " << j.id << " twice";
    }
  }
  EXPECT_EQ(core.backlog(), 0u);
  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.acked, st.delivered + st.cancelled);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, StatsGaugesAndTenantRowsCountEachQuantityOnce) {
  // Each service-wide total is one Live word: stats() and the svc_* gauges
  // read it, and it equals the tenant rows' column sum. They agree at every
  // quiescent point, across sheds, an aborted poll, a torn poll and the
  // recovery that requeues it.
  Dir dir("ph-svc-one-path");
  SvcConfig cfg = small_cfg(dir.path);
  cfg.max_backlog = 600;
  const std::string label = "svc-one-path";
  auto expect_match = [&](SchedulerCore& core, const char* when) {
    const svc::SvcStats st = core.stats();
    svc::SvcStats sum;
    for (const svc::TenantStatRow& r : core.stat_rows()) {
      sum.acked += r.acked;
      sum.cancel_reqs += r.cancel_reqs;
      sum.delivered += r.delivered;
      sum.cancelled += r.cancelled;
      sum.requeued += r.requeued;
      sum.shed += r.shed;
    }
    EXPECT_EQ(st.acked, sum.acked) << when;
    EXPECT_EQ(st.cancel_reqs, sum.cancel_reqs) << when;
    EXPECT_EQ(st.delivered, sum.delivered) << when;
    EXPECT_EQ(st.cancelled, sum.cancelled) << when;
    EXPECT_EQ(st.requeued, sum.requeued) << when;
    EXPECT_EQ(st.shed, sum.shed) << when;
    std::map<std::string, double> g;
    for (const auto& s : obs::MetricsRegistry::instance().snapshot().gauges) {
      for (const auto& [k, v] : s.desc.labels) {
        if (k == "heap" && v == label) g[s.desc.name] = s.value;
      }
    }
    const std::pair<const char*, std::uint64_t> totals[] = {
        {"svc_acked_total", st.acked},
        {"svc_delivered_total", st.delivered},
        {"svc_shed_total", st.shed},
    };
    for (const auto& [name, want] : totals) {
      ASSERT_EQ(g.count(name), 1u) << name;
      EXPECT_EQ(g[name], static_cast<double>(want)) << name << " " << when;
    }
    std::string why;
    EXPECT_TRUE(core.check_invariants(&why)) << why;
  };
  {
    SchedulerCore core(cfg);
    core.register_gauges(label);
    ASSERT_NO_FATAL_FAILURE(run_history(core, 7, 400));
    expect_match(core, "after a mixed history");
    EXPECT_GT(core.stats().requeued, 0u);
    std::uint64_t shed = 0;
    for (std::uint64_t i = 0; i < 600; ++i) {
      shed += core.schedule(3, 3'600'000'000'000ull, 10'000 + i, 0, 0) ==
                      Admit::kOverloaded ? 1 : 0;
    }
    core.commit();
    EXPECT_GT(shed, 0u);
    expect_match(core, "after shedding at the wall");
    if (robustness::kFailpoints) {
      advance_ms(50);
      robustness::arm(robustness::FailSite::kSvcDispatch, robustness::FireSpec{});
      std::vector<Job> due;
      EXPECT_EQ(core.poll_due(16, due), svc::PollStatus::kAborted);
      robustness::disarm_all();
      EXPECT_EQ(core.stats().aborted_polls, 1u);
      expect_match(core, "after an aborted poll");
      // A torn poll: the second POP record's append dies mid-transaction.
      robustness::FireSpec spec;
      spec.nth = 2;
      robustness::arm(robustness::FailSite::kWalAppend, spec);
      EXPECT_THROW(core.poll_due(16, due), robustness::InjectedFault);
      robustness::disarm_all();
    }
  }
  SchedulerCore core(cfg);
  core.register_gauges(label);
  if (robustness::kFailpoints) {
    EXPECT_GT(core.stats().recovered_inflight, 0u);
  }
  expect_match(core, "after recovery");
  std::vector<Job> due;
  advance_ms(3'600'000);
  for (int iter = 0; iter < 1000 && core.backlog() > 0; ++iter) {
    due.clear();
    core.poll_due(64, due);
  }
  EXPECT_EQ(core.backlog(), 0u);
  expect_match(core, "after a full drain");
}

// ---------------------------------------------------------------- tcp server

TEST(SvcServer, EndToEndScheduleAckPollShutdown) {
  Dir dir("ph-svc-server");
  svc::ServerConfig cfg;
  cfg.core = small_cfg(dir.path);
  cfg.core.clock = nullptr;  // the server runs on the wall clock
  cfg.port = 0;
  cfg.watchdog = false;
  svc::Server server(cfg);
  const std::uint16_t port = server.port();
  std::thread loop([&server] { server.run(); });

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)), 0);

  dist::FrameParser parser;
  std::vector<std::uint8_t> enc, wire;
  auto send_msg = [&](const SvcMsg& m) {
    svc::encode_svc(m, enc);
    ASSERT_TRUE(dist::send_frame_fd(fd, std::span<const std::uint8_t>(enc), wire));
  };
  auto recv_msg = [&](SvcMsg& m) {
    std::vector<std::uint8_t> payload;
    while (parser.next(payload) != dist::FrameStatus::kFrame) {
      std::uint8_t chunk[4096];
      const ::ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
      ASSERT_GT(r, 0);
      parser.feed(std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(r)));
    }
    ASSERT_TRUE(svc::decode_svc(std::span<const std::uint8_t>(payload), m));
  };

  // Schedule 3 immediate jobs; acks arrive after the group commit.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    SvcMsg m;
    m.type = SvcType::kSchedule;
    m.tenant = 9;
    m.a = 0;  // due immediately
    m.b = id;
    m.c = id * 100;
    send_msg(m);
  }
  for (int i = 0; i < 3; ++i) {
    SvcMsg ack;
    recv_msg(ack);
    ASSERT_EQ(ack.type, SvcType::kAck);
    EXPECT_GE(ack.b, 1u);
    EXPECT_LE(ack.b, 3u);
  }
  // Poll them back.
  std::set<std::uint64_t> got;
  for (int tries = 0; tries < 50 && got.size() < 3; ++tries) {
    SvcMsg p;
    p.type = SvcType::kPollDue;
    p.a = 8;
    send_msg(p);
    SvcMsg rep;
    recv_msg(rep);
    ASSERT_EQ(rep.type, SvcType::kDueReply);
    for (const Job& j : rep.jobs) {
      EXPECT_EQ(j.tenant, 9u);
      EXPECT_TRUE(got.insert(j.id).second) << "duplicate delivery";
    }
  }
  EXPECT_EQ(got.size(), 3u);
  // Stats reflect the ledger.
  SvcMsg q;
  q.type = SvcType::kStats;
  send_msg(q);
  SvcMsg stats;
  recv_msg(stats);
  ASSERT_EQ(stats.type, SvcType::kStatsReply);
  ASSERT_EQ(stats.stats.size(), 1u);
  EXPECT_EQ(stats.stats[0].acked, 3u);
  EXPECT_EQ(stats.stats[0].delivered, 3u);
  // Drain: the shutdown ack is the last frame out.
  SvcMsg bye;
  bye.type = SvcType::kShutdown;
  bye.a = 1;
  send_msg(bye);
  SvcMsg ack;
  recv_msg(ack);
  EXPECT_EQ(ack.type, SvcType::kAck);
  loop.join();
  ::close(fd);
}

TEST(SvcServer, MalformedFrameGetsErrorThenClose) {
  Dir dir("ph-svc-badframe");
  svc::ServerConfig cfg;
  cfg.core = small_cfg(dir.path);
  cfg.core.clock = nullptr;
  cfg.port = 0;
  cfg.watchdog = false;
  svc::Server server(cfg);
  const std::uint16_t port = server.port();
  std::thread loop([&server] { server.run(); });

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)), 0);
  // A well-framed but undecodable payload: kError, then the server hangs up.
  const std::vector<std::uint8_t> junk = {0x00, 0x01, 0x02};
  std::vector<std::uint8_t> wire;
  ASSERT_TRUE(dist::send_frame_fd(fd, std::span<const std::uint8_t>(junk), wire));
  dist::FrameParser parser;
  SvcMsg rep;
  bool got_error = false, closed = false;
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 100 && !closed; ++i) {
    std::uint8_t chunk[4096];
    const ::ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) {
      closed = true;
      break;
    }
    parser.feed(std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(r)));
    while (parser.next(payload) == dist::FrameStatus::kFrame) {
      ASSERT_TRUE(svc::decode_svc(std::span<const std::uint8_t>(payload), rep));
      if (rep.type == SvcType::kError) got_error = true;
    }
  }
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(closed);
  ::close(fd);
  server.stop();
  loop.join();
}

svc::ServerConfig server_cfg(const std::string& dir) {
  svc::ServerConfig cfg;
  cfg.core = small_cfg(dir);
  cfg.core.clock = nullptr;
  cfg.port = 0;
  cfg.watchdog = false;
  return cfg;
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one kStats request on `fd` and reads the reply.
bool stats_round_trip(int fd, SvcMsg& reply) {
  SvcMsg q;
  q.type = SvcType::kStats;
  std::vector<std::uint8_t> enc, wire, payload;
  svc::encode_svc(q, enc);
  if (!dist::send_frame_fd(fd, std::span<const std::uint8_t>(enc), wire)) return false;
  dist::FrameParser parser;
  while (parser.next(payload) != dist::FrameStatus::kFrame) {
    std::uint8_t chunk[4096];
    const ::ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) return false;
    parser.feed(std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(r)));
  }
  return svc::decode_svc(std::span<const std::uint8_t>(payload), reply);
}

std::uint64_t process_cpu_ns() {
  ::timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Waits up to ~2 s for the server's open-connection count to reach `n`.
bool await_connections(const svc::Server& server, std::size_t n) {
  for (int i = 0; i < 400 && server.open_connections() != n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return server.open_connections() == n;
}

TEST(SvcServer, PeerCloseReleasesTheConnectionAndTheLoopIdles) {
  Dir dir("ph-svc-hangup");
  svc::Server server(server_cfg(dir.path));
  std::thread loop([&server] { server.run(); });
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  SvcMsg rep;
  ASSERT_TRUE(stats_round_trip(fd, rep));
  EXPECT_EQ(rep.type, SvcType::kStatsReply);
  ASSERT_TRUE(await_connections(server, 1));
  // A clean close with nothing owed: the server must drop the connection
  // instead of polling its EOF forever.
  ::close(fd);
  EXPECT_TRUE(await_connections(server, 0));
  // Idle now: the loop wakes once per idle_timeout_ms (10 ms). A busy spin
  // would burn the whole 200 ms window in process CPU time.
  const std::uint64_t before = process_cpu_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(process_cpu_ns() - before, 50'000'000u);
  server.stop();
  loop.join();
}

TEST(SvcServer, ServesConnectionsAcceptedInTheSamePollRound) {
  Dir dir("ph-svc-accept-burst");
  svc::Server server(server_cfg(dir.path));
  // Connect and send before the loop runs, so its first poll round accepts
  // all of them at once — none of which has a pollfd in that round.
  constexpr int kConns = 6;
  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) {
    fds.push_back(connect_to(server.port()));
    ASSERT_GE(fds.back(), 0);
  }
  std::thread loop([&server] { server.run(); });
  for (const int fd : fds) {
    SvcMsg rep;
    EXPECT_TRUE(stats_round_trip(fd, rep));
    EXPECT_EQ(rep.type, SvcType::kStatsReply);
  }
  EXPECT_TRUE(await_connections(server, kConns));
  for (const int fd : fds) ::close(fd);
  EXPECT_TRUE(await_connections(server, 0));
  server.stop();
  loop.join();
}

}  // namespace
}  // namespace ph
