// Tests for the telemetry subsystem: log-bucketed histogram (boundaries and
// percentile math vs a sorted-vector oracle), lock-free per-thread counter
// merge under the thread pool, trace-ring bounding, and the Chrome
// trace_event exporter (parses; balanced B/E events per thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "core/engine.hpp"
#include "util/mini_json.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ph::telemetry {
namespace {

using hist_detail::bucket_hi;
using hist_detail::bucket_index;
using hist_detail::bucket_lo;
using hist_detail::kNumBuckets;
using hist_detail::kSub;

TEST(LogHistogram, SmallValuesBinExactly) {
  for (std::uint64_t v = 0; v < kSub; ++v) {
    EXPECT_EQ(bucket_index(v), v);
    EXPECT_EQ(bucket_lo(v), v);
    EXPECT_EQ(bucket_hi(v), v);
  }
}

TEST(LogHistogram, BucketBoundsContainValue) {
  Xoshiro256 rng(17);
  std::vector<std::uint64_t> probes = {16,    17,         31,    32,  33,
                                       1023,  1024,       1025,  1u << 20,
                                       (1ull << 40) + 12345, UINT64_MAX};
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform probe so every exponent range is exercised.
    const unsigned shift = static_cast<unsigned>(rng.next_below(64));
    probes.push_back(rng() >> shift);
  }
  for (const std::uint64_t v : probes) {
    const std::size_t b = bucket_index(v);
    ASSERT_LT(b, kNumBuckets);
    EXPECT_LE(bucket_lo(b), v);
    EXPECT_GE(bucket_hi(b), v);
    // Relative bucket width bound: width ≤ lo/16 above the linear range.
    if (v >= kSub) {
      EXPECT_LE(bucket_hi(b) - bucket_lo(b) + 1, bucket_lo(b) / kSub);
    }
  }
}

TEST(LogHistogram, BucketsPartitionTheAxis) {
  // Adjacent buckets must tile [0, 2^64) with no gaps or overlaps.
  for (std::size_t b = 0; b + 1 < kNumBuckets; ++b) {
    ASSERT_EQ(bucket_hi(b) + 1, bucket_lo(b + 1)) << "gap after bucket " << b;
  }
  EXPECT_EQ(bucket_hi(kNumBuckets - 1), UINT64_MAX);
}

TEST(LogHistogram, PercentileMatchesSortedOracle) {
  Xoshiro256 rng(23);
  LogHistogram h;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 50000; ++i) {
    const unsigned shift = 20 + static_cast<unsigned>(rng.next_below(30));
    const std::uint64_t v = rng() >> shift;
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count(), samples.size());
  EXPECT_EQ(snap.min(), samples.front());
  EXPECT_EQ(snap.max(), samples.back());
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(samples.size()))));
    const std::uint64_t oracle = samples[rank - 1];
    const std::uint64_t got = snap.percentile(p);
    // The histogram returns the bucket upper bound: ≥ the oracle and within
    // one bucket width (≤ 1/16 relative) above it.
    EXPECT_GE(got, oracle) << "p=" << p;
    EXPECT_LE(got, oracle + oracle / kSub + 1) << "p=" << p;
  }
}

TEST(LogHistogram, PercentilesStayInsideObservedEnvelope) {
  // Regression: percentile() used to return the raw bucket upper edge, so
  // p0/p-low could undershoot the recorded minimum (all samples in one
  // bucket, min above the bucket's midpoint) and tiny-count histograms
  // reported values outside [min, max].
  LogHistogram h;
  h.record(1000);  // bucket [960, 1023] — upper edge above, lower edge below
  h.record(1010);
  const HistogramSnapshot snap = h.snapshot();
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    const std::uint64_t v = snap.percentile(p);
    EXPECT_GE(v, snap.min()) << "p=" << p;
    EXPECT_LE(v, snap.max()) << "p=" << p;
  }
  // p0 is by definition the smallest recorded sample.
  EXPECT_EQ(snap.percentile(0.0), 1000u);

  // Single-sample histogram: every percentile is that sample.
  LogHistogram one;
  one.record(777);
  const HistogramSnapshot s1 = one.snapshot();
  for (const double p : {0.0, 50.0, 100.0}) EXPECT_EQ(s1.percentile(p), 777u);
}

TEST(LogHistogram, MergeEqualsCombinedRecording) {
  Xoshiro256 rng(29);
  LogHistogram a, b, combined;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next_below(1u << 20);
    (i % 2 == 0 ? a : b).record(v);
    combined.record(v);
  }
  HistogramSnapshot merged;
  a.merge_into(merged);
  b.merge_into(merged);
  const HistogramSnapshot want = combined.snapshot();
  EXPECT_EQ(merged.count(), want.count());
  EXPECT_EQ(merged.min(), want.min());
  EXPECT_EQ(merged.max(), want.max());
  EXPECT_DOUBLE_EQ(merged.sum(), want.sum());
  for (const double p : {50.0, 90.0, 99.0}) {
    EXPECT_EQ(merged.percentile(p), want.percentile(p));
  }
}

TEST(LogHistogram, ResetClears) {
  LogHistogram h;
  h.record(42);
  h.record(1u << 18);
  ASSERT_EQ(h.count(), 2u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.snapshot().percentile(99), 0u);
}

TEST(TraceRing, BoundedWithDropCount) {
  TraceRing ring(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    ring.push(TraceSpan{i, i * 10, i * 10 + 5});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto spans = ring.ordered();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first, and the survivors are the newest four.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].phase, 6u + i);
  }
  ring.reset();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(JsonWriter, EscapesAndNests) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("plain", "x");
  w.kv("quote\"back\\slash", "tab\tnewline\nctl\x01");
  w.key("arr").begin_array().value(std::uint64_t{7}).value(1.5).value(true).null().end_array();
  w.end_object();
  EXPECT_EQ(w.depth(), 0u);
  const auto doc = minijson::parse(os.str());
  EXPECT_EQ(doc.at("plain").str(), "x");
  EXPECT_EQ(doc.at("quote\"back\\slash").str(), "tab\tnewline\nctl\x01");
  ASSERT_EQ(doc.at("arr").array().size(), 4u);
  EXPECT_EQ(doc.at("arr").array()[0].number(), 7.0);
  EXPECT_EQ(doc.at("arr").array()[1].number(), 1.5);
}

TEST(Registry, ConcurrentCounterMergeIsExact) {
  Registry& reg = Registry::instance();
  reg.reset();
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  {
    ThreadTeam team(kThreads, /*pin=*/false, "ctr");
    team.run([&](unsigned) {
      ThreadSlot& slot = reg.local();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        slot.add(Counter::kIngestStaged, 1);
        if (i % 64 == 0) slot.record(Phase::kThink, i);
      }
    });
    // Merge while the workers still exist (parked): counts must be exact at
    // this quiescent point, concurrent with the slots being registered.
    const MetricsSnapshot snap = reg.collect();
    EXPECT_EQ(snap.get(Counter::kIngestStaged), kThreads * kPerThread);
    EXPECT_EQ(snap.phase(Phase::kThink).count(),
              kThreads * ((kPerThread + 63) / 64));
  }
  // Per-thread breakdown: kThreads slots saw exactly kPerThread each.
  const MetricsSnapshot snap = reg.collect();
  unsigned slots_with_counts = 0;
  for (const auto& t : snap.threads) {
    const std::uint64_t c =
        t.counters[static_cast<std::size_t>(Counter::kIngestStaged)];
    if (c != 0) {
      ++slots_with_counts;
      EXPECT_EQ(c, kPerThread);
    }
  }
  EXPECT_EQ(slots_with_counts, kThreads);
  reg.reset();
}

TEST(Registry, CollectWhileWritersRunIsMonotone) {
  Registry& reg = Registry::instance();
  reg.reset();
  constexpr unsigned kThreads = 4;
  ThreadTeam team(kThreads, false, "mono");
  // begin() keeps only a pointer to the task; it must outlive wait().
  const std::function<void(unsigned)> task = [](unsigned) {
    ThreadSlot& slot = Registry::instance().local();
    for (int i = 0; i < 200000; ++i) slot.add(Counter::kIngestRuns, 1);
  };
  team.begin(task);
  std::uint64_t last = 0;
  for (int probe = 0; probe < 50; ++probe) {
    const std::uint64_t now = reg.collect().get(Counter::kIngestRuns);
    EXPECT_GE(now, last);
    last = now;
  }
  team.wait();
  EXPECT_EQ(reg.collect().get(Counter::kIngestRuns), kThreads * 200000ull);
  reg.reset();
}

TEST(MetricsSnapshot, JsonRoundTrips) {
  Registry& reg = Registry::instance();
  reg.reset();
  ThreadSlot& slot = reg.local();
  slot.add(Counter::kIngestStaged, 3);
  for (std::uint64_t v : {100u, 200u, 300u, 400u}) slot.record(Phase::kRootWork, v);
  std::ostringstream os;
  JsonWriter w(os);
  reg.collect().write_json(w);
  const auto doc = minijson::parse(os.str());
  EXPECT_EQ(doc.at("counters").at("ingest_staged").number(), 3.0);
  const auto& root = doc.at("phases").at("root_work");
  EXPECT_EQ(root.at("count").number(), 4.0);
  EXPECT_EQ(root.at("min_ns").number(), 100.0);
  EXPECT_GE(root.at("p99_ns").number(), 400.0);
  EXPECT_TRUE(doc.at("threads").is_array());
  reg.reset();
}

// root_work's span count is the process-wide cycle count (no counter repeats
// it): over a pipelined hold it must equal HeapStats::cycles exactly.
TEST(PhaseCounts, RootWorkCountsEveryPipelinedCycle) {
  constexpr std::size_t r = 16;
  PipelinedParallelHeap<std::uint64_t> q(r);
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> init(4000);
  for (auto& x : init) x = rng.next_below(1u << 20);
  q.build(init);
  const std::uint64_t cycles0 = q.stats().cycles;
  const std::uint64_t root0 = Registry::instance().collect().phase(Phase::kRootWork).count();
  std::vector<std::uint64_t> fresh, out;
  for (int c = 0; c < 500; ++c) {
    fresh.clear();
    for (std::size_t j = rng.next_below(2 * r + 1); j > 0; --j) {
      fresh.push_back(rng.next_below(1u << 20));
    }
    out.clear();
    q.cycle(fresh, rng.next_below(r + 1), out);
  }
  const std::uint64_t cycles = q.stats().cycles - cycles0;
  const std::uint64_t root =
      Registry::instance().collect().phase(Phase::kRootWork).count() - root0;
  EXPECT_EQ(cycles, 500u);
  EXPECT_EQ(root, kEnabled ? cycles : 0u);
}

// --- Chrome trace golden check: run the real engine, export, parse, and
// verify the event grammar (balanced, chronologically ordered B/E per tid).
TEST(ChromeTrace, EngineRunExportsBalancedSpans) {
  Registry::instance().reset();
  EngineConfig cfg;
  cfg.node_capacity = 64;
  cfg.think_threads = 2;
  cfg.maintenance_threads = 1;
  ParallelHeapEngine<std::uint64_t> eng(cfg);
  std::vector<std::uint64_t> init(1024);
  Xoshiro256 rng(41);
  for (auto& x : init) x = rng.next_below(1u << 20);
  eng.seed(init);
  const EngineReport rep = eng.run(
      [](unsigned, std::span<const std::uint64_t> mine,
         std::span<const std::uint64_t>, std::vector<std::uint64_t>& out) {
        for (std::uint64_t v : mine) out.push_back(v + 1 + v % 97);
      },
      /*max_items=*/8192);
  // No lane faults, so every deleted item was thought exactly once.
  EXPECT_EQ(rep.items_thought, eng.heap().stats().items_deleted);

  std::ostringstream os;
  write_chrome_trace(os);
  const auto doc = minijson::parse(os.str());
  const auto& events = doc.at("traceEvents").array();

  const std::set<std::string> known = {
      "root_work", "odd_half_step", "even_half_step", "think",
      "think_stall", "steal",        "maint_service"};
  std::map<double, std::uint64_t> open_per_tid;  // tid → nesting depth
  std::map<double, double> last_ts;
  std::uint64_t begins = 0, ends = 0;
  std::set<std::string> seen_names;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").str();
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "M");
    if (ph == "M") continue;
    const double tid = e.at("tid").number();
    const double ts = e.at("ts").number();
    EXPECT_TRUE(known.count(e.at("name").str())) << e.at("name").str();
    seen_names.insert(e.at("name").str());
    // Per-thread events must be chronological for B/E matching to be sound.
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[tid] = ts;
    if (ph == "B") {
      ++open_per_tid[tid];
      ++begins;
    } else {
      ASSERT_GT(open_per_tid[tid], 0u) << "E without matching B on tid " << tid;
      --open_per_tid[tid];
      ++ends;
    }
  }
  EXPECT_EQ(begins, ends);
  for (const auto& [tid, open] : open_per_tid) {
    EXPECT_EQ(open, 0u) << "unbalanced spans on tid " << tid;
  }
#if PH_TELEMETRY_ENABLED
  EXPECT_GT(begins, 0u);
  EXPECT_TRUE(seen_names.count("root_work"));
  EXPECT_TRUE(seen_names.count("think"));
  EXPECT_TRUE(seen_names.count("think_stall"));
  EXPECT_TRUE(seen_names.count("maint_service"));
  // Latency histograms got the same phases.
  const MetricsSnapshot snap = Registry::instance().collect();
  EXPECT_GT(snap.phase(Phase::kRootWork).count(), 0u);
  EXPECT_GT(snap.phase(Phase::kThink).count(), 0u);
#else
  EXPECT_EQ(begins, 0u);
#endif
  Registry::instance().reset();
}

}  // namespace
}  // namespace ph::telemetry
