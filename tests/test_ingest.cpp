// Tests for the ingestion tier (src/ingest/ingest_tier.hpp): bit-exactness
// against direct insertion at every producer count, concurrent staging
// losslessness, flush-path fault conservation, empty-buffer edges, the
// differential registry structures, and the exported gauges.
#include "ingest/ingest_tier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "obs/metrics_registry.hpp"
#include "robustness/failpoint.hpp"
#include "testing/differential.hpp"
#include "testing/op_trace.hpp"
#include "testing/structures.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ph {
namespace {

using U64 = std::uint64_t;
using Tier = ingest::IngestTier<PipelinedParallelHeap<U64>>;

std::vector<U64> random_items(std::size_t n, U64 seed, U64 bound = 1u << 20) {
  Xoshiro256 rng(seed);
  std::vector<U64> v(n);
  for (auto& x : v) x = rng.next_below(bound);
  return v;
}

Tier make_tier(std::size_t r, ingest::IngestConfig ic) {
  return Tier(PipelinedParallelHeap<U64>(r), ic);
}

// ------------------------------------------------- strict-mode exactness

TEST(IngestStrict, BitExactVsDirectInsertionAtEveryProducerCount) {
  // The headline claim: the deletion stream must be
  // IDENTICAL to feeding the same per-cycle batches directly into the inner
  // heap — at every producer count, with real threads staging concurrently.
  constexpr std::size_t r = 32;
  for (const unsigned producers : {1u, 2u, 4u, 8u}) {
    ingest::IngestConfig ic;
    ic.producers = producers;
    Tier tier = make_tier(r, ic);
    PipelinedParallelHeap<U64> direct(r);

    Xoshiro256 rng(100 + producers);
    ThreadTeam team(producers, /*pin=*/false, "test-prod");
    std::vector<U64> got, want;
    for (std::size_t c = 0; c < 60; ++c) {
      std::vector<U64> batch(r);
      for (auto& v : batch) v = rng.next_below(1u << 16);
      team.run([&](unsigned tid) {
        const std::size_t per = (batch.size() + producers - 1) / producers;
        const std::size_t lo = std::min<std::size_t>(tid * per, batch.size());
        const std::size_t hi = std::min<std::size_t>(lo + per, batch.size());
        tier.stage(tid, std::span<const U64>(batch).subspan(lo, hi - lo));
      });
      got.clear();
      want.clear();
      tier.cycle({}, r / 2, got);
      direct.cycle(batch, r / 2, want);
      ASSERT_EQ(got, want) << "P=" << producers << " cycle " << c;
    }
    for (int guard = 0; guard < 256; ++guard) {
      got.clear();
      want.clear();
      const std::size_t nq = tier.cycle({}, r, got);
      const std::size_t no = direct.cycle({}, r, want);
      ASSERT_EQ(got, want) << "P=" << producers << " drain";
      if (nq == 0 && no == 0) break;
    }
    EXPECT_TRUE(tier.empty());
  }
}

TEST(IngestStrict, MixedStagedAndDirectFreshItemsStayExact) {
  // cycle(fresh, ...) composes direct fresh items with the admitted staged
  // runs; the union multiset must drive the same stream as all-direct.
  constexpr std::size_t r = 16;
  ingest::IngestConfig ic;
  ic.producers = 3;
  Tier tier = make_tier(r, ic);
  PipelinedParallelHeap<U64> direct(r);
  Xoshiro256 rng(7);
  std::vector<U64> got, want;
  for (std::size_t c = 0; c < 80; ++c) {
    const std::vector<U64> staged = random_items(5, 1000 + c);
    const std::vector<U64> fresh = random_items(3, 2000 + c);
    for (std::size_t i = 0; i < staged.size(); ++i) tier.stage(i, staged[i]);
    std::vector<U64> all(staged);
    all.insert(all.end(), fresh.begin(), fresh.end());
    got.clear();
    want.clear();
    tier.cycle(fresh, r / 2, got);
    direct.cycle(all, r / 2, want);
    ASSERT_EQ(got, want) << "cycle " << c;
  }
}

// ------------------------------------------------------ edge conditions

TEST(IngestEdges, EmptyBufferDrainIsTransparent) {
  // Nothing staged: the tier is a pass-through; flushes still tick (the
  // sweep ran) but no runs form and nothing is admitted.
  constexpr std::size_t r = 8;
  Tier tier = make_tier(r, {});
  std::vector<U64> out;
  tier.cycle({}, r, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(tier.empty());
  const ingest::IngestStats st = tier.ingest_stats();
  EXPECT_EQ(st.flushes, 1u);
  EXPECT_EQ(st.runs, 0u);
  EXPECT_EQ(st.admitted_items, 0u);

  const std::vector<U64> items = random_items(20, 3);
  for (std::size_t i = 0; i < items.size(); ++i) tier.stage(i % 4, items[i]);
  out.clear();
  tier.cycle({}, 0, out);  // insert-only cycle: staged items all admitted
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tier.ingest_stats().admitted_items, items.size());
  EXPECT_EQ(tier.size(), items.size());
  std::string why;
  EXPECT_TRUE(tier.check_invariants(&why)) << why;
}

TEST(IngestEdges, ConcurrentStagingIsLossless) {
  // 8 real threads hammer stage() concurrently (hashing onto 4 slots, so
  // slots are contended); every item must come back out exactly once.
  constexpr std::size_t r = 64;
  ingest::IngestConfig ic;
  ic.producers = 4;
  Tier tier = make_tier(r, ic);
  constexpr unsigned kThreads = 8;
  constexpr std::size_t kPer = 500;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(900 + t);
      for (std::size_t i = 0; i < kPer; ++i) {
        tier.stage(t, rng.next_below(1u << 18));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tier.size(), kThreads * kPer);

  std::vector<U64> drained, out;
  for (int guard = 0; guard < 1 << 10; ++guard) {
    out.clear();
    if (tier.cycle({}, r, out) == 0 && tier.empty()) break;
    drained.insert(drained.end(), out.begin(), out.end());
  }
  std::vector<U64> expect;
  for (unsigned t = 0; t < kThreads; ++t) {
    Xoshiro256 rng(900 + t);
    for (std::size_t i = 0; i < kPer; ++i) expect.push_back(rng.next_below(1u << 18));
  }
  std::sort(expect.begin(), expect.end());
  // Strict admission + exact inner heap → the drain IS sorted already, but
  // only the multiset is the contract here.
  std::sort(drained.begin(), drained.end());
  EXPECT_EQ(drained, expect);
}

// ------------------------------------------------- registry structures

TEST(IngestRegistry, DifferentialStructuresPass) {
  for (const char* name :
       {"ingest_pipelined", "ingest_sharded_strict"}) {
    testing::GenConfig gen;
    gen.r = 8;
    gen.cycles = 200;
    gen.key_bound = 1u << 14;
    gen.seed = 77;
    testing::OpTrace trace = testing::generate_trace(gen);
    trace.structure = name;
    const testing::DiffFailure f = testing::run_trace(trace);
    EXPECT_FALSE(f.failed) << name << ": " << f.message;
  }
}

TEST(IngestRegistry, StructuresAreRegisteredByDefault) {
  const auto& names = testing::default_structures();
  for (const char* name :
       {"ingest_pipelined", "ingest_sharded_strict"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
  }
}

// ------------------------------------------------------- fault injection

TEST(IngestFaults, ProducerCrashMidFlushConservesEveryItem) {
  // kIngestFlush fires between slot drains: the sweep aborts and the
  // in-flight buffer is restaged. Under repeated injected crashes the tier
  // may lag admission but must never lose or duplicate an item — checked by
  // the bounded-lag conservation harness (the strict stream lawfully slips
  // a cycle when a flush faults, so stream equality is the wrong referee).
  namespace rb = robustness;
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  struct Disarm {
    ~Disarm() { robustness::disarm_all(); }
  } guard;

  testing::GenConfig gen;
  gen.r = 8;
  gen.cycles = 250;
  gen.key_bound = 1u << 14;
  gen.seed = 99;
  const testing::OpTrace trace = testing::generate_trace(gen);
  ingest::IngestConfig ic;
  ic.producers = 4;
  testing::IngestTierAdapter<PipelinedParallelHeap<U64>> q(
      PipelinedParallelHeap<U64>(8), ic);
  rb::arm(rb::FailSite::kIngestFlush,
          rb::FireSpec{/*nth=*/2, /*period=*/4, /*max_fires=*/30, /*stall_us=*/0});
  testing::DiffOptions opt;
  opt.relaxed = true;
  opt.bounded_lag = true;
  const testing::DiffFailure f = testing::run_differential(q, trace, opt);
  EXPECT_FALSE(f.failed) << f.message;
  const rb::SiteStats st = rb::stats(rb::FailSite::kIngestFlush);
  EXPECT_GT(st.fires, 0u);
  EXPECT_EQ(st.recoveries, st.fires);  // every abort restaged its buffer
}

TEST(IngestFaults, FlushFaultRestagesWithoutAdmitting) {
  // White-box edge: the very first flush faults on the first nonempty slot;
  // nothing may be admitted that cycle, and the items must still be counted
  // in size() (restaged, not dropped).
  namespace rb = robustness;
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  struct Disarm {
    ~Disarm() { robustness::disarm_all(); }
  } guard;

  Tier tier = make_tier(8, {});
  for (U64 v : {U64{5}, U64{1}, U64{9}}) tier.stage(0, v);
  rb::arm(rb::FailSite::kIngestFlush,
          rb::FireSpec{/*nth=*/1, /*period=*/0, /*max_fires=*/1, /*stall_us=*/0});
  std::vector<U64> out;
  tier.cycle({}, 8, out);
  EXPECT_TRUE(out.empty());  // the faulted cycle admitted nothing
  EXPECT_EQ(tier.ingest_stats().flush_faults, 1u);
  EXPECT_EQ(tier.size(), 3u);
  out.clear();
  tier.cycle({}, 8, out);  // site exhausted: normal flush + admit
  EXPECT_EQ(out, (std::vector<U64>{1, 5, 9}));
}

// ----------------------------------------------------------- obs gauges

TEST(IngestGauges, StagedDepthAndFlushLatencyAreExported) {
  constexpr std::size_t r = 16;
  ingest::IngestConfig ic;
  ic.producers = 2;
  Tier tier = make_tier(r, ic);
  tier.register_gauges("ingest-test");

  auto sample = [&] {
    std::map<std::string, double> out;
    for (const auto& g : obs::MetricsRegistry::instance().snapshot().gauges) {
      std::string key = g.desc.name;
      for (const auto& [k, v] : g.desc.labels) key += "|" + k + "=" + v;
      out[key] = g.value;
    }
    return out;
  };

  for (std::size_t i = 0; i < 24; ++i) tier.stage(i % 2, U64{i});
  const auto s0 = sample();
  ASSERT_TRUE(s0.count("ingest_staged_depth|heap=ingest-test"));
  EXPECT_DOUBLE_EQ(s0.at("ingest_staged_depth|heap=ingest-test"), 24.0);
  EXPECT_DOUBLE_EQ(s0.at("ingest_flushes|heap=ingest-test"), 0.0);

  std::vector<U64> out;
  tier.cycle({}, 4, out);
  const auto s1 = sample();
  EXPECT_DOUBLE_EQ(s1.at("ingest_staged_depth|heap=ingest-test"), 0.0);
  EXPECT_DOUBLE_EQ(s1.at("ingest_flushes|heap=ingest-test"), 1.0);
  EXPECT_DOUBLE_EQ(s1.at("ingest_admitted_items|heap=ingest-test"), 24.0);
  EXPECT_GT(s1.at("ingest_max_run|heap=ingest-test"), 0.0);
  // The gauges and ingest_stats() read the same counters.
  const ingest::IngestStats st = tier.ingest_stats();
  EXPECT_DOUBLE_EQ(s1.at("ingest_admitted_items|heap=ingest-test"),
                   static_cast<double>(st.admitted_items));
  EXPECT_DOUBLE_EQ(s1.at("ingest_flushes|heap=ingest-test"),
                   static_cast<double>(st.flushes));
  EXPECT_DOUBLE_EQ(s1.at("ingest_max_run|heap=ingest-test"),
                   static_cast<double>(st.max_run));
}

}  // namespace
}  // namespace ph
