// Tests for the threading/instrumentation substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/barrier.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ph {
namespace {

TEST(Spinlock, MutualExclusionCounts) {
  Spinlock lock;
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Spinlock, TryLock) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SenseBarrier, SynchronizesPhases) {
  constexpr unsigned kThreads = 4;
  constexpr int kPhases = 100;
  SenseBarrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::vector<int> observed(kThreads, 0);
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      bool sense = false;
      for (int p = 0; p < kPhases; ++p) {
        phase_counter.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait(sense);
        // After the barrier, all kThreads increments of this phase are done.
        const int seen = phase_counter.load(std::memory_order_relaxed);
        EXPECT_GE(seen, (p + 1) * static_cast<int>(kThreads));
        barrier.arrive_and_wait(sense);
        observed[t] = p;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(barrier.crossings(), 2u * kPhases);
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(observed[t], kPhases - 1);
}

TEST(ThreadTeam, RunsOnAllMembers) {
  ThreadTeam team(4);
  std::vector<Padded<int>> hits(4);
  team.run([&](unsigned tid) { hits[tid].value = static_cast<int>(tid) + 1; });
  for (unsigned t = 0; t < 4; ++t) EXPECT_EQ(hits[t].value, static_cast<int>(t) + 1);
}

TEST(ThreadTeam, RepeatedPhases) {
  ThreadTeam team(3);
  std::atomic<int> total{0};
  for (int p = 0; p < 200; ++p) {
    team.run([&](unsigned) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 600);
}

TEST(ThreadTeam, ParallelForCoversRange) {
  ThreadTeam team(4);
  std::vector<std::atomic<int>> hits(1000);
  team.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, ParallelForEmptyRange) {
  ThreadTeam team(2);
  team.parallel_for(5, 5, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SplitStreamsDiffer) {
  Xoshiro256 root(5);
  Xoshiro256 a = root.split(0);
  Xoshiro256 b = root.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Xoshiro256 rng(9);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++seen[v];
  }
  for (int b = 0; b < 10; ++b) EXPECT_GT(seen[b], 500);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Xoshiro256 rng(31);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.next_exponential(4.0);
  EXPECT_NEAR(sum / kN, 4.0, 0.1);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(55);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(PhaseTimer, UnmatchedStopIsNoOp) {
  // Regression: stop() without a matching start() used to fold in time
  // measured from the timer's construction (an arbitrary origin).
  PhaseTimer t;
  t.stop();
  EXPECT_EQ(t.total_seconds(), 0.0);

  t.start();
  t.stop();
  const double after_episode = t.total_seconds();
  EXPECT_GE(after_episode, 0.0);
  t.stop();  // second stop of the same episode: must not accumulate again
  EXPECT_EQ(t.total_seconds(), after_episode);

  t.clear();
  EXPECT_EQ(t.total_seconds(), 0.0);
  t.stop();  // clear() disarms too
  EXPECT_EQ(t.total_seconds(), 0.0);
}

TEST(PhaseTimer, AccumulatesAcrossEpisodes) {
  PhaseTimer t;
  t.start();
  t.stop();
  const double one = t.total_seconds();
  t.start();
  t.stop();
  EXPECT_GE(t.total_seconds(), one);
}

TEST(Flags, ParseUintTakesPlainDigitsInRange) {
  EXPECT_EQ(parse_uint("0", 0, 10), 0u);
  EXPECT_EQ(parse_uint("65535", 0, 65535), 65535u);
  EXPECT_EQ(parse_uint("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(parse_uint("007", 1, 10), 7u);
  // Inclusive range: both ends are in, one past either end is out.
  EXPECT_EQ(parse_uint("1", 1, 8), 1u);
  EXPECT_EQ(parse_uint("8", 1, 8), 8u);
  EXPECT_FALSE(parse_uint("0", 1, 8));
  EXPECT_FALSE(parse_uint("9", 1, 8));
  EXPECT_FALSE(parse_uint("70000", 0, 65535));
}

TEST(Flags, ParseUintRejectsEverythingElse) {
  for (const char* bad : {"", "junk", "12abc", "1.5", " 1", "1 ", "+1", "-1", "-0",
                          "0x10", "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parse_uint(bad, 0, UINT64_MAX)) << "'" << bad << "'";
  }
}

TEST(Flags, ParseDoubleNeedsAFiniteNumberFillingTheText) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  for (const char* bad : {"", "junk", "1.5x", " 1", "1 ", "inf", "-inf", "nan", "1e999"}) {
    EXPECT_FALSE(parse_double(bad)) << "'" << bad << "'";
  }
}

TEST(FlagsDeathTest, BadValueExitsTwoNamingTheFlag) {
  EXPECT_EQ(flag_uint("tool", "--seeds", "3", 1, 8), 3u);
  EXPECT_EXIT(flag_uint("tool", "--seeds", "junk", 1, 8), ::testing::ExitedWithCode(2),
              "tool: --seeds needs an integer in \\[1, 8\\], got 'junk'");
  EXPECT_EXIT(flag_uint("tool", "--port", "70000", 0, 65535),
              ::testing::ExitedWithCode(2), "--port");
  EXPECT_EXIT(flag_double("tool", "--rate", "nan"), ::testing::ExitedWithCode(2),
              "tool: --rate needs a finite number, got 'nan'");
}

}  // namespace
}  // namespace ph
