// Tests for the differential stress harness itself: trace generation and
// round-tripping, the oracle, the shrinker, and — the harness's reason to
// exist — that it catches a re-injected historical bug (the pipelined
// delete-update revert-note bug) and produces a replayable reproducer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "testing/differential.hpp"
#include "testing/op_trace.hpp"
#include "testing/oracle.hpp"
#include "testing/shrink.hpp"
#include "testing/stress.hpp"
#include "testing/structures.hpp"

namespace ph::testing {
namespace {

TEST(StressHarness, GenerateTraceIsDeterministic) {
  GenConfig cfg;
  cfg.r = 8;
  cfg.cycles = 200;
  cfg.seed = 42;
  const OpTrace a = generate_trace(cfg);
  const OpTrace b = generate_trace(cfg);
  EXPECT_EQ(a, b);
  cfg.seed = 43;
  EXPECT_NE(generate_trace(cfg), a);
  EXPECT_EQ(a.ops.size(), cfg.cycles);
  for (const Op& op : a.ops) EXPECT_LE(op.k, cfg.r);
}

TEST(StressHarness, GeneratedTracesRefillDrainedHeapsInBulk) {
  // Exhaustion runs drain the heap and refill it with one batch of more
  // than 2r items, the batch a pipelined heap loads in place. Replaying the
  // traces on the oracle must find such a cycle in most traces, at every r
  // a default soak uses.
  for (const std::size_t r : StressConfig{}.r_values) {
    std::size_t with_bulk = 0;
    constexpr std::size_t kTraces = 20;
    for (std::uint64_t seed = 1; seed <= kTraces; ++seed) {
      GenConfig cfg;
      cfg.r = r;
      cfg.seed = seed;
      const OpTrace t = generate_trace(cfg);
      SortedOracle oracle;
      std::vector<std::uint64_t> fresh, got, prev;
      bool bulk = false;
      for (const Op& op : t.ops) {
        fresh = op.fresh;
        if (op.feedback) {
          for (std::uint64_t v : prev) fresh.push_back(v + op.feedback_add);
        }
        bulk = bulk || (oracle.empty() && fresh.size() > 2 * r);
        got.clear();
        oracle.cycle(fresh, op.k, got);
        prev = got;
      }
      if (bulk) ++with_bulk;
    }
    EXPECT_GE(2 * with_bulk, kTraces) << "r=" << r;
  }
}

TEST(StressHarness, TraceRoundTripsThroughText) {
  GenConfig cfg;
  cfg.r = 5;
  cfg.cycles = 80;
  cfg.seed = 7;
  OpTrace t = generate_trace(cfg);
  t.structure = "batch_binary_heap";
  OpTrace parsed;
  std::string err;
  ASSERT_TRUE(OpTrace::from_text(t.to_text(), parsed, &err)) << err;
  EXPECT_EQ(parsed, t);
}

TEST(StressHarness, FromTextRejectsMalformed) {
  OpTrace out;
  std::string err;
  EXPECT_FALSE(OpTrace::from_text("not-a-repro 1\n", out, &err));
  EXPECT_FALSE(OpTrace::from_text("ph-repro 2\n", out, &err));
  // k exceeding r is structurally invalid.
  EXPECT_FALSE(OpTrace::from_text(
      "ph-repro 1\nstructure x\nr 2\nseed 0\nops 1\nop 3 0\n", out, &err));
  // Truncated key list.
  EXPECT_FALSE(OpTrace::from_text(
      "ph-repro 1\nstructure x\nr 2\nseed 0\nops 1\nop 1 2 5\n", out, &err));
}

TEST(StressHarness, OracleMatchesSortDrain) {
  SortedOracle o;
  std::vector<std::uint64_t> out;
  const std::vector<std::uint64_t> first = {5, 1, 3};
  o.cycle(first, 2, out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 3}));
  out.clear();
  const std::vector<std::uint64_t> second = {2, 2};
  o.cycle(second, 4, out);  // only 3 items present: 5 plus the two 2s
  EXPECT_EQ(out, (std::vector<std::uint64_t>{2, 2, 5}));
  EXPECT_TRUE(o.empty());
}

TEST(StressHarness, DefaultStructuresPassSmallSoak) {
  StressConfig cfg;
  cfg.r_values = {2, 8};
  cfg.key_bounds = {256, std::uint64_t{1} << 40};
  cfg.cycles = 80;
  cfg.rounds = 1;
  cfg.seed = 11;
  const StressReport rep = run_stress(cfg);
  EXPECT_TRUE(rep.ok()) << (rep.failures.empty()
                                ? std::string()
                                : rep.failures.front().failure.message);
  EXPECT_EQ(rep.traces_run, default_structures().size() * cfg.r_values.size() *
                                cfg.key_bounds.size() * cfg.rounds);
  EXPECT_EQ(rep.traces_skipped, 0u);
}

TEST(StressHarness, UnknownStructureFailsLoudly) {
  OpTrace t;
  t.structure = "no_such_structure";
  const DiffFailure f = run_trace(t);
  EXPECT_TRUE(f.failed);
  EXPECT_NE(f.message.find("unknown structure"), std::string::npos);
}

TEST(StressHarness, InjectedFaultIsCaughtShrunkAndReplayable) {
  // The harness must detect the documented delete-update revert-note bug
  // (re-injected behind a testing-only knob) within a small soak budget, and
  // the minimized reproducer must replay the failure from its text form.
  StressConfig cfg;
  cfg.structures = {"pipelined_heap_faulty"};
  cfg.cycles = 400;
  cfg.rounds = 2;
  cfg.seed = 1;
  cfg.max_failures = 1;
  const StressReport rep = run_stress(cfg);
  ASSERT_FALSE(rep.ok()) << "injected fault was not detected";
  const StressFailure& sf = rep.failures.front();

  // The stored trace is the minimized one and still fails.
  const DiffFailure again = run_trace(sf.trace);
  EXPECT_TRUE(again.failed);
  EXPECT_LE(sf.trace.ops.size(), cfg.cycles);

  // Round-trip through the reproducer text: bit-identical replay.
  OpTrace parsed;
  std::string err;
  ASSERT_TRUE(OpTrace::from_text(sf.trace.to_text(), parsed, &err)) << err;
  EXPECT_EQ(parsed, sf.trace);
  const DiffFailure replay = run_trace(parsed);
  EXPECT_TRUE(replay.failed);
  EXPECT_EQ(replay.op_index, again.op_index);
  EXPECT_EQ(replay.message, again.message);

  // The healthy pipelined heap passes the same minimized trace.
  OpTrace healthy = sf.trace;
  healthy.structure = "pipelined_heap";
  EXPECT_FALSE(run_trace(healthy).failed);
}

TEST(StressHarness, ReproDirIsCreatedIfMissing) {
  // CI hands the soak a reproducer directory that does not exist yet; the
  // harness must create it rather than silently dropping the reproducer
  // (which would make the upload-on-failure artifact empty exactly when a
  // failure happened).
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ph_stress_test_repro" / "nested";
  std::filesystem::remove_all(dir.parent_path());
  StressConfig cfg;
  cfg.structures = {"pipelined_heap_faulty"};
  cfg.cycles = 400;
  cfg.rounds = 1;
  cfg.seed = 1;
  cfg.max_failures = 1;
  cfg.shrink = false;  // keep it fast; writing is what's under test
  cfg.repro_dir = dir.string();
  const StressReport rep = run_stress(cfg);
  ASSERT_FALSE(rep.ok());
  const StressFailure& sf = rep.failures.front();
  EXPECT_FALSE(sf.repro_path.empty()) << "reproducer was not written";
  EXPECT_TRUE(std::filesystem::exists(sf.repro_path));
  std::filesystem::remove_all(dir.parent_path());
}

TEST(StressHarness, ShrinkerMinimizesToTheFailingKey) {
  // Synthetic predicate: a trace "fails" iff it still contains the key 42.
  // The shrinker must reduce a 60-op trace to a single op with that one key.
  GenConfig gen;
  gen.r = 8;
  gen.cycles = 60;
  gen.key_bound = 40;  // generator never produces 42 on its own
  gen.seed = 3;
  OpTrace t = generate_trace(gen);
  t.ops[25].fresh.push_back(42);
  const TracePredicate fails = [](const OpTrace& cand) -> DiffFailure {
    for (std::size_t i = 0; i < cand.ops.size(); ++i) {
      for (std::uint64_t key : cand.ops[i].fresh) {
        if (key == 42) return {true, i, "contains 42"};
      }
    }
    return {};
  };
  ShrinkStats st;
  const OpTrace small = shrink_trace(t, fails, 4000, &st);
  EXPECT_TRUE(fails(small).failed);
  EXPECT_EQ(small.ops.size(), 1u);
  EXPECT_EQ(small.total_keys(), 1u);
  EXPECT_EQ(small.ops[0].fresh[0], 42u);
  EXPECT_GT(st.accepted, 0u);
  // Determinism: same input and predicate, same minimized trace.
  EXPECT_EQ(shrink_trace(t, fails, 4000), small);
}

TEST(StressHarness, ShrinkerReturnsPassingTraceUnchanged) {
  GenConfig gen;
  gen.cycles = 10;
  const OpTrace t = generate_trace(gen);
  const TracePredicate never = [](const OpTrace&) -> DiffFailure { return {}; };
  EXPECT_EQ(shrink_trace(t, never), t);
}

TEST(StressHarness, StressSweepIsSeedDeterministic) {
  // Same master seed → same failure set (including the minimized traces).
  StressConfig cfg;
  cfg.structures = {"pipelined_heap_faulty"};
  cfg.cycles = 400;
  cfg.rounds = 1;
  cfg.r_values = {3, 8};
  cfg.seed = 5;
  cfg.max_failures = 2;
  const StressReport a = run_stress(cfg);
  const StressReport b = run_stress(cfg);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].trace, b.failures[i].trace);
    EXPECT_EQ(a.failures[i].failure.message, b.failures[i].failure.message);
  }
}

}  // namespace
}  // namespace ph::testing
