// Durability subsystem tests (src/persist/): frame/CRC plumbing, WAL
// segment round-trips and torn-tail detection, checkpoint round-trips for
// both PQ engines, and the recovery state machine's edge cases — empty
// directory, checkpoint-only, WAL-only, torn last record, bit-flipped
// checkpoint frames falling back to the previous checkpoint, WAL sequence
// holes, and a crash *during* recovery. Every recovered heap is checked
// bit-exactly against an oracle fed the same deterministic ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "obs/metrics_registry.hpp"
#include "persist/checkpoint.hpp"
#include "persist/format.hpp"
#include "persist/recovery.hpp"
#include "persist/wal.hpp"
#include "robustness/failpoint.hpp"
#include "sim/model.hpp"
#include "sim/network.hpp"
#include "sim/serial_sim.hpp"
#include "sim/sync_sim.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/oracle.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

using U64 = std::uint64_t;
namespace ps = ph::persist;
namespace rb = ph::robustness;
namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  explicit TempDir(const char* tag = "ph-test-persist")
      : path(ps::make_temp_dir(tag)) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

struct DisarmGuard {
  ~DisarmGuard() { rb::disarm_all(); }
};

/// Deterministic op i (1-based) as a pure function of (seed, i) — replaying
/// any prefix never needs heap output. An op inserts 0..2r items (r on
/// average) and deletes r every third op, else 0..r, so a standing
/// population builds up (about r/3 items per op) and restarts recover a
/// populated heap, not an empty one.
struct Op {
  std::vector<U64> fresh;
  std::size_t k = 0;
};

Op gen_op(U64 seed, std::size_t i, std::size_t r, U64 bound = 1u << 20) {
  Xoshiro256 rng(seed ^ (0xd1342543de82ef95ull * (i + 1)));
  Op op;
  const std::size_t nfresh = rng.next_below(2 * r + 1);
  for (std::size_t j = 0; j < nfresh; ++j) op.fresh.push_back(rng.next_below(bound));
  op.k = (i % 3 == 0) ? r : rng.next_below(r + 1);
  return op;
}

/// Runs ops [1, n] on `q`, mirroring them into `oracle`, asserting exact
/// delete-min streams along the way.
template <typename Q>
void run_ops(Q& q, testing::SortedOracle& oracle, U64 seed, std::size_t n,
             std::size_t r) {
  std::vector<U64> got, want;
  for (std::size_t i = 1; i <= n; ++i) {
    const Op op = gen_op(seed, i, r);
    got.clear();
    want.clear();
    q.cycle(op.fresh, op.k, got);
    oracle.cycle(op.fresh, op.k, want);
    ASSERT_EQ(got, want) << "op " << i;
  }
}

/// Drains `q` against `oracle` to empty, asserting the exact same streams.
template <typename Q>
void drain_exact(Q& q, testing::SortedOracle& oracle, std::size_t r) {
  std::vector<U64> got, want;
  for (int guard = 0; guard < 1 << 15; ++guard) {
    if (q.empty() && oracle.empty()) return;
    got.clear();
    want.clear();
    q.cycle({}, r, got);
    oracle.cycle({}, r, want);
    ASSERT_EQ(got, want);
    ASSERT_FALSE(got.empty() && !oracle.empty()) << "heap drained dry early";
  }
  FAIL() << "drain did not terminate";
}

ps::DurableOptions opts(const TempDir& dir,
                        ps::FsyncPolicy fsync = ps::FsyncPolicy::kNever,
                        std::size_t interval = 0) {
  ps::DurableOptions d;
  d.dir = dir.path;
  d.fsync = fsync;
  d.checkpoint_interval = interval;
  return d;
}

using PipelinedDH = ps::DurableHeap<PipelinedParallelHeap<U64>>;

PipelinedDH make_dh(const TempDir& dir, std::size_t r,
                    ps::DurableOptions d = {}) {
  if (d.dir.empty()) d = opts(dir);
  return PipelinedDH(PipelinedParallelHeap<U64>(r), d);
}

// ------------------------------------------------------------- format

TEST(PersistFormat, Crc32MatchesKnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(ps::crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(ps::crc32({}), 0u);
}

TEST(PersistFormat, FrameRoundTripAndTornTailDetection) {
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> p1 = {1, 2, 3};
  std::vector<std::uint8_t> p2 = {9, 8, 7, 6, 5};
  ps::append_frame(buf, p1);
  ps::append_frame(buf, p2);

  ps::FrameCursor cur(buf);
  std::span<const std::uint8_t> payload;
  ASSERT_TRUE(cur.next(payload));
  EXPECT_EQ(std::vector<std::uint8_t>(payload.begin(), payload.end()), p1);
  ASSERT_TRUE(cur.next(payload));
  EXPECT_EQ(std::vector<std::uint8_t>(payload.begin(), payload.end()), p2);
  EXPECT_FALSE(cur.next(payload));
  EXPECT_FALSE(cur.has_garbage_tail());

  // Cut the last frame short: the first frame still reads, the torn second
  // is the termination condition, flagged as a garbage tail.
  std::vector<std::uint8_t> torn(buf.begin(), buf.end() - 3);
  ps::FrameCursor cur2(torn);
  ASSERT_TRUE(cur2.next(payload));
  EXPECT_FALSE(cur2.next(payload));
  EXPECT_TRUE(cur2.has_garbage_tail());

  // Flip one payload byte: CRC rejects the frame.
  std::vector<std::uint8_t> flipped = buf;
  flipped[flipped.size() - 2] ^= 0x10;
  ps::FrameCursor cur3(flipped);
  ASSERT_TRUE(cur3.next(payload));
  EXPECT_FALSE(cur3.next(payload));
  EXPECT_TRUE(cur3.has_garbage_tail());
}

// ---------------------------------------------------------------- wal

TEST(Wal, SegmentRoundTrip) {
  TempDir dir;
  const std::string path = dir.path + "/" + ps::wal_filename(0);
  {
    ps::WalWriter<U64> w(path, 0, ps::FsyncPolicy::kNever);
    const std::vector<U64> items = {5, 3, 8};
    w.append(ps::RecType::kCycle, 1, 2, items);
    w.append(ps::RecType::kInsert, 2, 0, std::vector<U64>{42});
    w.append(ps::RecType::kDelete, 3, 7, {});
  }
  const auto seg = ps::read_segment<U64>(path);
  ASSERT_TRUE(seg.header_ok);
  EXPECT_FALSE(seg.torn_tail);
  EXPECT_EQ(seg.start_seq, 0u);
  ASSERT_EQ(seg.records.size(), 3u);
  EXPECT_EQ(seg.records[0].type, ps::RecType::kCycle);
  EXPECT_EQ(seg.records[0].seq, 1u);
  EXPECT_EQ(seg.records[0].k, 2u);
  EXPECT_EQ(seg.records[0].items, (std::vector<U64>{5, 3, 8}));
  EXPECT_EQ(seg.records[1].type, ps::RecType::kInsert);
  EXPECT_EQ(seg.records[2].k, 7u);
  EXPECT_TRUE(seg.records[2].items.empty());
}

TEST(Wal, TornLastRecordIsCutCleanly) {
  TempDir dir;
  const std::string path = dir.path + "/" + ps::wal_filename(0);
  {
    ps::WalWriter<U64> w(path, 0, ps::FsyncPolicy::kNever);
    w.append(ps::RecType::kCycle, 1, 1, std::vector<U64>{1, 2});
    w.append(ps::RecType::kCycle, 2, 1, std::vector<U64>{3, 4});
  }
  std::error_code ec;
  fs::resize_file(path, fs::file_size(path) - 5, ec);
  ASSERT_FALSE(ec);
  const auto seg = ps::read_segment<U64>(path);
  ASSERT_TRUE(seg.header_ok);
  EXPECT_TRUE(seg.torn_tail);
  ASSERT_EQ(seg.records.size(), 1u);
  EXPECT_EQ(seg.records[0].seq, 1u);
}

TEST(Wal, WrongItemSizeIsRejectedNotMisread) {
  TempDir dir;
  const std::string path = dir.path + "/" + ps::wal_filename(0);
  {
    ps::WalWriter<std::uint32_t> w(path, 0, ps::FsyncPolicy::kNever);
    w.append(ps::RecType::kInsert, 1, 0, std::vector<std::uint32_t>{1, 2, 3});
  }
  const auto seg = ps::read_segment<U64>(path);  // wrong item width
  EXPECT_FALSE(seg.header_ok);
  EXPECT_TRUE(seg.records.empty());
}

// --------------------------------------------------------- checkpoint

TEST(Checkpoint, PipelinedRoundTrip) {
  TempDir dir;
  PipelinedParallelHeap<U64> q(8);
  std::vector<U64> keys;
  for (U64 i = 0; i < 100; ++i) keys.push_back((i * 37) % 1000);
  q.build(keys);
  std::vector<U64> sink;
  q.cycle(std::vector<U64>{7, 3, 900}, 8, sink);  // mid-pipeline state

  ps::write_checkpoint(dir.path, 17, ps::to_image(q), ps::FsyncPolicy::kNever);

  const auto ckpts = ps::list_checkpoints(dir.path);
  ASSERT_EQ(ckpts.size(), 1u);
  EXPECT_EQ(ckpts[0].first, 17u);
  ps::CheckpointImage<U64> img;
  std::uint64_t seq = 0;
  ASSERT_TRUE(ps::load_checkpoint(ckpts[0].second, img, seq));
  EXPECT_EQ(seq, 17u);

  PipelinedParallelHeap<U64> q2(8);
  ps::from_image(q2, img);
  EXPECT_EQ(q2.sorted_contents(), q.sorted_contents());
  std::string why;
  EXPECT_TRUE(q2.verify_invariants(&why)) << why;
}

TEST(Checkpoint, ShardedRoundTripPreservesPartitionMap) {
  TempDir dir;
  ShardedHeap<U64>::Config scfg;
  scfg.shards = 4;
  ShardedHeap<U64> q(8, scfg);
  std::vector<U64> sink;
  Xoshiro256 rng(11);
  for (int c = 0; c < 20; ++c) {
    std::vector<U64> fresh(16);
    for (auto& v : fresh) v = rng.next_below(1u << 20);
    q.cycle(fresh, 8, sink);
  }
  ps::write_checkpoint(dir.path, 20, ps::to_image(q), ps::FsyncPolicy::kNever);

  ps::CheckpointImage<U64> img;
  std::uint64_t seq = 0;
  const auto ckpts = ps::list_checkpoints(dir.path);
  ASSERT_EQ(ckpts.size(), 1u);
  ASSERT_TRUE(ps::load_checkpoint(ckpts[0].second, img, seq));
  ASSERT_EQ(img.runs.size(), 4u);  // one sorted run per shard

  ShardedHeap<U64> q2(8, scfg);
  ps::from_image(q2, img);
  EXPECT_EQ(q2.size(), q.size());
  EXPECT_EQ(q2.partitioner().splits(), q.partitioner().splits());
  std::string why;
  EXPECT_TRUE(q2.check_invariants(&why)) << why;
  // Exact same future stream.
  std::vector<U64> a, b;
  while (!q.empty() || !q2.empty()) {
    a.clear();
    b.clear();
    q.cycle({}, 8, a);
    q2.cycle({}, 8, b);
    ASSERT_EQ(a, b);
  }
}

TEST(Checkpoint, ShardedImageWithRetiredShardRebuildsExactly) {
  // An image whose active mask retires a shard, as an older build with
  // shard quarantine could write one: shard 1's run is empty, its items
  // moved to a survivor, and the map narrowed to the three survivors. It
  // must load through the flat rebuild with exact contents and an exact
  // future stream.
  TempDir dir;
  ShardedHeap<U64>::Config scfg;
  scfg.shards = 4;
  ShardedHeap<U64> q(8, scfg);
  testing::SortedOracle oracle;
  std::vector<U64> init, sink;
  Xoshiro256 rng(41);
  for (int i = 0; i < 200; ++i) init.push_back(rng.next_below(1u << 20));
  q.build(init);
  oracle.cycle(init, 0, sink);
  run_ops(q, oracle, 41, 30, 8);
  ASSERT_GT(oracle.size(), 100u);
  ps::CheckpointImage<U64> img = ps::to_image(q);
  ASSERT_EQ(img.runs.size(), 4u);
  ASSERT_EQ(img.active, (std::vector<std::uint8_t>{1, 1, 1, 1}));
  ASSERT_EQ(img.splits.size(), 3u);
  std::vector<U64>& survivor = img.runs[2];
  survivor.insert(survivor.end(), img.runs[1].begin(), img.runs[1].end());
  std::sort(survivor.begin(), survivor.end());
  img.runs[1].clear();
  img.active[1] = 0;
  img.splits.erase(img.splits.begin() + 1);
  ps::write_checkpoint(dir.path, 30, img, ps::FsyncPolicy::kNever);

  ps::CheckpointImage<U64> loaded;
  std::uint64_t seq = 0;
  const auto ckpts = ps::list_checkpoints(dir.path);
  ASSERT_EQ(ckpts.size(), 1u);
  ASSERT_TRUE(ps::load_checkpoint(ckpts[0].second, loaded, seq));
  EXPECT_EQ(loaded.active, (std::vector<std::uint8_t>{1, 0, 1, 1}));

  ShardedHeap<U64> q2(8, scfg);
  ps::from_image(q2, loaded);
  EXPECT_EQ(q2.size(), oracle.size());
  // The flat rebuild reseeds the map over all four shards.
  EXPECT_EQ(q2.partitioner().splits().size(), 3u);
  std::string why;
  EXPECT_TRUE(q2.check_invariants(&why)) << why;
  run_ops(q2, oracle, 42, 30, 8);
  drain_exact(q2, oracle, 8);
}

TEST(Checkpoint, BitFlippedFrameFailsValidation) {
  TempDir dir;
  PipelinedParallelHeap<U64> q(4);
  q.build(std::vector<U64>{1, 2, 3, 4, 5, 6, 7, 8});
  ps::write_checkpoint(dir.path, 3, ps::to_image(q), ps::FsyncPolicy::kNever);
  const auto ckpts = ps::list_checkpoints(dir.path);
  ASSERT_EQ(ckpts.size(), 1u);

  std::fstream f(ckpts[0].second,
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const std::streamoff at = static_cast<std::streamoff>(f.tellg()) / 2;
  f.seekg(at);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x01);
  f.seekp(at);
  f.write(&b, 1);
  f.close();

  ps::CheckpointImage<U64> img;
  std::uint64_t seq = 0;
  EXPECT_FALSE(ps::load_checkpoint(ckpts[0].second, img, seq));
}

// ------------------------------------------------ recovery edge cases

TEST(Recovery, EmptyDirectoryStartsEmptyAndIsUsable) {
  TempDir dir;
  auto q = make_dh(dir, 8);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.op_seq(), 0u);
  EXPECT_FALSE(q.recovery_info().checkpoint_loaded);
  EXPECT_EQ(q.recovery_info().replayed, 0u);

  testing::SortedOracle oracle;
  run_ops(q, oracle, 42, 30, 8);
  drain_exact(q, oracle, 8);
}

TEST(Recovery, CheckpointOnlyRestart) {
  TempDir dir;
  testing::SortedOracle oracle;
  {
    auto q = make_dh(dir, 8);
    run_ops(q, oracle, 5, 24, 8);
    ASSERT_TRUE(q.checkpoint_now());
  }  // all state lives in the checkpoint; the live segment is empty
  ps::DurableOptions d = opts(dir);
  d.checkpoint_on_open = false;
  PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
  EXPECT_TRUE(q.recovery_info().checkpoint_loaded);
  EXPECT_EQ(q.recovery_info().replayed, 0u);
  EXPECT_EQ(q.op_seq(), 24u);
  drain_exact(q, oracle, 8);
}

TEST(Recovery, WalOnlyRestartReplaysEverything) {
  TempDir dir;
  testing::SortedOracle oracle;
  ps::DurableOptions d = opts(dir);
  d.checkpoint_on_open = false;  // never write any checkpoint
  {
    PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
    run_ops(q, oracle, 6, 24, 8);
  }
  EXPECT_TRUE(ps::list_checkpoints(dir.path).empty());
  PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
  EXPECT_FALSE(q.recovery_info().checkpoint_loaded);
  EXPECT_EQ(q.recovery_info().replayed, 24u);
  EXPECT_EQ(q.op_seq(), 24u);
  drain_exact(q, oracle, 8);
}

TEST(Recovery, TornLastRecordRecoversThePrefix) {
  TempDir dir;
  ps::DurableOptions d = opts(dir);
  d.checkpoint_on_open = false;
  {
    PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
    testing::SortedOracle scratch;
    run_ops(q, scratch, 7, 20, 8);
  }
  // Tear the tail of the only segment: op 20's record loses its last bytes.
  const auto segs = ps::list_wal_segments(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  std::error_code ec;
  fs::resize_file(segs[0].second, fs::file_size(segs[0].second) - 3, ec);
  ASSERT_FALSE(ec);

  PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
  EXPECT_EQ(q.op_seq(), 19u);
  EXPECT_TRUE(q.recovery_info().wal_torn);

  testing::SortedOracle oracle;
  std::vector<U64> sink;
  for (std::size_t i = 1; i <= 19; ++i) {
    const Op op = gen_op(7, i, 8);
    sink.clear();
    oracle.cycle(op.fresh, op.k, sink);
  }
  drain_exact(q, oracle, 8);
}

TEST(Recovery, CorruptNewestCheckpointFallsBackToPrevious) {
  TempDir dir;
  testing::SortedOracle oracle;
  {
    auto q = make_dh(dir, 8, opts(dir, ps::FsyncPolicy::kNever, /*interval=*/5));
    run_ops(q, oracle, 8, 32, 8);
  }
  auto ckpts = ps::list_checkpoints(dir.path);
  ASSERT_GE(ckpts.size(), 2u);  // retention keeps 2
  {
    std::fstream f(ckpts.back().second,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff at = static_cast<std::streamoff>(f.tellg()) / 2;
    f.seekp(at);
    const char junk = 0x5a;
    f.write(&junk, 1);
  }

  auto q = make_dh(dir, 8, opts(dir, ps::FsyncPolicy::kNever, 5));
  EXPECT_EQ(q.recovery_info().corrupt_checkpoints, 1u);
  EXPECT_TRUE(q.recovery_info().checkpoint_loaded);  // the previous one
  EXPECT_GT(q.recovery_info().replayed, 0u);         // WAL bridged the gap
  EXPECT_EQ(q.op_seq(), 32u);
  // The reject was renamed aside, never deleted and never reconsidered.
  bool corrupt_file_present = false;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().string().ends_with(".corrupt")) corrupt_file_present = true;
  }
  EXPECT_TRUE(corrupt_file_present);
  drain_exact(q, oracle, 8);
}

TEST(Recovery, WalSequenceHoleIsLoudCorruption) {
  TempDir dir;
  {
    ps::WalWriter<U64> w(dir.path + "/" + ps::wal_filename(0), 0,
                         ps::FsyncPolicy::kNever);
    w.append(ps::RecType::kInsert, 1, 0, std::vector<U64>{1, 2, 3});
    w.append(ps::RecType::kInsert, 3, 0, std::vector<U64>{4});  // hole: no op 2
  }
  EXPECT_THROW(make_dh(dir, 8), ps::CorruptStateError);
}

TEST(Recovery, ZeroLengthSegmentIsBenign) {
  // Crash at segment rotation: the new segment file exists but never
  // received a record. That is a legal tail state, not corruption.
  TempDir dir;
  testing::SortedOracle oracle;
  ps::DurableOptions d = opts(dir);
  d.checkpoint_on_open = false;
  {
    PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
    run_ops(q, oracle, 31, 24, 8);
  }
  { std::ofstream f(dir.path + "/" + ps::wal_filename(24)); }
  ASSERT_EQ(ps::list_wal_segments(dir.path).size(), 2u);

  PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
  EXPECT_EQ(q.op_seq(), 24u);
  EXPECT_EQ(q.recovery_info().replayed, 24u);
  drain_exact(q, oracle, 8);
}

TEST(Recovery, TornTailOnlySegmentIsBenign) {
  // The only segment holds nothing but a torn first record: every logged
  // byte is unacknowledged tail. Recovery starts empty — loudly NOT an
  // error — and the directory stays usable.
  TempDir dir;
  ps::DurableOptions d = opts(dir);
  d.checkpoint_on_open = false;
  {
    PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
    testing::SortedOracle scratch;
    run_ops(q, scratch, 32, 1, 8);
  }
  const auto segs = ps::list_wal_segments(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  std::error_code ec;
  fs::resize_file(segs[0].second, 5, ec);  // mid-header: no whole record left
  ASSERT_FALSE(ec);

  PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
  EXPECT_EQ(q.op_seq(), 0u);
  EXPECT_TRUE(q.recovery_info().wal_torn);
  testing::SortedOracle oracle;
  run_ops(q, oracle, 33, 12, 8);
  drain_exact(q, oracle, 8);
}

TEST(Recovery, MissingCoveringWalSegmentsIsLoud) {
  // A checkpoint with NO segment at-or-below its sequence means segments
  // were deleted out from under the store: acknowledged ops after the
  // checkpoint may be gone, and recovery must refuse rather than silently
  // resurrect the stale image.
  TempDir dir;
  {
    auto q = make_dh(dir, 8, opts(dir, ps::FsyncPolicy::kNever, /*interval=*/5));
    testing::SortedOracle scratch;
    run_ops(q, scratch, 34, 32, 8);
  }
  ASSERT_FALSE(ps::list_checkpoints(dir.path).empty());
  for (const auto& [seq, path] : ps::list_wal_segments(dir.path)) {
    fs::remove(path);
  }
  EXPECT_THROW(make_dh(dir, 8, opts(dir, ps::FsyncPolicy::kNever, 5)),
               ps::CorruptStateError);
}

TEST(Recovery, CrashDuringRecoveryIsIdempotent) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  TempDir dir;
  testing::SortedOracle oracle;
  ps::DurableOptions d = opts(dir);
  d.checkpoint_on_open = false;  // keep the whole history in the WAL
  {
    PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
    run_ops(q, oracle, 9, 30, 8);
  }
  // First recovery attempt dies between replayed records (exception-shaped
  // stand-in for a second crash). Recovery mutates no pre-existing file, so
  // the directory stays exactly as recoverable as before.
  rb::arm(rb::FailSite::kRecoverReplay, rb::FireSpec{12, 0, 1, 0});
  EXPECT_THROW(PipelinedDH(PipelinedParallelHeap<U64>(8), d), rb::InjectedFault);
  rb::disarm_all();

  PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
  EXPECT_EQ(q.op_seq(), 30u);
  EXPECT_EQ(q.recovery_info().replayed, 30u);
  drain_exact(q, oracle, 8);
}

// ---------------------------------------------- durable heap behaviors

class FsyncPolicySweep : public ::testing::TestWithParam<ps::FsyncPolicy> {};

TEST_P(FsyncPolicySweep, RestartIsExactUnderEveryPolicy) {
  TempDir dir;
  testing::SortedOracle oracle;
  const ps::DurableOptions d = opts(dir, GetParam(), /*interval=*/6);
  {
    PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
    run_ops(q, oracle, 13, 25, 8);
  }
  PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
  EXPECT_EQ(q.op_seq(), 25u);
  run_ops(q, oracle, 14, 10, 8);  // keep going after restart
  drain_exact(q, oracle, 8);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, FsyncPolicySweep,
                         ::testing::Values(ps::FsyncPolicy::kNever,
                                           ps::FsyncPolicy::kOnCheckpoint,
                                           ps::FsyncPolicy::kEveryRecord),
                         [](const auto& info) {
                           return ps::fsync_policy_name(info.param);
                         });

TEST(DurableHeap, BuildIsDurableThroughTheLog) {
  TempDir dir;
  ps::DurableOptions d = opts(dir);
  d.checkpoint_on_open = false;  // force build() to survive via its WAL record
  std::vector<U64> keys;
  for (U64 i = 0; i < 50; ++i) keys.push_back(1000 - i);
  {
    PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
    q.build(keys);
  }
  PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
  EXPECT_EQ(q.size(), keys.size());
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(q.heap().sorted_contents(), keys);
}

TEST(DurableHeap, RetentionPrunesOldCheckpointsAndSegments) {
  TempDir dir;
  auto q = make_dh(dir, 8, opts(dir, ps::FsyncPolicy::kNever, /*interval=*/4));
  testing::SortedOracle oracle;
  run_ops(q, oracle, 21, 40, 8);  // ~10 checkpoints published
  const auto ckpts = ps::list_checkpoints(dir.path);
  EXPECT_EQ(ckpts.size(), ps::kKeepCheckpoints);
  for (const auto& [sseq, spath] : ps::list_wal_segments(dir.path)) {
    EXPECT_GE(sseq, ckpts.front().first) << spath;
  }
  drain_exact(q, oracle, 8);
}

// The wal_append and wal_fsync phase counts are the WAL's record and fsync
// counts: under kEveryRecord each record appended is one append span and
// one fsync span.
TEST(DurableHeap, WalPhaseCountsEqualRecordsAppended) {
  TempDir dir;
  auto q = make_dh(dir, 8, opts(dir, ps::FsyncPolicy::kEveryRecord));
  testing::SortedOracle oracle;
  auto& reg = telemetry::Registry::instance();
  const telemetry::MetricsSnapshot before = reg.collect();
  run_ops(q, oracle, 9, 30, 8);
  const telemetry::MetricsSnapshot after = reg.collect();
  auto delta = [&](telemetry::Phase p) {
    return after.phase(p).count() - before.phase(p).count();
  };
  const U64 want = telemetry::kEnabled ? 30 : 0;
  EXPECT_EQ(q.op_seq(), 30u);
  EXPECT_EQ(delta(telemetry::Phase::kWalAppend), want);
  EXPECT_EQ(delta(telemetry::Phase::kWalFsync), want);
}

U64 wal_segment_bytes(const std::string& dir) {
  U64 sum = 0;
  for (const auto& [sseq, spath] : ps::list_wal_segments(dir)) sum += fs::file_size(spath);
  return sum;
}

double gauge_value(const std::string& name, const std::string& heap) {
  for (const obs::GaugeSample& g : obs::MetricsRegistry::instance().snapshot().gauges) {
    if (g.desc.name == name && g.desc.labels.size() == 1 &&
        g.desc.labels[0].second == heap) {
      return g.value;
    }
  }
  ADD_FAILURE() << "no gauge " << name << "{heap=" << heap << "}";
  return -1;
}

// durable_wal_bytes counts every byte written to WAL segments, header
// frames included, across a rotation whose prune deletes the first segment.
TEST(DurableHeap, WalBytesGaugeEqualsSegmentFileSizes) {
  TempDir dir;
  ps::DurableOptions d = opts(dir, ps::FsyncPolicy::kEveryRecord);
  d.checkpoint_on_open = false;
  PipelinedDH q(PipelinedParallelHeap<U64>(8), d);
  q.register_gauges("wal-bytes-test");
  testing::SortedOracle oracle;
  run_ops(q, oracle, 13, 20, 8);
  const U64 first = wal_segment_bytes(dir.path);
  EXPECT_EQ(q.live().wal_bytes.load(), first);
  ASSERT_TRUE(q.checkpoint_now());
  ASSERT_EQ(ps::list_wal_segments(dir.path).size(), 1u);  // the first is pruned
  EXPECT_EQ(q.live().wal_bytes.load(), first + wal_segment_bytes(dir.path));
  run_ops(q, oracle, 14, 10, 8);
  EXPECT_EQ(q.live().wal_bytes.load(), first + wal_segment_bytes(dir.path));
  EXPECT_EQ(gauge_value("durable_wal_bytes", "wal-bytes-test"),
            static_cast<double>(q.live().wal_bytes.load()));
}

TEST(DurableHeap, ShardedEngineRestartsExactly) {
  TempDir dir;
  using SH = ShardedHeap<U64>;
  SH::Config scfg;
  scfg.shards = 4;
  testing::SortedOracle oracle;
  {
    ps::DurableHeap<SH> q(SH(8, scfg), opts(dir, ps::FsyncPolicy::kNever, 6));
    run_ops(q, oracle, 31, 40, 8);
    EXPECT_EQ(q.heap().num_shards(), 4u);
  }
  ps::DurableHeap<SH> q(SH(8, scfg), opts(dir, ps::FsyncPolicy::kNever, 6));
  EXPECT_EQ(q.op_seq(), 40u);
  EXPECT_EQ(q.heap().num_shards(), 4u);
  // The restart recovers a standing population spread over the shards.
  EXPECT_EQ(q.size(), oracle.size());
  EXPECT_GE(q.size(), 4u * 8);
  const auto snap = q.heap().snapshot();
  EXPECT_GE(std::count_if(snap.shard_items.begin(), snap.shard_items.end(),
                          [](const std::vector<U64>& items) { return !items.empty(); }),
            2);
  run_ops(q, oracle, 32, 15, 8);
  drain_exact(q, oracle, 8);
}

/// Logs inserts and delete_min_batch(k = 3r + 1) through a WAL-only
/// pipelined DurableHeap, checking each popped batch against `oracle`. A k
/// above r is lawful there: delete_min_batch cuts it into r-sized steps.
/// Returns the number of records logged.
std::size_t log_wide_deletes(const ps::DurableOptions& d, std::size_t r,
                             testing::SortedOracle& oracle) {
  const std::size_t k = 3 * r + 1;
  PipelinedDH q(PipelinedParallelHeap<U64>(r), d);
  Xoshiro256 rng(0x5eed);
  std::vector<U64> fresh, got, want;
  std::size_t records = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    fresh.clear();
    for (std::size_t j = 0; j < 2 * k; ++j) fresh.push_back(rng.next_below(1u << 12));
    q.insert_batch(fresh);
    oracle.cycle(fresh, 0, want);
    got.clear();
    want.clear();
    q.delete_min_batch(k, got);
    oracle.cycle({}, k, want);
    EXPECT_EQ(got, want) << "batch " << i;
    records += 2;
  }
  return records;
}

ps::DurableOptions wal_only(const TempDir& dir) {
  ps::DurableOptions d = opts(dir);
  d.checkpoint_on_open = false;  // every record must come back through replay
  return d;
}

TEST(DurableHeap, WideDeleteRecordsReplayThroughDeleteMinBatch) {
  TempDir dir;
  constexpr std::size_t r = 4;
  testing::SortedOracle oracle;
  const std::size_t records = log_wide_deletes(wal_only(dir), r, oracle);
  PipelinedDH q(PipelinedParallelHeap<U64>(r), wal_only(dir));
  EXPECT_EQ(q.recovery_info().replayed, records);
  EXPECT_EQ(q.size(), oracle.size());
  drain_exact(q, oracle, r);
}

TEST(DurableHeap, WideDeleteRecordsReplayThroughShardedCycle) {
  // ShardedHeap has no delete_min_batch, so a kDelete record replays as one
  // cycle({}, k). The WAL is layout-free: write it through the pipelined
  // heap, reopen it over four shards.
  TempDir dir;
  constexpr std::size_t r = 4;
  testing::SortedOracle oracle;
  const std::size_t records = log_wide_deletes(wal_only(dir), r, oracle);
  using SH = ShardedHeap<U64>;
  SH::Config scfg;
  scfg.shards = 4;
  ps::DurableHeap<SH> q(SH(r, scfg), wal_only(dir));
  EXPECT_EQ(q.recovery_info().replayed, records);
  EXPECT_EQ(q.size(), oracle.size());
  drain_exact(q, oracle, r);
}

TEST(DurableHeap, EngineRunsOverDurableHeapAndRemainderSurvivesRestart) {
  TempDir dir;
  using DH = PipelinedDH;
  EngineConfig ecfg;
  ecfg.node_capacity = 8;
  ecfg.think_threads = 2;
  ecfg.batch = 8;
  std::vector<U64> seedv(160);
  for (std::size_t i = 0; i < seedv.size(); ++i) seedv[i] = static_cast<U64>(i);

  std::uint64_t processed = 0;
  {
    ParallelHeapEngine<U64, std::less<U64>, DH> engine(
        ecfg, DH(PipelinedParallelHeap<U64>(8), opts(dir)));
    engine.seed(seedv);
    // Stop partway: the unprocessed remainder must survive the restart.
    const EngineReport rep = engine.run(
        [](unsigned, std::span<const U64>, std::span<const U64>,
           std::vector<U64>&) {},
        /*max_items=*/80);
    processed = rep.items_processed;
    ASSERT_GE(processed, 80u);
    ASSERT_LT(processed, seedv.size());
  }

  // The engine deletes strictly ascending batches, so what remains is
  // exactly the items above the processed prefix.
  auto q = make_dh(dir, 8);
  EXPECT_EQ(q.size(), seedv.size() - processed);
  testing::SortedOracle oracle;
  std::vector<U64> sink;
  oracle.cycle(std::vector<U64>(seedv.begin() + static_cast<std::ptrdiff_t>(processed),
                                seedv.end()),
               0, sink);
  drain_exact(q, oracle, 8);
}

TEST(DurableHeap, SyncSimOverDurableHeapMatchesSerial) {
  TempDir dir;
  const sim::Topology t = sim::make_torus(6, 6);
  sim::ModelConfig mc;
  mc.seed = 4;
  const sim::Model m(t, mc);
  const sim::SimResult want = sim::run_serial_sim(m, 30.0);

  ps::DurableOptions d;
  d.dir = dir.path;
  d.fsync = ps::FsyncPolicy::kNever;
  d.checkpoint_interval = 32;
  ps::DurableHeap<PipelinedParallelHeap<sim::Event, sim::EventOrder>> q(
      PipelinedParallelHeap<sim::Event, sim::EventOrder>(32), d);
  const sim::SimResult got = sim::run_sync_sim(q, m, 30.0, 32);
  EXPECT_TRUE(got.same_outcome(want))
      << "processed " << got.processed << " vs " << want.processed;
  EXPECT_GT(q.op_seq(), 0u);
}

}  // namespace
}  // namespace ph
