// Shard supervisor tests (src/dist/): protocol and transport plumbing, the
// distributed cycle's bit-exactness against the sorted-multiset oracle over
// both carriers (in-process loopback and real forked child processes), and
// the failure drills the subsystem exists for — SIGKILL one shard mid-run,
// drop its heartbeats, or eat its frames, and the run must complete
// bit-exact against a fault-free single-process reference while the
// surviving shards keep cycling. Everything is seeded and deterministic.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "dist/shard_server.hpp"
#include "dist/supervisor.hpp"
#include "dist/transport.hpp"
#include "obs/metrics_registry.hpp"
#include "persist/format.hpp"
#include "robustness/failpoint.hpp"
#include "robustness/watchdog.hpp"
#include "sim/dist_sim.hpp"
#include "sim/network.hpp"
#include "sim/serial_sim.hpp"
#include "testing/oracle.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

using U64 = std::uint64_t;
namespace ps = ph::persist;
namespace rb = ph::robustness;
namespace fs = std::filesystem;
using Sup = dist::ShardSupervisor<U64>;

struct TempDir {
  std::string path;
  explicit TempDir(const char* tag = "ph-test-dist")
      : path(ps::make_temp_dir(tag)) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

struct DisarmGuard {
  ~DisarmGuard() { rb::disarm_all(); }
};

/// Samples one registered gauge by name and `heap` label (-1 if absent).
double gauge_value(const std::string& name, const std::string& heap) {
  for (const auto& g : obs::MetricsRegistry::instance().snapshot().gauges) {
    if (g.desc.name != name) continue;
    for (const auto& [k, v] : g.desc.labels) {
      if (k == "heap" && v == heap) return g.value;
    }
  }
  return -1.0;
}

Sup::Config base_config(const std::string& dir, std::size_t shards,
                        bool use_processes) {
  Sup::Config cfg;
  cfg.shards = shards;
  cfg.node_capacity = 8;
  cfg.dir = dir;
  cfg.fsync = ps::FsyncPolicy::kNever;
  cfg.checkpoint_interval = 8;
  cfg.use_processes = use_processes;
  return cfg;
}

/// Deterministic op i (1-based) as a pure function of (seed, i).
struct Op {
  std::vector<U64> fresh;
  std::size_t k = 0;
};

Op gen_op(std::uint64_t seed, std::size_t i) {
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + i);
  Op op;
  const std::size_t n = rng.next() % 13;
  for (std::size_t j = 0; j < n; ++j) op.fresh.push_back(rng.next() % 5000);
  if (i % 3 != 0) op.k = rng.next() % 11;
  return op;
}

/// Drives `sup` and a sorted oracle through the same seeded op stream,
/// requiring bit-exact agreement at every cycle, then drains both dry.
/// `hook(i)` runs before op i — the fault-injection seam.
template <typename Hook>
void run_exact(Sup& sup, std::uint64_t seed, std::size_t ops, Hook hook) {
  testing::SortedOracle oracle;
  std::vector<U64> got, want;
  for (std::size_t i = 1; i <= ops; ++i) {
    hook(i);
    const Op op = gen_op(seed, i);
    got.clear();
    want.clear();
    sup.cycle(std::span<const U64>(op.fresh), op.k, got);
    oracle.cycle(std::span<const U64>(op.fresh), op.k, want);
    ASSERT_EQ(got, want) << "diverged at op " << i;
  }
  for (int guard = 0; guard < 1 << 14; ++guard) {
    got.clear();
    want.clear();
    const std::size_t ng = sup.cycle({}, 16, got);
    const std::size_t nw = oracle.cycle({}, 16, want);
    ASSERT_EQ(got, want) << "diverged during drain";
    if (ng == 0 && nw == 0) break;
  }
  EXPECT_TRUE(sup.empty());
  std::string why;
  EXPECT_TRUE(sup.check_invariants(&why)) << why;
}

void run_exact(Sup& sup, std::uint64_t seed, std::size_t ops) {
  run_exact(sup, seed, ops, [](std::size_t) {});
}

// ------------------------------------------------------------------ protocol

TEST(DistProtocol, EncodeDecodeRoundTrip) {
  dist::Msg<U64> m{dist::MsgType::kInsert, 41, 7, 3, {10, 20, 30}};
  std::vector<std::uint8_t> buf;
  dist::encode_msg(m, buf);
  dist::Msg<U64> out;
  ASSERT_TRUE(dist::decode_msg(buf, out));
  EXPECT_EQ(out.type, dist::MsgType::kInsert);
  EXPECT_EQ(out.a, 41u);
  EXPECT_EQ(out.b, 7u);
  EXPECT_EQ(out.c, 3u);
  EXPECT_EQ(out.items, (std::vector<U64>{10, 20, 30}));
}

TEST(DistProtocol, StrictDecodeRejectsDamage) {
  dist::Msg<U64> m{dist::MsgType::kPeekReply, 1, 2, 3, {4, 5}};
  std::vector<std::uint8_t> buf;
  dist::encode_msg(m, buf);
  dist::Msg<U64> out;

  std::vector<std::uint8_t> truncated(buf.begin(), buf.end() - 3);
  EXPECT_FALSE(dist::decode_msg(truncated, out));

  std::vector<std::uint8_t> trailing = buf;
  trailing.push_back(0);
  EXPECT_FALSE(dist::decode_msg(trailing, out));

  std::vector<std::uint8_t> bad_type = buf;
  bad_type[0] = 0;  // below kInsert
  EXPECT_FALSE(dist::decode_msg(bad_type, out));
  bad_type[0] = 200;  // above kError
  EXPECT_FALSE(dist::decode_msg(bad_type, out));

  EXPECT_FALSE(dist::decode_msg(std::span<const std::uint8_t>{}, out));
}

// ----------------------------------------------------------------- transport

TEST(DistTransport, SocketPairFrameRoundTrip) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  dist::SocketTransport a(fds[0]);
  dist::SocketTransport b(fds[1]);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(a.send_frame(payload));
  std::vector<std::uint8_t> got;
  ASSERT_EQ(b.recv_frame(got, 1000), dist::RecvStatus::kOk);
  EXPECT_EQ(got, payload);
  // Deadline with nothing in flight.
  EXPECT_EQ(b.recv_frame(got, 0), dist::RecvStatus::kTimeout);
  // Peer closes: EOF is kClosed, and sends start failing.
  a.close();
  EXPECT_EQ(b.recv_frame(got, 100), dist::RecvStatus::kClosed);
  EXPECT_FALSE(b.send_frame(payload));
}

TEST(DistTransport, CorruptFrameIsClosedNotMisparsed) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  dist::SocketTransport b(fds[1]);
  // Hand-build a frame with a wrong CRC.
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  ps::append_frame(wire, payload);
  wire[4] ^= 0xff;  // flip a CRC byte
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
            static_cast<::ssize_t>(wire.size()));
  std::vector<std::uint8_t> got;
  EXPECT_EQ(b.recv_frame(got, 1000), dist::RecvStatus::kClosed);
  ::close(fds[0]);
}

// ------------------------------------------------------- fault-free exactness

TEST(DistSupervisor, LoopbackMatchesOracle) {
  TempDir dir;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    Sup sup(base_config(dir.path + "/k" + std::to_string(shards), shards,
                        /*use_processes=*/false));
    run_exact(sup, 100 + shards, 120);
    EXPECT_EQ(sup.stats().takeovers, 0u);
  }
}

TEST(DistSupervisor, ProcessBackendsMatchOracle) {
  TempDir dir;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    Sup sup(base_config(dir.path + "/k" + std::to_string(shards), shards,
                        /*use_processes=*/true));
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(sup.backend_state(s), Sup::BackendState::kProcess);
      EXPECT_GT(sup.shard_pid(s), 0);
    }
    run_exact(sup, 200 + shards, 90);
    EXPECT_EQ(sup.stats().deaths, 0u);
  }
}

// ------------------------------------------------------------- failure drills

TEST(DistSupervisor, KillLoopbackShardRecoversExactly) {
  TempDir dir;
  Sup sup(base_config(dir.path, 2, /*use_processes=*/false));
  run_exact(sup, 7, 120, [&](std::size_t i) {
    if (i == 40) sup.kill_shard(0);
    if (i == 80) sup.kill_shard(1);
  });
  EXPECT_EQ(sup.stats().kills, 2u);
  EXPECT_GE(sup.stats().takeovers, 2u);
}

TEST(DistSupervisor, SigkillChildMidRunRecoversExactly) {
  TempDir dir;
  Sup sup(base_config(dir.path, 2, /*use_processes=*/true));
  sup.register_gauges("dist-sigkill");
  run_exact(sup, 11, 120, [&](std::size_t i) {
    if (i == 50) sup.kill_shard(1);
  });
  EXPECT_GE(sup.stats().deaths, 1u);
  EXPECT_GE(sup.stats().takeovers, 1u);
  EXPECT_GE(sup.stats().degraded_cycles, 1u);
  // The shard must be re-admitted to a fresh child process. Respawn timing
  // rides the real clock (backoff then a successful fork), so pump poll()
  // with a bounded budget instead of asserting an instant.
  for (int spin = 0; spin < 2000 && (sup.stats().respawns < 1 ||
                                     sup.backend_state(1) !=
                                         Sup::BackendState::kProcess);
       ++spin) {
    sup.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(sup.stats().respawns, 1u);
  EXPECT_EQ(sup.backend_state(1), Sup::BackendState::kProcess);
  EXPECT_GT(sup.shard_pid(1), 0);
  // Kill it again with no cycle to follow: detection, takeover and
  // re-admission all happen inside standalone poll() calls, and the dist_*
  // gauges must show them without waiting for the next cycle.
  const std::uint64_t respawns_before = sup.stats().respawns;
  sup.kill_shard(1);
  for (int spin = 0; spin < 2000 && (sup.stats().respawns <= respawns_before ||
                                     sup.backend_state(1) !=
                                         Sup::BackendState::kProcess);
       ++spin) {
    sup.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(sup.stats().respawns, respawns_before);
  EXPECT_EQ(gauge_value("dist_respawns", "dist-sigkill"),
            static_cast<double>(sup.stats().respawns));
  EXPECT_EQ(gauge_value("dist_deaths", "dist-sigkill"),
            static_cast<double>(sup.stats().deaths));
  EXPECT_EQ(gauge_value("dist_process_backends", "dist-sigkill"), 2.0);
}

TEST(DistSupervisor, SigkillBothChildrenSequentiallyStillExact) {
  TempDir dir;
  Sup sup(base_config(dir.path, 4, /*use_processes=*/true));
  run_exact(sup, 13, 100, [&](std::size_t i) {
    if (i == 30) sup.kill_shard(0);
    if (i == 60) sup.kill_shard(2);
  });
  EXPECT_GE(sup.stats().deaths, 2u);
  EXPECT_GE(sup.stats().respawns, 2u);
}

std::atomic<std::uint64_t> g_fake_now{0};
std::uint64_t fake_clock() { return g_fake_now.load(std::memory_order_relaxed); }

TEST(DistSupervisor, DroppedHeartbeatsEscalateThroughWatchdog) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  const DisarmGuard guard;
  TempDir dir;
  g_fake_now.store(0);
  Sup::Config cfg = base_config(dir.path, 2, /*use_processes=*/false);
  cfg.clock = &fake_clock;
  Sup sup(std::move(cfg));

  rb::PhaseWatchdog::Config wcfg;
  wcfg.stall_timeout_ns = 50'000'000;
  wcfg.dump_after_polls = 1u << 30;  // verdicts, not report dumps
  wcfg.clock = &fake_clock;
  rb::PhaseWatchdog wd(wcfg);
  sup.attach_watchdog(wd, /*polls_to_failover=*/2);

  // Every beat vanishes for a while; request traffic keeps flowing, so the
  // ONLY detection path is the watchdog channel.
  rb::arm(rb::FailSite::kHeartbeatDrop,
          rb::FireSpec{/*nth=*/1, /*period=*/1, /*max_fires=*/30, /*stall_us=*/0});
  run_exact(sup, 17, 100, [&](std::size_t) {
    g_fake_now.fetch_add(100'000'000);  // one quiet tick exceeds the timeout
    wd.poll();
  });
  EXPECT_GT(sup.stats().stall_verdicts, 0u);
  EXPECT_GT(sup.stats().takeovers, 0u);
  EXPECT_GT(rb::stats(rb::FailSite::kHeartbeatDrop).fires, 0u);
}

TEST(DistSupervisor, InjectedTransportFaultsAreAbsorbed) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  const DisarmGuard guard;
  TempDir dir;
  Sup sup(base_config(dir.path, 2, /*use_processes=*/false));
  rb::arm(rb::FailSite::kTransportSend,
          rb::FireSpec{/*nth=*/5, /*period=*/19, /*max_fires=*/8, /*stall_us=*/0});
  run_exact(sup, 19, 120);
  EXPECT_GT(sup.stats().transport_faults, 0u);
  EXPECT_GT(sup.stats().takeovers, 0u);
  EXPECT_GT(rb::stats(rb::FailSite::kTransportSend).recoveries, 0u);
}

TEST(DistSupervisor, SpawnFaultsBackOffThenReadmit) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  const DisarmGuard guard;
  TempDir dir;
  g_fake_now.store(0);
  Sup::Config cfg = base_config(dir.path, 2, /*use_processes=*/false);
  cfg.clock = &fake_clock;
  // Both initial spawns fail: the supervisor must come up anyway (both
  // shards taken over), then re-admit once the site exhausts its fires.
  rb::arm(rb::FailSite::kShardSpawn,
          rb::FireSpec{/*nth=*/1, /*period=*/1, /*max_fires=*/3, /*stall_us=*/0});
  Sup sup(std::move(cfg));
  EXPECT_EQ(sup.backend_state(0), Sup::BackendState::kTakenOver);
  EXPECT_EQ(sup.backend_state(1), Sup::BackendState::kTakenOver);
  run_exact(sup, 23, 80, [&](std::size_t) {
    g_fake_now.fetch_add(10'000'000);  // march past the backoff deadlines
  });
  EXPECT_GT(sup.stats().spawn_retries, 0u);
  EXPECT_GT(sup.stats().respawns, 0u);
  EXPECT_NE(sup.backend_state(0), Sup::BackendState::kTakenOver);
  EXPECT_NE(sup.backend_state(1), Sup::BackendState::kTakenOver);
}

TEST(DistSupervisor, ChildFaultCrashesChildAndSupervisorRecovers) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  TempDir dir;
  Sup::Config cfg = base_config(dir.path, 2, /*use_processes=*/true);
  // The child's own fail point kills it from the inside mid-conversation —
  // a different death than SIGKILL (exit 40 after an InjectedFailure).
  cfg.child_faults.push_back(
      {rb::FailSite::kTransportRecv,
       rb::FireSpec{/*nth=*/25, /*period=*/0, /*max_fires=*/1, /*stall_us=*/0}});
  Sup sup(std::move(cfg));
  run_exact(sup, 29, 100);
  EXPECT_GE(sup.stats().takeovers, 1u);
}

// --------------------------------------------------------------- DES consumer

TEST(DistSim, FaultFreeMatchesSerialReference) {
  TempDir dir;
  const sim::Topology t = sim::make_torus(6, 6);
  sim::ModelConfig mc;
  mc.seed = 5;
  const sim::Model m(t, mc);
  const sim::SimResult want = sim::run_serial_sim(m, 20.0);

  sim::DistSimConfig cfg;
  cfg.shards = 2;
  cfg.dir = dir.path;
  cfg.use_processes = true;
  const sim::DistSimResult got = sim::run_dist_sim(m, 20.0, cfg);
  EXPECT_TRUE(got.sim.same_outcome(want))
      << "processed " << got.sim.processed << " vs " << want.processed;
  EXPECT_EQ(got.sup.deaths, 0u);
}

TEST(DistSim, SigkillOneShardMidSimulationIsBitExact) {
  TempDir dir;
  const sim::Topology t = sim::make_torus(6, 6);
  sim::ModelConfig mc;
  mc.seed = 6;
  const sim::Model m(t, mc);
  const sim::SimResult want = sim::run_serial_sim(m, 20.0);

  sim::DistSimConfig cfg;
  cfg.shards = 2;
  cfg.dir = dir.path;
  cfg.use_processes = true;
  cfg.kill_at_cycle = 25;
  cfg.kill_shard = 0;
  const sim::DistSimResult got = sim::run_dist_sim(m, 20.0, cfg);
  EXPECT_TRUE(got.sim.same_outcome(want))
      << "processed " << got.sim.processed << " vs " << want.processed;
  EXPECT_GE(got.sup.kills, 1u);
  EXPECT_GE(got.sup.takeovers, 1u);
}

// ----------------------------------------------------- durability across runs

TEST(DistSupervisor, StateSurvivesSupervisorRestart) {
  TempDir dir;
  std::vector<U64> got;
  {
    Sup sup(base_config(dir.path, 2, /*use_processes=*/false));
    std::vector<U64> items;
    for (U64 v = 0; v < 64; ++v) items.push_back((v * 37) % 101);
    sup.build(std::span<const U64>(items));
    sup.checkpoint_all();
  }
  // A brand-new supervisor over the same directories must see the exact
  // multiset: per-shard recovery is the only carrier of state between runs.
  Sup sup(base_config(dir.path, 2, /*use_processes=*/false));
  EXPECT_EQ(sup.size(), 64u);
  std::vector<U64> want;
  for (U64 v = 0; v < 64; ++v) want.push_back((v * 37) % 101);
  std::sort(want.begin(), want.end());
  for (int guard = 0; guard < 64 && got.size() < 64; ++guard) {
    sup.cycle({}, 8, got);
  }
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace ph
