// The two in-process workloads: hold_256k (the paper's PQ benchmark on
// PipelinedParallelHeap) and des_torus (the conservative window DES over
// ShardedHeap). Both drive the library through its public cycle() calls.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <span>
#include <string>
#include <vector>

#include "baselines/binary_heap.hpp"
#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "layers.hpp"
#include "sim/event.hpp"
#include "sim/model.hpp"
#include "sim/network.hpp"
#include "sim/serial_sim.hpp"
#include "sim/sync_sim.hpp"
#include "stack.hpp"
#include "util/rng.hpp"
#include "workloads/hold_model.hpp"

namespace stack {
namespace {

// Timings are taken per segment of 64 consecutive cycles (~30 ms).
constexpr std::size_t kSegmentCycles = 64;

// hold_256k: n = 2^18 uint64 keys (2 MiB), r = k = 512, exponential
// increments, 4n untimed warm-up ops.
constexpr std::size_t kHoldN = 1u << 18;
constexpr std::size_t kHoldR = 512;

// des_torus: 256x256 torus, grain 0, K = 4 shards with r = k = 512 and the
// other ShardedHeap::Config fields at their defaults (workers = 0). One
// simulation to this horizon handles about 1 M events.
constexpr std::size_t kTorusSide = 256;
constexpr std::size_t kDesShards = 4;
constexpr std::size_t kDesR = 512;
constexpr double kDesHorizon = 40.0;
constexpr std::size_t kDesSettleCycles = 256;
constexpr double kDesSmokeHorizon = 20.0;

using HoldHeap = ph::PipelinedParallelHeap<std::uint64_t>;
using ph::sim::Event;
using ph::sim::EventOrder;
using EventHeap = ph::PipelinedParallelHeap<Event, EventOrder>;
using ShardedEventHeap = ph::ShardedHeap<Event, EventOrder>;

/// Per-segment timings of untraced cycles (TimedQueue), gathered over a run.
struct Timings {
  std::vector<double> seg_ns_per_item, seg_p50_us, lat_us;

  template <typename Q>
  void add(const TimedQueue<Q>& tq) {
    seg_ns_per_item.insert(seg_ns_per_item.end(), tq.seg_ns_per_item.begin(),
                           tq.seg_ns_per_item.end());
    seg_p50_us.insert(seg_p50_us.end(), tq.seg_p50_us.begin(), tq.seg_p50_us.end());
    lat_us.insert(lat_us.end(), tq.lat_us.begin(), tq.lat_us.end());
  }

  /// The gated timings, plus the report-only p99 over every untraced call.
  void report(Results& res) const {
    std::vector<double> lat = lat_us;
    res.set("ns_per_op", quiet(seg_ns_per_item), "ns");
    res.set("latency_p50_us", quiet(seg_p50_us), "us");
    res.set("latency_p99_us", percentile(lat, 99.0), "us");
    res.set("segments", static_cast<double>(seg_ns_per_item.size()), "count");
    res.set("ns_per_op_median", median(seg_ns_per_item), "ns");
  }
};

/// The multiset/ordering ledger of a hold run: an additive hash of inserted
/// minus deleted keys, and the order check. Each cycle's output must be
/// sorted, and a key below the previous cycle's largest output may only be
/// one inserted by this very cycle: every older key was in the heap when
/// that larger key was deleted. Outputs are thus nondecreasing across the
/// run except for keys re-inserted below the frontier.
struct HoldLedger {
  std::uint64_t hash = 0;
  std::uint64_t prev_max = 0;
  bool ordered = true;
  std::vector<std::uint64_t> fresh_sorted;

  void inserted(std::span<const std::uint64_t> v) {
    for (std::uint64_t x : v) hash += ph::sim::mix64(x);
  }
  void cycle(std::span<const std::uint64_t> fresh,
             std::span<const std::uint64_t> deleted) {
    inserted(fresh);
    fresh_sorted.assign(fresh.begin(), fresh.end());
    std::sort(fresh_sorted.begin(), fresh_sorted.end());
    std::size_t j = 0;
    for (std::size_t i = 0; i < deleted.size(); ++i) {
      const std::uint64_t x = deleted[i];
      hash -= ph::sim::mix64(x);
      if (i > 0 && x < deleted[i - 1]) ordered = false;
      if (x >= prev_max) continue;
      while (j < fresh_sorted.size() && fresh_sorted[j] < x) ++j;
      if (j < fresh_sorted.size() && fresh_sorted[j] == x) {
        ++j;  // consumed: a same-cycle insert
      } else {
        ordered = false;
      }
    }
    // Every key left in the heap is >= this cycle's largest output.
    prev_max = deleted.empty() ? 0 : deleted.back();
  }
};

/// Calls a snapshot hook once, right after the `at`-th cycle of the wrapped
/// queue returns (outside that cycle's timing).
template <typename Q>
struct SnapshotAt {
  using value_type = typename Q::value_type;
  Q& q;
  std::uint64_t at;
  std::function<void()> hook;
  std::uint64_t n = 0;

  std::size_t cycle(std::span<const value_type> fresh, std::size_t k,
                    std::vector<value_type>& out) {
    const std::size_t got = q.cycle(fresh, k, out);
    if (++n == at) hook();
    return got;
  }
};

}  // namespace

double binary_hold_ns_per_op(std::uint64_t seed) {
  ph::HoldConfig cfg;
  cfg.n = kHoldN;
  cfg.seed = seed;
  cfg.ops = 1u << 19;
  ph::BinaryHeap<std::uint64_t> q;
  q.build(ph::hold_initial(cfg));
  ph::scalar_hold(q, cfg);  // warm-up
  std::vector<double> seg;
  cfg.ops = 1u << 18;
  for (std::uint64_t i = 0; i < 5; ++i) {
    cfg.seed = seed + 1 + i;
    const std::uint64_t t0 = mono_ns();
    const ph::HoldResult r = ph::scalar_hold(q, cfg);
    seg.push_back(per(mono_ns() - t0, r.ops));
  }
  return median(seg);
}

void run_hold(const Options& opt, Results& res, Tracer& tr) {
  ph::HoldConfig cfg;
  cfg.n = kHoldN;
  cfg.seed = opt.seed;
  cfg.dist = ph::Dist::kExponential;

  // Set-up: generate the keys and bulk-load a fresh heap (the ledger, when
  // given, records the keys after the clock stops).
  std::vector<double> setup_s;
  auto setup = [&](HoldLedger* ledger) {
    const std::uint64_t t0 = mono_ns();
    auto heap = std::make_unique<HoldHeap>(kHoldR);
    const std::vector<std::uint64_t> init = ph::hold_initial(cfg);
    heap->build(init);
    setup_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
    if (ledger != nullptr) ledger->inserted(init);
    return heap;
  };
  for (int i = 1; i < kSetups; ++i) setup(nullptr);
  HoldLedger ledger;
  const std::unique_ptr<HoldHeap> q = setup(&ledger);

  ph::Xoshiro256 rng(opt.seed ^ 0x9e3779b97f4a7c15ull);
  TimedQueue<HoldHeap> tq(*q, tr, "pipelined.cycle", kSegmentCycles);
  std::vector<std::uint64_t> fresh, deleted;
  auto one_cycle = [&]() -> std::uint64_t {
    deleted.clear();
    tq.cycle(fresh, kHoldR, deleted);
    ledger.cycle(fresh, deleted);
    fresh.clear();
    for (std::uint64_t t : deleted) {
      fresh.push_back(t + ph::to_fixed(ph::draw_increment(rng, cfg.dist)));
    }
    return deleted.size();
  };

  // Warm-up: the pipelined hold reaches steady merge work after ~2n ops.
  const std::uint64_t warm_ops = (opt.smoke ? 1 : 4) * static_cast<std::uint64_t>(kHoldN);
  std::uint64_t total_ops = 0;
  while (total_ops < warm_ops) total_ops += one_cycle();
  tq.reset();

  // Timed window: equal segments; a traced run alternates untraced and
  // traced segments so the tracing overhead is measured in the same run.
  std::vector<double> seg_plain, seg_traced;
  CoreDelta core;
  std::uint64_t traced_ops = 0;
  const std::uint64_t deadline = mono_after(opt.seconds);
  for (std::size_t seg = 0;
       mono_ns() < deadline || seg_plain.empty() || (opt.trace && seg_traced.empty());
       ++seg) {
    const bool traced = opt.trace && seg % 2 == 1;
    tq.traced = traced;
    const ph::HeapStats before = q->stats();
    const std::uint32_t span = traced ? tr.begin("hold.segment") : 0;
    const std::uint64_t t0 = mono_ns();
    std::uint64_t ops = 0;
    for (std::size_t c = 0; c < kSegmentCycles; ++c) ops += one_cycle();
    const std::uint64_t ns = mono_ns() - t0;
    tr.end(span);
    (traced ? seg_traced : seg_plain).push_back(per(ns, ops));
    if (traced) {
      core.add(before, q->stats());
      traced_ops += ops;
    }
    total_ops += ops;
  }
  tq.traced = false;
  res.set("peak_rss_mb", sample_proc(0).hwm_mib, "MiB");

  // Flush the last regenerated batch so the content is exactly n keys.
  std::vector<std::uint64_t> sink;
  q->cycle(fresh, 0, sink);
  ledger.inserted(fresh);
  res.attempted = total_ops;

  for (int i = 0; i < kSetups; ++i) setup(nullptr);
  res.set("setup_s", median(setup_s), "s");
  Timings timings;
  timings.add(tq);
  timings.report(res);

  if (opt.trace) {
    time_kernels(drained_nodes(*q), kHoldR, std::less<std::uint64_t>{}, opt.seed, res,
                 tr);
    set_core(res, tr, "pipelined.cycle", core, traced_ops);
    res.set("trace.overhead_frac", median(seg_traced) / median(seg_plain) - 1.0, "ratio");
    res.set("ref.binary_ns_per_op", binary_hold_ns_per_op(opt.seed), "ns/op");
  }

  // Correctness gates: nondecreasing output, multiset conservation, heap
  // invariants.
  if (!ledger.ordered) {
    res.fail("hold_256k: a cycle's output is unsorted or below the previous frontier");
  }
  const std::vector<std::uint64_t> contents = q->sorted_contents();
  if (contents.size() != kHoldN) {
    res.fail("hold_256k: final size " + std::to_string(contents.size()) + " != n");
  }
  HoldLedger final_content;
  final_content.inserted(contents);
  if (final_content.hash != ledger.hash) {
    res.fail("hold_256k: multiset hash of inserted minus deleted keys != final contents");
  }
  std::string why;
  if (!q->check_invariants(&why)) res.fail("hold_256k: check_invariants: " + why);
}

void run_des(const Options& opt, Results& res, Tracer& tr) {
  const double horizon = opt.smoke ? kDesSmokeHorizon : kDesHorizon;
  ph::sim::ModelConfig mc;
  mc.seed = opt.seed;

  // Set-up: build the torus and the model.
  std::vector<double> setup_s;
  auto setup = [&] {
    const std::uint64_t t0 = mono_ns();
    ph::sim::Model m(ph::sim::make_torus(kTorusSide, kTorusSide), mc);
    setup_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
    return m;
  };
  for (int i = 1; i < kSetups; ++i) setup();
  const ph::sim::Model model = setup();

  const ph::sim::SimResult serial = ph::sim::run_serial_sim(model, horizon);
  ShardedEventHeap::Config sc;
  sc.shards = kDesShards;

  // Timed window: whole simulations; a traced run alternates untraced and
  // traced ones. Each simulation must match the serial reference.
  std::vector<double> sim_plain, sim_traced;
  Timings timings;
  // Every simulation runs the same events, so one traced run's counters stand
  // for all of them.
  ph::ShardedStats shard_stats;
  ph::sim::SimResult traced_run;
  const std::uint64_t deadline = mono_after(opt.seconds);
  for (std::size_t i = 0;
       mono_ns() < deadline || sim_plain.empty() || (opt.trace && sim_traced.empty());
       ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    ShardedEventHeap q(kDesR, sc);
    TimedQueue<ShardedEventHeap> tq(q, tr, "sharded.cycle", kSegmentCycles);
    tq.traced = traced;
    // Timed segments cover the steady state only: one pending event per LP,
    // after the seeding events' staggered timestamps have mixed (the first
    // kDesSettleCycles cycles) and before the queue drains past the horizon.
    std::size_t calls = 0;
    tq.steady = [&q, &calls, lps = model.num_lps()] {
      return ++calls > kDesSettleCycles && q.size() + 2 * kDesR >= lps;
    };
    const std::uint32_t span = traced ? tr.begin("des.sim") : 0;
    const ph::sim::SimResult r = ph::sim::run_sync_sim(tq, model, horizon, kDesR);
    tr.end(span);
    if (!r.same_outcome(serial)) {
      res.fail("des_torus: simulation " + std::to_string(i) + " processed " +
               std::to_string(r.processed) + " events (serial " +
               std::to_string(serial.processed) + ") or its fingerprint differs");
    }
    const double ns = per(r.seconds * 1e9, static_cast<double>(r.processed));
    (traced ? sim_traced : sim_plain).push_back(ns);
    timings.add(tq);
    res.attempted += r.processed;
    if (traced) {
      shard_stats = q.sharded_stats();
      traced_run = r;
    }
  }
  res.set("peak_rss_mb", sample_proc(0).hwm_mib, "MiB");
  for (int i = 0; i < kSetups; ++i) setup();
  res.set("setup_s", median(setup_s), "s");
  timings.report(res);
  res.set("simulations", static_cast<double>(sim_plain.size()), "count");
  res.set("events_per_simulation", static_cast<double>(serial.processed), "count");
  if (!opt.trace) return;

  res.set("ref.serial_ns_per_event",
          per(serial.seconds * 1e9, static_cast<double>(serial.processed)), "ns/event");
  res.set("trace.overhead_frac", median(sim_traced) / median(sim_plain) - 1.0, "ratio");
  const auto traced_events = static_cast<double>(serial.processed * sim_traced.size());
  res.set("sim.self_ns_per_event", per(tr.self_us("des.sim") * 1e3, traced_events),
          "ns/event");
  res.set("sim.deferred_frac",
          per(traced_run.deferred, traced_run.processed + traced_run.deferred), "ratio");
  res.set("sim.events_per_cycle", per(traced_run.processed, traced_run.cycles),
          "events/cycle");
  set_sharded(res, tr, "sharded.cycle", shard_stats, kDesShards);

  // The rung below: the same simulation over one PipelinedParallelHeap
  // (K = 1), traced per cycle, with a snapshot taken mid-run for the
  // kernel timings.
  EventHeap pq(kDesR);
  TimedQueue<EventHeap> tq1(pq, tr, "pipelined.cycle", kSegmentCycles);
  tq1.traced = true;
  std::vector<Event> snap;
  const std::uint64_t mid_cycle = serial.processed / kDesR / 2 + 1;
  SnapshotAt<TimedQueue<EventHeap>> sq{tq1, mid_cycle, [&] { snap = drained_nodes(pq); }};
  const ph::HeapStats before = pq.stats();
  const std::uint32_t span = tr.begin("des.sim_k1");
  const ph::sim::SimResult r1 = ph::sim::run_sync_sim(sq, model, horizon, kDesR);
  tr.end(span);
  if (!r1.same_outcome(serial)) res.fail("des_torus: the K = 1 rung differs from serial");
  CoreDelta core;
  core.add(before, pq.stats());
  time_kernels(snap, kDesR, EventOrder{}, opt.seed, res, tr);
  set_core(res, tr, "pipelined.cycle", core, r1.processed);
  res.set("ref.binary_ns_per_op", binary_hold_ns_per_op(opt.seed), "ns/op");

  std::printf("# waterfall des_torus (ns per event): serial binary heap %.1f | "
              "pipelined K=1 (traced) %.1f | sharded K=4 %.1f\n",
              res.get("ref.serial_ns_per_event"),
              per(r1.seconds * 1e9, static_cast<double>(r1.processed)),
              median(sim_plain));
}

}  // namespace stack
