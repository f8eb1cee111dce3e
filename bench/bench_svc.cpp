// E17 — the scheduler service core: multi-tenant fairness, backpressure,
// and exactly-once delivery over the WAL (PR10's tentpole; DESIGN.md §15).
//
// Four phases, all in-process against SchedulerCore (the TCP edge is phd's
// job; scripts/service_smoke.sh drives that end — this bench measures the
// engine under it):
//
//  * exactness gate — a randomized schedule/cancel/poll workload against a
//    client-side oracle: every acked uncancelled job delivered EXACTLY once,
//    cancelled jobs never, ledger conservation at every checkpoint. Any
//    divergence exits nonzero (CI runs this binary as a gate).
//  * recovery gate — the same core reopened from its WAL mid-history: the
//    per-tenant ledger must replay bit-exactly (acked/delivered/cancelled/
//    requeued equal row for row) with the backlog intact.
//  * throughput — enqueue (schedule+group-commit), dispatch (poll cycles
//    over a due backlog), and a mixed 80/20 loop; one ops/sec row.
//    Single-core wall numbers — the evidence is relative.
//  * fairness under overload — 64 Zipf-loaded tenants with weights cycling
//    1..4, admission deliberately saturated: delivered shares must track
//    weights (Jain index over delivered/weight, max relative error) while
//    kOverloaded sheds the excess instead of letting the backlog run away.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "svc/core.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using ph::svc::Admit;
using ph::svc::Job;
using ph::svc::SchedulerCore;
using ph::svc::SvcConfig;

std::atomic<std::uint64_t>& fake_now() {
  static std::atomic<std::uint64_t> now{1'000'000'000ull};
  return now;
}
std::uint64_t fake_clock() { return fake_now().load(std::memory_order_relaxed); }

struct Dir {
  std::string path;
  explicit Dir() : path(ph::persist::make_temp_dir("ph-bench-svc")) {}
  ~Dir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

SvcConfig base_cfg(const std::string& dir) {
  SvcConfig cfg;
  cfg.dir = dir;
  cfg.node_capacity = 64;
  cfg.producers = 4;
  cfg.clock = &fake_clock;
  return cfg;
}

/// Oracle-checked randomized workload; returns false on any exactness hole.
bool exactness_gate(std::size_t ops) {
  Dir dir;
  SchedulerCore core(base_cfg(dir.path));
  ph::Xoshiro256 rng(0xE17);
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> seen;
  std::set<std::pair<std::uint32_t, std::uint64_t>> cancelled;
  std::vector<Job> due;
  std::string why;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint32_t t = static_cast<std::uint32_t>(rng() % 32);
    std::uint64_t deadline = 0;
    if (core.schedule(t, rng() % 20'000'000, i + 1, rng(), 0, &deadline) !=
        Admit::kOk) {
      return false;
    }
    seen[{t, i + 1}] = 0;
    if (rng() % 6 == 0) {
      if (core.cancel(t, deadline, i + 1) != Admit::kOk) return false;
      cancelled.insert({t, i + 1});
    }
    if (i % 16 == 15) {
      fake_now().fetch_add(5'000'000, std::memory_order_relaxed);
      due.clear();
      core.poll_due(1 + rng() % 32, due);
      for (const Job& j : due) {
        auto it = seen.find({j.tenant, j.id});
        if (it == seen.end() || ++it->second > 1) return false;
        if (cancelled.count({j.tenant, j.id}) != 0) return false;
      }
      if (i % 512 == 511 && !core.check_invariants(&why)) {
        std::fprintf(stderr, "bench_svc: %s\n", why.c_str());
        return false;
      }
    }
  }
  fake_now().fetch_add(3'600'000'000'000ull, std::memory_order_relaxed);
  for (int it2 = 0; it2 < 2000 && core.backlog() > 0; ++it2) {
    due.clear();
    core.poll_due(128, due);
    for (const Job& j : due) {
      auto it = seen.find({j.tenant, j.id});
      if (it == seen.end() || ++it->second > 1) return false;
    }
  }
  if (core.backlog() != 0) return false;
  for (const auto& [key, times] : seen) {
    const int expect = cancelled.count(key) != 0 ? 0 : 1;
    if (times != expect) return false;
  }
  const ph::svc::SvcStats st = core.stats();
  return st.acked == st.delivered + st.cancelled && core.check_invariants(&why);
}

/// WAL-replay ledger equality across a close/reopen mid-history.
bool recovery_gate(std::size_t ops) {
  Dir dir;
  std::vector<ph::svc::TenantStatRow> before;
  std::size_t backlog_before = 0;
  {
    SchedulerCore core(base_cfg(dir.path));
    ph::Xoshiro256 rng(0x517);
    std::vector<Job> due;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint32_t t = static_cast<std::uint32_t>(rng() % 16);
      std::uint64_t deadline = 0;
      if (core.schedule(t, rng() % 20'000'000, i + 1, 0, 0, &deadline) !=
          Admit::kOk) {
        return false;
      }
      if (rng() % 7 == 0 && core.cancel(t, deadline, i + 1) != Admit::kOk) {
        return false;
      }
      if (i % 64 == 63) {
        fake_now().fetch_add(5'000'000, std::memory_order_relaxed);
        due.clear();
        core.poll_due(32, due);
      }
    }
    core.commit();
    before = core.stat_rows();
    backlog_before = core.backlog();
  }
  SchedulerCore core(base_cfg(dir.path));
  if (core.backlog() != backlog_before) return false;
  const auto after = core.stat_rows();
  if (after.size() != before.size()) return false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (after[i].tenant != before[i].tenant || after[i].acked != before[i].acked ||
        after[i].cancel_reqs != before[i].cancel_reqs ||
        after[i].delivered != before[i].delivered ||
        after[i].cancelled != before[i].cancelled ||
        after[i].requeued != before[i].requeued) {
      return false;
    }
  }
  std::string why;
  return core.check_invariants(&why);
}

struct Tput {
  double enqueue_mops = 0, dispatch_mops = 0, mixed_mops = 0;
};

Tput throughput(std::size_t ops) {
  Tput r;
  {  // enqueue: schedule + group commit every 64
    Dir dir;
    SchedulerCore core(base_cfg(dir.path));
    ph::Xoshiro256 rng(1);
    ph::Timer t;
    for (std::uint64_t i = 0; i < ops; ++i) {
      core.schedule(static_cast<std::uint32_t>(i % 64), 1'000'000'000ull, i + 1,
                    0, 0);
      if (i % 64 == 63) core.commit();
    }
    core.commit();
    r.enqueue_mops = static_cast<double>(ops) / t.seconds() / 1e6;
  }
  {  // dispatch: drain a fully-due backlog through poll cycles
    Dir dir;
    SchedulerCore core(base_cfg(dir.path));
    for (std::uint64_t i = 0; i < ops; ++i) {
      core.schedule(static_cast<std::uint32_t>(i % 64), 0, i + 1, 0, 0);
      if (i % 256 == 255) core.commit();
    }
    core.commit();
    fake_now().fetch_add(1'000'000'000ull, std::memory_order_relaxed);
    std::vector<Job> due;
    ph::Timer t;
    std::size_t delivered = 0;
    while (core.backlog() > 0) {
      due.clear();
      core.poll_due(1024, due);
      delivered += due.size();
    }
    r.dispatch_mops = static_cast<double>(delivered) / t.seconds() / 1e6;
  }
  {  // mixed: bursts of schedules with interleaved polls (the phd loop shape)
    Dir dir;
    SchedulerCore core(base_cfg(dir.path));
    ph::Xoshiro256 rng(2);
    std::vector<Job> due;
    ph::Timer t;
    for (std::uint64_t i = 0; i < ops; ++i) {
      core.schedule(static_cast<std::uint32_t>(rng() % 64), rng() % 10'000'000,
                    i + 1, 0, 0);
      if (i % 64 == 63) {
        fake_now().fetch_add(2'000'000, std::memory_order_relaxed);
        due.clear();
        core.poll_due(64, due);
      }
    }
    r.mixed_mops = static_cast<double>(ops) / t.seconds() / 1e6;
  }
  return r;
}

struct Fairness {
  double jain = 0, max_rel_err = 0, shed_frac = 0;
  bool bounded = false;  ///< backlog respected the wall
};

constexpr std::size_t kTenants = 64;

double weight_of(std::uint32_t t) {
  return 1.0 + static_cast<double>(t % 4);
}

/// Jain's index over x_t = delivered_t / weight_t, restricted to `in`;
/// also the worst relative error vs the weighted fair share of the
/// restricted set's total.
std::pair<double, double> jain_weighted(
    const std::vector<std::uint64_t>& delivered,
    const std::vector<bool>& in) {
  double s1 = 0, s2 = 0, total = 0, wsum = 0, max_err = 0;
  std::size_t n = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    if (!in[t]) continue;
    total += static_cast<double>(delivered[t]);
    wsum += weight_of(static_cast<std::uint32_t>(t));
  }
  for (std::size_t t = 0; t < kTenants; ++t) {
    if (!in[t]) continue;
    const double w = weight_of(static_cast<std::uint32_t>(t));
    const double x = static_cast<double>(delivered[t]) / w;
    s1 += x;
    s2 += x * x;
    ++n;
    const double expect = total * w / wsum;
    if (expect > 0) {
      const double err =
          std::abs(static_cast<double>(delivered[t]) - expect) / expect;
      if (err > max_err) max_err = err;
    }
  }
  const double jain = (n == 0 || s2 == 0)
                          ? 0.0
                          : (s1 * s1) / (static_cast<double>(n) * s2);
  return {jain, max_err};
}

/// Flood `floods` schedules (tenant chosen by `pick(i)`, deadlines
/// rank-major so the popped frontier interleaves tenants), then dispatch
/// `polls` scarce polls of `max` and count per-tenant deliveries.
struct OverloadRun {
  std::vector<std::uint64_t> delivered;
  double shed_frac = 0;
  bool bounded = false;
  std::vector<std::uint64_t> acked;  ///< admitted per tenant (demand proxy)
};

template <typename Pick>
OverloadRun overload_run(Pick pick, std::uint64_t floods, int polls,
                         std::size_t max) {
  OverloadRun r;
  Dir dir;
  SvcConfig cfg = base_cfg(dir.path);
  cfg.weight = [](std::uint32_t t) { return weight_of(t); };
  cfg.overload_watermark = 1u << 12;
  cfg.max_backlog = 1u << 15;
  cfg.admit_rate = 200000.0;
  cfg.burst = 64.0;
  // DRR's weighted-share guarantee holds for tenants continuously backlogged
  // *inside the popped window* — in steady state, delivered mix necessarily
  // equals arrival mix (queues conserve mass), so the measurement uses a
  // wide window and few scarce polls: every tenant's due queue must outlast
  // all rounds, or the surplus credit leaks to whoever is left.
  cfg.poll_over_pull = 16;
  cfg.max_poll_batch = 1u << 14;
  SchedulerCore core(cfg);

  // Flood WAY past the watermark. Open loop: every refusal counts.
  std::uint64_t sent = 0, shed = 0, id = 0;
  std::vector<Job> due;
  for (std::uint64_t i = 0; i < floods; ++i) {
    const std::uint32_t t = pick(i);
    ++sent;
    const std::uint64_t rank = i / kTenants;
    if (core.schedule(t, rank * 1000, ++id, 0, 0) == Admit::kOverloaded) ++shed;
    if (i % 128 == 127) core.commit();
    fake_now().fetch_add(5'000, std::memory_order_relaxed);  // 5us per op
  }
  core.commit();
  r.shed_frac = static_cast<double>(shed) / static_cast<double>(sent);
  r.bounded = core.backlog() <= cfg.max_backlog;

  // Dispatch under poll scarcity — fairness is DRR's to deliver.
  fake_now().fetch_add(3'600'000'000'000ull, std::memory_order_relaxed);
  r.delivered.assign(kTenants, 0);
  for (int p = 0; p < polls; ++p) {
    due.clear();
    core.poll_due(max, due);
    for (const Job& j : due) ++r.delivered[j.tenant % kTenants];
  }
  r.acked.assign(kTenants, 0);
  for (const auto& row : core.stat_rows()) {
    if (row.tenant < kTenants) r.acked[row.tenant] = row.acked;
  }
  return r;
}

/// THE fairness gate: uniform demand (round-robin tenants), weights cycling
/// 1..4, admission saturated. Every tenant stays backlogged with jobs in
/// every popped window, so delivered shares must track weights — this is
/// the condition DRR's guarantee is stated under.
Fairness fairness_under_overload() {
  const OverloadRun r = overload_run(
      [](std::uint64_t i) { return static_cast<std::uint32_t>(i % kTenants); },
      60000, 6, 1024);
  Fairness f;
  f.shed_frac = r.shed_frac;
  f.bounded = r.bounded;
  std::vector<bool> in(kTenants, true);
  std::tie(f.jain, f.max_rel_err) = jain_weighted(r.delivered, in);
  return f;
}

/// Zipf-skewed demand: gates that shedding engages and the backlog stays
/// bounded; the Jain figure is computed over *supply-eligible* tenants only
/// (admitted demand at least twice the all-tenant fair share) — a tail
/// tenant with three jobs queued cannot absorb its weighted share, and no
/// scheduler could deliver it.
Fairness zipf_overload() {
  // Zipf CDF over tenants (s = 1: harmonic).
  std::vector<double> cdf(kTenants);
  double sum = 0;
  for (std::size_t i = 0; i < kTenants; ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf[i] = sum;
  }
  ph::Xoshiro256 rng(0xFA1);
  auto pick = [&](std::uint64_t) {
    const double u = static_cast<double>(rng() % 100000) / 100000.0;
    for (std::size_t i = 0; i < kTenants; ++i) {
      if (u * sum <= cdf[i]) return static_cast<std::uint32_t>(i);
    }
    return static_cast<std::uint32_t>(kTenants - 1);
  };
  const OverloadRun r = overload_run(pick, 60000, 6, 1024);
  Fairness f;
  f.shed_frac = r.shed_frac;
  f.bounded = r.bounded;
  double total_delivered = 0, wsum_all = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    total_delivered += static_cast<double>(r.delivered[t]);
    wsum_all += weight_of(static_cast<std::uint32_t>(t));
  }
  std::vector<bool> eligible(kTenants, false);
  for (std::size_t t = 0; t < kTenants; ++t) {
    const double fair =
        total_delivered * weight_of(static_cast<std::uint32_t>(t)) / wsum_all;
    eligible[t] = static_cast<double>(r.acked[t]) >= 2.0 * fair;
  }
  std::tie(f.jain, f.max_rel_err) = jain_weighted(r.delivered, eligible);
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);
  using ph::bench::header;
  using ph::bench::json_metric;
  using ph::bench::note;
  using ph::bench::row;

  std::size_t ops = 40000;
  std::size_t gate_ops = 4000;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--ops" && i + 1 < argc) {
      ops = ph::flag_uint("bench_svc", "--ops", argv[++i], 1, SIZE_MAX);
    } else if (std::string(argv[i]) == "--gate-ops" && i + 1 < argc) {
      gate_ops = ph::flag_uint("bench_svc", "--gate-ops", argv[++i], 1, SIZE_MAX);
    }
  }

  header("E17 scheduler service: fairness, backpressure, exactly-once delivery",
         "multi-tenant service semantics over DurableHeap<PipelinedParallelHeap> — "
         "delivered shares track weights under overload, acked jobs survive "
         "replay, nothing is lost or duplicated");

  const bool exact = exactness_gate(gate_ops);
  row("gate,exactness,%d", exact ? 1 : 0);
  json_metric("svc_exactness_ok", exact ? 1 : 0);
  const bool recovered = recovery_gate(gate_ops);
  row("gate,recovery,%d", recovered ? 1 : 0);
  json_metric("svc_recovery_ok", recovered ? 1 : 0);

  ph::bench::columns("phase,enqueue_mops,dispatch_mops,mixed_mops");
  const Tput t = throughput(ops);
  row("tput,%.3f,%.3f,%.3f", t.enqueue_mops, t.dispatch_mops, t.mixed_mops);
  json_metric("svc_enqueue_mops", t.enqueue_mops);
  json_metric("svc_dispatch_mops", t.dispatch_mops);
  json_metric("svc_mixed_mops", t.mixed_mops);

  const Fairness f = fairness_under_overload();
  row("fairness,64,%.4f,%.4f,%.3f,%d", f.jain, f.max_rel_err, f.shed_frac,
      f.bounded ? 1 : 0);
  json_metric("svc_fairness_jain", f.jain);
  json_metric("svc_fairness_max_rel_err", f.max_rel_err);

  const Fairness z = zipf_overload();
  row("zipf,64,%.4f,%.4f,%.3f,%d", z.jain, z.max_rel_err, z.shed_frac,
      z.bounded ? 1 : 0);
  json_metric("svc_zipf_jain_eligible", z.jain);
  json_metric("svc_overload_shed_frac", z.shed_frac);
  json_metric("svc_backlog_bounded", z.bounded ? 1 : 0);

  note("gate rows are correctness contracts (0 fails the binary); fairness "
       "row: uniform-demand overload — jain over delivered/weight across all "
       "64 tenants, max relative error vs weighted fair share; zipf row: "
       "skewed demand — jain over supply-eligible tenants, shed fraction, "
       "backlog bounded by the wall");

  if (!exact || !recovered) {
    std::fprintf(stderr, "bench_svc: FAIL — correctness gate\n");
    return 1;
  }
  if (f.jain < 0.90 || !f.bounded || z.shed_frac <= 0.0 || !z.bounded) {
    std::fprintf(stderr,
                 "bench_svc: FAIL — fairness/backpressure gate (jain=%.4f "
                 "bounded=%d/%d zipf_shed=%.3f)\n",
                 f.jain, f.bounded ? 1 : 0, z.bounded ? 1 : 0, z.shed_frac);
    return 1;
  }
  return 0;
}
