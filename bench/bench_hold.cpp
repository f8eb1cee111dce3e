// E6 — classic hold curves: per-op cost vs queue size for each structure
// (the standard presentation from the priority-queue literature the lineage
// builds on).
//
// Claim shapes: heaps grow ~logarithmically in n; the calendar queue stays
// ~flat on the exponential distribution; the batch-driven parallel heap's
// per-item cost stays within a small factor of the binary heap while doing
// its work in r-item batches.
#include <cstdint>
#include <cstring>
#include <vector>

#include "baselines/binary_heap.hpp"
#include "baselines/calendar_queue.hpp"
#include "baselines/dary_heap.hpp"
#include "baselines/pairing_heap.hpp"
#include "baselines/skew_heap.hpp"
#include "bench_common.hpp"
#include "core/parallel_heap.hpp"
#include "core/pipelined_heap.hpp"
#include "util/timer.hpp"
#include "workloads/hold_model.hpp"

namespace {

struct FixedKey {
  double operator()(std::uint64_t v) const { return ph::from_fixed(v); }
};

template <typename Q>
double time_scalar(std::size_t n, std::uint64_t ops) {
  ph::HoldConfig cfg;
  cfg.n = n;
  cfg.ops = ops;
  Q q;
  for (auto v : ph::hold_initial(cfg)) q.push(v);
  ph::Timer t;
  ph::scalar_hold(q, cfg);
  return t.seconds() / static_cast<double>(ops) * 1e9;  // ns/op
}

// A freshly bulk-loaded batch heap is not in hold shape: merged items per op
// keep rising for the first ~4n hold ops. So 4n untimed ops run first, as in
// bench_stack's hold_256k, and the timed ops draw a fresh increment stream.
template <typename Q>
double time_batch(Q& q, std::size_t n, std::uint64_t ops, std::size_t r) {
  ph::HoldConfig cfg;
  cfg.n = n;
  cfg.ops = 4 * static_cast<std::uint64_t>(n);
  q.build(ph::hold_initial(cfg));
  ph::batch_hold(q, cfg, r);
  cfg.ops = ops;
  cfg.seed += 1;
  ph::Timer t;
  const ph::HoldResult res = ph::batch_hold(q, cfg, r);
  return t.seconds() / static_cast<double>(res.ops) * 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);
  using namespace ph;
  using namespace ph::bench;

  // --quick: one mid-size point instead of the full curve. This is what the
  // CI telemetry-overhead gate runs twice (telemetry ON vs OFF build) — the
  // full sweep would dominate the job for no extra signal.
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  header("E6 hold curves: ns per hold op vs queue size",
         "claim: heaps ~log n; calendar ~flat; parallel heap within a small "
         "factor of binary heap at scale");
  columns("n,binary,dary4,skew,pairing,calendar,parheap_r512,pipelined_r512");

  const std::size_t n_lo = quick ? (1u << 14) : (1u << 8);
  const std::size_t n_hi = quick ? (1u << 14) : (1u << 21);
  for (std::size_t n = n_lo; n <= n_hi; n <<= 3) {
    const std::uint64_t ops = quick ? (1 << 16) : (1 << 18);
    const double bin = time_scalar<BinaryHeap<std::uint64_t>>(n, ops);
    const double d4 = time_scalar<DaryHeap<std::uint64_t, 4>>(n, ops);
    const double skew = time_scalar<SkewHeap<std::uint64_t>>(n, ops);
    const double pair = time_scalar<PairingHeap<std::uint64_t>>(n, ops);
    const double cal = time_scalar<CalendarQueue<std::uint64_t, FixedKey>>(n, ops);
    ParallelHeap<std::uint64_t> php(512);
    const double par = time_batch(php, n, ops, 512);
    PipelinedParallelHeap<std::uint64_t> pip(512);
    const double pipe = time_batch(pip, n, ops, 512);
    row("%zu,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f", n, bin, d4, skew, pair, cal,
        par, pipe);
    json_metric("binary_ns_n" + std::to_string(n), bin);
    json_metric("pipelined_ns_n" + std::to_string(n), pipe);
  }
  return 0;
}
