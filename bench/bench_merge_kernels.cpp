// E19 — merge-kernel cost by input shape.
//
// A node merge in the heap folds a few items into ~r, so the two runs
// interleave only a handful of times; the kernels gallop over the long
// stretches. This bench prices merge2 and merge2_split (keep = |a|) per
// output item on three shapes of uint64_t runs:
//   interleaved  512 + 512 independent random keys (the worst case: runs
//                alternate about every item)
//   skewed       12 random keys into 512 (the common node-repair shape)
//   disjoint     512 + 512 with every key of a below every key of b
// Each row is the median of 9 timed passes over 64 pre-generated pairs.
//
// A second table prices the delete-update child refill (core/node_arena.hpp)
// on its own: a full 512-item slot drops its k smallest and merges k fills
// (k ∈ {1, 8, 64}). The fills are keys above the child's 448th item, so
// they land among its largest ~64, as on hold_256k, where the first fill of
// a refill sorts ~88% of the way into the child. `forward` is a slot
// without headroom — the whole remaining child shifts down to the slot
// base; `head_advance` is a slot of 512 + 64 — the head moves past the
// dropped prefix and the fills merge in from the back. Rows give ns and
// items written per refill, median of 9 passes over 256 slots.
//
// Claim: skewed and disjoint merges cost a small fraction of the
// interleaved ns/item; the interleaved case stays at parity with a plain
// item-by-item merge; a head-advance refill costs about what its fills
// displace, a forward one about the whole child.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/node_arena.hpp"
#include "core/sorted_ops.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using Run = std::vector<std::uint64_t>;
using Pair = std::pair<Run, Run>;

Run sorted_run(ph::Xoshiro256& rng, std::size_t n, std::uint64_t lo, std::uint64_t span) {
  Run v(n);
  for (auto& x : v) x = lo + rng.next_below(span);
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<Pair> make_pairs(const std::string& shape, ph::Xoshiro256& rng) {
  constexpr std::uint64_t kSpan = 1ull << 40;
  std::vector<Pair> pairs;
  for (int p = 0; p < 64; ++p) {
    if (shape == "interleaved") {
      pairs.emplace_back(sorted_run(rng, 512, 0, kSpan), sorted_run(rng, 512, 0, kSpan));
    } else if (shape == "skewed") {
      pairs.emplace_back(sorted_run(rng, 512, 0, kSpan), sorted_run(rng, 12, 0, kSpan));
    } else {
      pairs.emplace_back(sorted_run(rng, 512, 0, kSpan), sorted_run(rng, 512, kSpan, kSpan));
    }
  }
  return pairs;
}

/// Median ns per output item of `merge_one` over every pair, 9 passes.
template <typename F>
double time_ns_per_item(const std::vector<Pair>& pairs, F merge_one) {
  std::size_t items = 0;
  for (const auto& [a, b] : pairs) items += a.size() + b.size();
  std::vector<double> passes;
  for (int pass = 0; pass < 9; ++pass) {
    ph::Timer t;
    std::size_t done = 0;
    while (done < (1u << 21)) {
      for (const auto& [a, b] : pairs) merge_one(a, b);
      done += items;
    }
    passes.push_back(static_cast<double>(t.nanos()) / static_cast<double>(done));
  }
  std::nth_element(passes.begin(), passes.begin() + 4, passes.end());
  return passes[4];
}

struct RefillCost {
  double ns, written;  ///< per refill
};

/// Refills 256 full 512-item slots with k fills each, `stride` items per
/// slot (512: no headroom, the forward path; 576: head advance). Median of
/// 9 passes; the slots are restored, untimed, between passes.
RefillCost time_refill(std::size_t k, std::size_t stride, ph::Xoshiro256& rng) {
  constexpr std::size_t kSlots = 256, kCount = 512;
  constexpr std::uint64_t kSpan = 1ull << 40;
  std::vector<std::uint64_t> pristine(kSlots * stride), work;
  std::vector<Run> fills(kSlots);
  for (std::size_t s = 0; s < kSlots; ++s) {
    const Run child = sorted_run(rng, kCount, 0, kSpan);
    std::copy(child.begin(), child.end(), pristine.begin() + static_cast<std::ptrdiff_t>(s * stride));
    const std::uint64_t lo = child[kCount - 64];
    fills[s] = sorted_run(rng, k, lo, kSpan - lo);
  }
  const auto cmp = std::less<std::uint64_t>{};
  std::vector<double> passes;
  std::size_t written = 0;
  for (int pass = 0; pass < 9; ++pass) {
    work = pristine;
    written = 0;
    ph::Timer t;
    for (std::size_t s = 0; s < kSlots; ++s) {
      ph::NodeSlot<std::uint64_t> slot(work.data() + s * stride, 0, kCount, stride);
      written += ph::refill(slot, std::span<const std::uint64_t>(fills[s]), cmp);
    }
    passes.push_back(static_cast<double>(t.nanos()) / kSlots);
  }
  std::nth_element(passes.begin(), passes.begin() + 4, passes.end());
  return {passes[4], static_cast<double>(written) / kSlots};
}

}  // namespace

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);
  using namespace ph;
  using namespace ph::bench;

  header("E19 merge-kernel cost by input shape (uint64_t, ns per item)",
         "claim: skewed and disjoint merges cost a fraction of interleaved ones");
  columns("shape,merge2_ns_per_item,merge2_split_ns_per_item");

  Xoshiro256 rng(19);
  std::uint64_t sink = 0;
  std::vector<std::uint64_t> out, kept, rest;
  const auto cmp = std::less<std::uint64_t>{};
  for (const std::string shape : {"interleaved", "skewed", "disjoint"}) {
    const std::vector<Pair> pairs = make_pairs(shape, rng);
    const double m2 = time_ns_per_item(pairs, [&](const Run& a, const Run& b) {
      out.clear();
      merge2(std::span<const std::uint64_t>(a), std::span<const std::uint64_t>(b), out, cmp);
      sink += out[out.size() / 2];
    });
    const double split = time_ns_per_item(pairs, [&](const Run& a, const Run& b) {
      kept.clear();
      rest.clear();
      merge2_split(std::span<const std::uint64_t>(a), std::span<const std::uint64_t>(b),
                   a.size(), kept, rest, cmp);
      sink += kept.back() + rest.front();
    });
    row("%s,%.3f,%.3f", shape.c_str(), m2, split);
    json_metric("merge_kernel_" + shape + "_merge2_ns_per_item", m2);
    json_metric("merge_kernel_" + shape + "_merge2_split_ns_per_item", split);
  }
  note("runs of 512 (skewed: 12 into 512); checksum %llu",
       static_cast<unsigned long long>(sink % 1000));

  columns("refill,k,ns_per_refill,items_written_per_refill");
  for (const std::size_t k : {1u, 8u, 64u}) {
    const RefillCost fwd = time_refill(k, 512, rng);
    const RefillCost adv = time_refill(k, 512 + 64, rng);
    row("forward,%zu,%.1f,%.1f", k, fwd.ns, fwd.written);
    row("head_advance,%zu,%.1f,%.1f", k, adv.ns, adv.written);
    json_metric("merge_kernel_refill_forward_ns_k" + std::to_string(k), fwd.ns);
    json_metric("merge_kernel_refill_head_advance_ns_k" + std::to_string(k), adv.ns);
  }
  note("a full 512-item slot drops its k smallest and merges k fills among its top 64");
  return 0;
}
