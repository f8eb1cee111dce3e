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
// A third table prices the batch sort of root work: std::sort and
// sort_in_place against sort_run (core/sorted_ops.hpp) on batches of 128
// and 512 random items,
// for uint64_t keys and for sim::Event (24 bytes, ordered by timestamp then
// tag). Each row is ns per item, median of 9 passes over 64 batches; a
// pass copies each batch into a work buffer and sorts it there, as root
// work does.
//
// A fourth table prices the bulk-load sort (NodeArena::build, restore, a
// batch over 2r): std::sort against sort_in_place on one random array of
// 2^14, 2^18 and 2^20 items, for the same two types. Rows are ns per item,
// median of 9 passes; a pass copies the array into a work buffer and sorts
// it there, as build does, and repeats until it has sorted 2^20 items.
//
// Claim: skewed and disjoint merges cost a small fraction of the
// interleaved ns/item; the interleaved case stays at parity with a plain
// item-by-item merge; a head-advance refill costs about what its fills
// displace, a forward one about the whole child; sort_run, whose compares
// feed selects rather than branches, sorts random batches in about half
// of std::sort's time per item; sort_in_place, whose block partition also
// turns compares into data, sorts a bulk load in at most 0.6 of
// std::sort's time at 2^18 uint64_t keys.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/node_arena.hpp"
#include "core/sorted_ops.hpp"
#include "sim/event.hpp"
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

/// Median ns per item of copying each batch into a work buffer and sorting
/// it with `sort` (std::sort, sort_run or sort_in_place), 9 passes.
template <typename T, typename Less, typename Sort>
double time_sort(const std::vector<std::vector<T>>& batches, Less less, Sort sort,
                 std::uint64_t& sink) {
  std::size_t items = 0;
  for (const auto& b : batches) items += b.size();
  std::vector<T> work, scratch;
  std::vector<double> passes;
  for (int pass = 0; pass < 9; ++pass) {
    ph::Timer t;
    std::size_t done = 0;
    while (done < (1u << 20)) {
      for (const auto& b : batches) {
        work.assign(b.begin(), b.end());
        scratch.resize(b.size());
        sort(work, scratch, less);
        sink += less(work.back(), work.front()) ? 1 : 0;
      }
      done += items;
    }
    passes.push_back(static_cast<double>(t.nanos()) / static_cast<double>(done));
  }
  std::nth_element(passes.begin(), passes.begin() + 4, passes.end());
  return passes[4];
}

/// One std::sort/sort_in_place/sort_run row per batch size for the item
/// type T.
template <typename T, typename Less, typename Make>
void sort_rows(const char* type, Less less, Make make, ph::Xoshiro256& rng,
               std::uint64_t& sink) {
  for (const std::size_t n : {128u, 512u}) {
    std::vector<std::vector<T>> batches(64);
    for (auto& b : batches) {
      for (std::size_t i = 0; i < n; ++i) b.push_back(make(rng));
    }
    const double std_ns = time_sort(
        batches, less,
        [](std::vector<T>& w, std::vector<T>&, Less c) { std::sort(w.begin(), w.end(), c); },
        sink);
    const double in_place_ns = time_sort(
        batches, less,
        [](std::vector<T>& w, std::vector<T>&, Less c) { ph::sort_in_place(std::span<T>(w), c); },
        sink);
    const double run_ns = time_sort(
        batches, less,
        [](std::vector<T>& w, std::vector<T>& s, Less c) {
          ph::sort_run(std::span<T>(w), std::span<T>(s), c);
        },
        sink);
    ph::bench::row("%s,%zu,%.2f,%.2f,%.2f", type, n, std_ns, in_place_ns, run_ns);
    const std::string tail = std::string("_") + type + "_" + std::to_string(n) + "_ns_per_item";
    ph::bench::json_metric("merge_kernel_sort_std" + tail, std_ns);
    ph::bench::json_metric("merge_kernel_sort_in_place" + tail, in_place_ns);
    ph::bench::json_metric("merge_kernel_sort_run" + tail, run_ns);
  }
}

/// One std::sort/sort_in_place row per bulk-load size for the item type T.
template <typename T, typename Less, typename Make>
void bulk_sort_rows(const char* type, Less less, Make make, ph::Xoshiro256& rng,
                    std::uint64_t& sink) {
  for (const int log_n : {14, 18, 20}) {
    std::vector<std::vector<T>> batches(1);
    for (std::size_t i = 0; i < (std::size_t{1} << log_n); ++i) batches[0].push_back(make(rng));
    const double std_ns = time_sort(
        batches, less,
        [](std::vector<T>& w, std::vector<T>&, Less c) { std::sort(w.begin(), w.end(), c); },
        sink);
    const double in_place_ns = time_sort(
        batches, less,
        [](std::vector<T>& w, std::vector<T>&, Less c) { ph::sort_in_place(std::span<T>(w), c); },
        sink);
    ph::bench::row("%s,2^%d,%.2f,%.2f,%.3f", type, log_n, std_ns, in_place_ns,
                   in_place_ns / std_ns);
    const std::string tail =
        std::string("_") + type + "_n" + std::to_string(log_n) + "_ns_per_item";
    ph::bench::json_metric("merge_kernel_bulk_sort_std" + tail, std_ns);
    ph::bench::json_metric("merge_kernel_bulk_sort_in_place" + tail, in_place_ns);
  }
}

ph::sim::Event random_event(ph::Xoshiro256& g) {
  return ph::sim::Event{static_cast<double>(g.next_below(1u << 20)) / 64.0, 0, 0, g()};
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

  columns("type,n,std_sort_ns_per_item,sort_in_place_ns_per_item,sort_run_ns_per_item");
  sort_rows<std::uint64_t>("u64", std::less<std::uint64_t>{},
                           [](Xoshiro256& g) { return g(); }, rng, sink);
  sort_rows<sim::Event>("event", sim::EventOrder{}, random_event, rng, sink);
  note("random batches (event: timestamp then tag); checksum %llu",
       static_cast<unsigned long long>(sink % 1000));

  columns("type,n,std_sort_ns_per_item,sort_in_place_ns_per_item,in_place_over_std");
  bulk_sort_rows<std::uint64_t>("u64", std::less<std::uint64_t>{},
                                [](Xoshiro256& g) { return g(); }, rng, sink);
  bulk_sort_rows<sim::Event>("event", sim::EventOrder{}, random_event, rng, sink);
  note("one random array per row (event: timestamp then tag); checksum %llu",
       static_cast<unsigned long long>(sink % 1000));
  return 0;
}
