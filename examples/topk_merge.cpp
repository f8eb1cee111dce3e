// Streaming multiway merge across many producers — a pure data-structure
// demonstration of the batch API: S sorted streams are merged through the
// parallel heap by feeding one cycle per round (insert stream chunks, delete
// the globally smallest batch), i.e. an online multiway merge whose output
// arrives r items at a time.
//
// Exactness scheme (the same shape as the DES window): an emitted item is
// only committed if it does not exceed the least buffered *horizon* over
// all streams with unread data — anything beyond is deferred back into the
// heap and the limiting streams are refilled. This guarantees no unseen
// stream item can undercut committed output, even for adversarial streams
// (e.g. one stream entirely below all others).
//
// Checks the output against std::sort ground truth and prints the heap's
// maintenance statistics.
//
// Build & run:  ./build/examples/topk_merge [streams items_per_stream]
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace ph;

  const std::size_t streams =
      argc > 1 ? flag_uint("topk_merge", "streams", argv[1], 1, 1 << 16) : 64;
  const std::size_t per_stream =
      argc > 2 ? flag_uint("topk_merge", "items_per_stream", argv[2], 1, 1 << 24) : 1 << 14;
  const std::size_t r = 512;
  const std::size_t chunk = 64;
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

  // Generate sorted input streams; stream 0 is adversarial (all its values
  // below everyone else's) to exercise the horizon logic.
  Xoshiro256 rng(99);
  std::vector<std::vector<std::uint64_t>> input(streams);
  std::vector<std::uint64_t> all;
  for (std::size_t s = 0; s < streams; ++s) {
    input[s].resize(per_stream);
    for (auto& x : input[s]) {
      x = s == 0 ? rng.next_below(1u << 16) : (1ull << 20) + rng.next_below(1ull << 40);
    }
    std::sort(input[s].begin(), input[s].end());
    all.insert(all.end(), input[s].begin(), input[s].end());
  }

  Timer t;
  PipelinedParallelHeap<std::uint64_t> heap(r);
  std::vector<std::size_t> cursor(streams, 0);
  std::vector<std::uint64_t> horizon(streams, 0);  // last buffered value
  std::vector<std::uint64_t> fresh, merged, out;

  auto refill = [&](std::size_t s) {
    const std::size_t take = std::min(chunk, per_stream - cursor[s]);
    if (take == 0) {
      horizon[s] = kInf;
      return;
    }
    fresh.insert(fresh.end(), input[s].begin() + static_cast<std::ptrdiff_t>(cursor[s]),
                 input[s].begin() + static_cast<std::ptrdiff_t>(cursor[s] + take));
    cursor[s] += take;
    horizon[s] = cursor[s] == per_stream ? kInf : fresh.back();
  };
  for (std::size_t s = 0; s < streams; ++s) refill(s);

  const std::size_t total = streams * per_stream;
  while (merged.size() < total) {
    const std::uint64_t safe = *std::min_element(horizon.begin(), horizon.end());
    out.clear();
    heap.step(fresh, r, out);
    fresh.clear();
    bool deferred = false;
    for (std::uint64_t v : out) {
      if (v <= safe) {
        merged.push_back(v);
      } else {
        fresh.push_back(v);  // beyond some stream's horizon: defer
        deferred = true;
      }
    }
    if (deferred || out.empty()) {
      // Advance the limiting streams (and any stream equally behind).
      for (std::size_t s = 0; s < streams; ++s) {
        if (horizon[s] <= safe) refill(s);
      }
    }
  }
  const double secs = t.seconds();

  std::sort(all.begin(), all.end());
  const bool exact = merged == all;

  const HeapStats& st = heap.stats();
  std::printf("merged %zu streams x %zu items = %zu total in %.3fs (%.1f M/s)\n",
              streams, per_stream, total, secs, total / secs / 1e6);
  std::printf("result: %s\n", exact ? "EXACT (matches std::sort)" : "MISMATCH!");
  std::printf("heap cycles=%llu nodes_touched=%llu items_merged=%llu\n",
              static_cast<unsigned long long>(st.cycles),
              static_cast<unsigned long long>(st.nodes_touched),
              static_cast<unsigned long long>(st.items_merged));
  return exact ? 0 : 1;
}
