// FlatCombiningPQ — a flat-combining frontend over the sequential binary
// heap (Hendler, Incze, Shavit & Tzafrir, SPAA'10 technique): each thread
// publishes its operation in a private cache-line-sized slot; whoever grabs
// the combiner lock applies *every* pending operation against the sequential
// heap in one pass and writes the answers back. Threads that lose the lock
// race just spin on their own slot — a single line bouncing once per op —
// instead of contending on the heap's internals.
//
// This is the classic "serialize cheaply" baseline: it preserves exact
// global-minimum semantics (every pop is the true min at its linearization
// point inside a combine pass), so it brackets the design space opposite the
// relaxed MultiQueues-style LocalHeaps. The stress registry's
// flat_combining_mt entry drives it from real threads. Combine-pass
// statistics (combines(), combined_ops()) expose the batching factor:
// ops-per-lock-acquisition is the whole point of the technique.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/binary_heap.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"
#include "util/spinlock.hpp"

namespace ph {

template <typename T, typename Compare = std::less<T>>
class FlatCombiningPQ {
 public:
  /// `max_threads` fixes the slot array; callers pass a stable tid in
  /// [0, max_threads) with each operation (one slot per thread — two threads
  /// sharing a tid would corrupt the publication protocol).
  explicit FlatCombiningPQ(unsigned max_threads, Compare cmp = Compare())
      : heap_(std::move(cmp)), slots_(max_threads) {
    PH_ASSERT(max_threads >= 1);
  }

  unsigned max_threads() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  void push(unsigned tid, const T& v) {
    Slot& s = *slots_[tid];
    s.val = v;
    publish_and_wait(s, kPush);
  }

  /// Pops the global minimum; false iff the heap was empty at the combine
  /// pass that served this request.
  bool try_pop(unsigned tid, T& out) {
    Slot& s = *slots_[tid];
    if (publish_and_wait(s, kPop) == kDoneEmpty) return false;
    out = std::move(s.val);
    return true;
  }

  /// Size is exact only at quiescence (no in-flight operations).
  std::size_t size() {
    lock_.lock();
    const std::size_t n = heap_.size();
    lock_.unlock();
    return n;
  }

  std::uint64_t combines() const noexcept {
    return combines_.load(std::memory_order_relaxed);
  }
  std::uint64_t combined_ops() const noexcept {
    return combined_ops_.load(std::memory_order_relaxed);
  }

 private:
  enum : std::uint32_t {
    kIdle = 0,      // slot free (owned by the thread)
    kPush = 1,      // val holds the item to insert
    kPop = 2,       // combiner should write the min into val
    kDoneOk = 3,    // op served; for pops, val holds the popped min
    kDoneEmpty = 4  // pop served against an empty heap
  };

  // One publication slot per thread, padded so spinning on one thread's
  // state never invalidates a neighbour's line.
  struct Slot {
    std::atomic<std::uint32_t> state{kIdle};
    T val{};
  };

  /// Publishes `op` in `s`, then alternates between watching the slot and
  /// bidding for the combiner lock until some combine pass (possibly our
  /// own) serves it. Returns the terminal state (kDoneOk / kDoneEmpty).
  std::uint32_t publish_and_wait(Slot& s, std::uint32_t op) {
    // release: the combiner's acquire-load of state must see val.
    s.state.store(op, std::memory_order_release);
    std::uint32_t spins = 0;
    for (;;) {
      const std::uint32_t st = s.state.load(std::memory_order_acquire);
      if (st >= kDoneOk) {
        s.state.store(kIdle, std::memory_order_relaxed);
        return st;
      }
      if (lock_.try_lock()) {
        combine();
        lock_.unlock();
        // Our own pass necessarily served our slot (if a concurrent
        // combiner hadn't already).
        const std::uint32_t fin = s.state.load(std::memory_order_relaxed);
        PH_ASSERT(fin >= kDoneOk);
        s.state.store(kIdle, std::memory_order_relaxed);
        return fin;
      }
      if (++spins >= 64) {
        spins = 0;
        std::this_thread::yield();
      }
    }
  }

  /// Lock held. One pass over every slot, applying pending ops in tid order
  /// (the linearization order within this batch).
  void combine() {
    combines_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t served = 0;
    for (auto& ps : slots_) {
      Slot& s = *ps;
      const std::uint32_t st = s.state.load(std::memory_order_acquire);
      if (st == kPush) {
        heap_.push(s.val);
        ++served;
        s.state.store(kDoneOk, std::memory_order_release);
      } else if (st == kPop) {
        ++served;
        if (heap_.empty()) {
          s.state.store(kDoneEmpty, std::memory_order_release);
        } else {
          s.val = heap_.pop();
          s.state.store(kDoneOk, std::memory_order_release);
        }
      }
    }
    combined_ops_.fetch_add(served, std::memory_order_relaxed);
  }

  Spinlock lock_;
  BinaryHeap<T, Compare> heap_;  // guarded by lock_
  std::vector<Padded<Slot>> slots_;
  std::atomic<std::uint64_t> combines_{0};
  std::atomic<std::uint64_t> combined_ops_{0};
};

}  // namespace ph
