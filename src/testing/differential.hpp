// Differential trace runner: drives one structure through an OpTrace in
// lockstep with the sorted-multiset oracle.
//
// Per cycle the deletion streams must match exactly (uint64 keys → multiset
// semantics make the correct stream unique; see oracle.hpp). Structures that
// expose check_invariants() are additionally scanned every
// `invariant_stride` cycles — note that the pipelined heap's check drains its
// pipeline, so a small stride would serialize the very schedule under test;
// strides are therefore chosen per structure (structures.hpp). At the end of
// the trace the runner exhausts both sides through the same cycle()
// interface and compares the remaining contents, which catches items lost or
// duplicated by in-flight processes when a trace stops mid-pipeline.
//
// Structures with deliberately relaxed ordering (LocalHeaps: a local pop is a
// partition minimum, not the global minimum) can't pass stream equality, but
// they still owe *conservation*: every cycle must delete exactly
// min(k, size) items, every deleted item must be one that was inserted and
// not yet deleted, and the final drain must return everything. DiffOptions::
// relaxed switches the runner to that multiset-conservation check, which
// catches exactly the bug class such structures can have — lost, duplicated,
// or fabricated items — without over-constraining their ordering.
//
// Feedback ops (op_trace.hpp) re-insert the structure's *own* previous
// deletion stream with an additive bump before the cycle's fresh keys; the
// oracle (or conservation multiset) receives the same materialized items, so
// both sides stay in lockstep even though the trace text doesn't fix the
// keys in advance.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "testing/op_trace.hpp"
#include "testing/oracle.hpp"

namespace ph::testing {

struct DiffOptions {
  /// Run check_invariants() every N cycles (0 = only after the final drain).
  std::size_t invariant_stride = 0;
  /// Conservation-only checking for relaxed-ordering structures (see above).
  bool relaxed = false;
  /// With relaxed: allow a cycle to delete FEWER than min(k, size) items —
  /// for structures that may lawfully hold items back for a bounded number
  /// of cycles (the ingest tier under flush faults). Fabrication and
  /// loss are still caught (every deletion must be live, the final drain
  /// must converge to empty), only the per-cycle count check is one-sided.
  bool bounded_lag = false;
};

struct DiffFailure {
  bool failed = false;
  /// Failing op index; trace.ops.size() means the end-of-trace drain/check.
  std::size_t op_index = 0;
  std::string message;

  explicit operator bool() const noexcept { return failed; }
};

namespace diff_detail {

template <typename Q>
bool maybe_check_invariants(Q& q, std::string* why) {
  if constexpr (requires { q.check_invariants(why); }) {
    return q.check_invariants(why);
  } else {
    (void)q;
    (void)why;
    return true;
  }
}

inline std::string mismatch_message(const std::vector<std::uint64_t>& got,
                                    const std::vector<std::uint64_t>& want) {
  if (got.size() != want.size()) {
    return "deleted " + std::to_string(got.size()) + " items, oracle expects " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return "deleted item " + std::to_string(i) + " is " + std::to_string(got[i]) +
             ", oracle expects " + std::to_string(want[i]);
    }
  }
  return "streams match";  // unreachable when called on a mismatch
}

/// Conservation referee for relaxed structures: tracks the live multiset and
/// validates one deletion batch against it (exact count, no fabrication).
class ConservationOracle {
 public:
  void insert(std::span<const std::uint64_t> items) {
    for (std::uint64_t v : items) live_.insert(v);
  }
  std::size_t size() const noexcept { return live_.size(); }

  /// Checks `got` for a cycle with deletion budget `k`; erases the consumed
  /// items. Returns empty string on success, else the failure description.
  /// `allow_short` relaxes the count check to got.size() <= min(k, size)
  /// for bounded-lag structures (items may lawfully lag admission).
  std::string consume(const std::vector<std::uint64_t>& got, std::size_t k,
                      bool allow_short = false) {
    const std::size_t want_n = std::min(k, live_.size());
    if (allow_short ? got.size() > want_n : got.size() != want_n) {
      return "deleted " + std::to_string(got.size()) + " items, expected " +
             (allow_short ? "at most " : "") + "min(k, size) = " +
             std::to_string(want_n);
    }
    for (std::uint64_t v : got) {
      auto it = live_.find(v);
      if (it == live_.end()) {
        return "deleted item " + std::to_string(v) +
               " which is not live (fabricated or duplicated)";
      }
      live_.erase(it);
    }
    return {};
  }

 private:
  std::multiset<std::uint64_t> live_;
};

}  // namespace diff_detail

template <typename Q>
DiffFailure run_differential(Q& q, const OpTrace& trace, const DiffOptions& opt = {}) {
  SortedOracle oracle;
  diff_detail::ConservationOracle conserve;
  std::vector<std::uint64_t> got, want, prev_got, fresh_buf;
  std::string why;

  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    const Op& op = trace.ops[i];
    const std::size_t k = std::min(op.k, trace.r);

    // Materialize feedback: previous cycle's actual deletions, bumped. Both
    // sides see the identical item stream, so wrap-around on the add is fine.
    std::span<const std::uint64_t> fresh(op.fresh);
    if (op.feedback) {
      fresh_buf.assign(op.fresh.begin(), op.fresh.end());
      for (std::uint64_t v : prev_got) fresh_buf.push_back(v + op.feedback_add);
      fresh = fresh_buf;
    }

    got.clear();
    q.cycle(fresh, k, got);
    if (opt.relaxed) {
      conserve.insert(fresh);
      const std::string msg = conserve.consume(got, k, opt.bounded_lag);
      if (!msg.empty()) {
        return {true, i, "cycle " + std::to_string(i) + ": " + msg};
      }
    } else {
      want.clear();
      oracle.cycle(fresh, k, want);
      if (got != want) {
        return {true, i, "cycle " + std::to_string(i) + ": " +
                             diff_detail::mismatch_message(got, want)};
      }
    }
    prev_got = got;
    if (opt.invariant_stride != 0 && (i + 1) % opt.invariant_stride == 0) {
      if (!diff_detail::maybe_check_invariants(q, &why)) {
        return {true, i, "cycle " + std::to_string(i) + ": invariant violated: " + why};
      }
    }
  }

  // End-of-trace: exhaust both sides through the same interface and compare.
  // Bounded so a structure that fabricates items cannot loop forever.
  const std::size_t end = trace.ops.size();
  const std::size_t left = opt.relaxed ? conserve.size() : oracle.size();
  std::size_t guard = left / std::max<std::size_t>(1, trace.r) + 64;
  for (;;) {
    got.clear();
    const std::size_t nq = q.cycle({}, trace.r, got);
    if (opt.relaxed) {
      const std::string msg = conserve.consume(got, trace.r, opt.bounded_lag);
      if (!msg.empty()) {
        return {true, end, "final drain: " + msg};
      }
      if (nq == 0 && conserve.size() == 0) break;
    } else {
      want.clear();
      const std::size_t no = oracle.cycle({}, trace.r, want);
      if (got != want) {
        return {true, end, "final drain: " + diff_detail::mismatch_message(got, want)};
      }
      if (nq == 0 && no == 0) break;
    }
    if (guard-- == 0) {
      return {true, end, "final drain did not converge (structure keeps yielding items)"};
    }
  }
  if (!diff_detail::maybe_check_invariants(q, &why)) {
    return {true, end, "final invariant check: " + why};
  }
  return {};
}

}  // namespace ph::testing
