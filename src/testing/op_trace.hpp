// Deterministic operation traces for the stress/differential-fuzz harness.
//
// A trace is a fully materialized sequence of batch-PQ cycles: per cycle the
// fresh items inserted and the deletion budget k, plus the structure name and
// node capacity r it targets. Traces are (a) generated from a seed by an
// adversarial schedule generator (generate_trace), (b) shrinkable — removing
// ops or keys keeps the trace valid (shrink.hpp), and (c) round-trip
// serializable to a line-based text format, so a failure can be replayed by
// tools/ph_repro from the reproducer file alone (repro format: DESIGN.md §7).
#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ph::testing {

/// One batch-PQ cycle: insert `fresh`, then delete up to `k`.
///
/// A *feedback* op additionally models the engine's think phase: before the
/// cycle runs, the previous cycle's deletion stream is re-inserted with
/// `feedback_add` added to each key (the worker "thought about" its batch and
/// re-scheduled it at a later priority). The runner materializes the feedback
/// items from the structure's actual previous output, so the keys driven
/// through the structure depend on its own behavior — an engine-level trace
/// rather than a fixed one (serialized as "fop", format version 2).
struct Op {
  std::size_t k = 0;
  std::vector<std::uint64_t> fresh;
  bool feedback = false;
  std::uint64_t feedback_add = 0;

  bool operator==(const Op&) const = default;
};

struct OpTrace {
  std::string structure = "pipelined_heap";  ///< registry name (structures.hpp)
  std::size_t r = 8;                         ///< node capacity / batch width
  std::uint64_t seed = 0;                    ///< generator seed (provenance)
  std::vector<Op> ops;

  std::size_t total_keys() const noexcept {
    std::size_t n = 0;
    for (const Op& op : ops) n += op.fresh.size();
    return n;
  }

  bool operator==(const OpTrace&) const = default;

  bool has_feedback() const noexcept {
    for (const Op& op : ops) {
      if (op.feedback) return true;
    }
    return false;
  }

  /// Self-contained reproducer text (parsed back by from_text / ph_repro).
  /// Traces without feedback ops keep emitting format 1 so old reproducers
  /// and old readers stay byte-compatible; feedback ops need format 2.
  std::string to_text() const {
    std::ostringstream os;
    os << "ph-repro " << (has_feedback() ? 2 : 1) << "\n";
    os << "structure " << structure << "\n";
    os << "r " << r << "\n";
    os << "seed " << seed << "\n";
    os << "ops " << ops.size() << "\n";
    for (const Op& op : ops) {
      if (op.feedback) {
        os << "fop " << op.k << " " << op.feedback_add << " " << op.fresh.size();
      } else {
        os << "op " << op.k << " " << op.fresh.size();
      }
      for (std::uint64_t key : op.fresh) os << " " << key;
      os << "\n";
    }
    return os.str();
  }

  /// Parses the to_text() format. Returns false (with *err set) on any
  /// malformed or out-of-bounds input; `out` is only written on success.
  static bool from_text(const std::string& text, OpTrace& out,
                        std::string* err = nullptr) {
    auto fail = [&](const std::string& msg) {
      if (err) *err = msg;
      return false;
    };
    std::istringstream is(text);
    std::string word;
    int version = 0;
    if (!(is >> word >> version) || word != "ph-repro" ||
        (version != 1 && version != 2)) {
      return fail("bad header: expected 'ph-repro 1' or 'ph-repro 2'");
    }
    OpTrace t;
    std::size_t nops = 0;
    if (!(is >> word >> t.structure) || word != "structure") {
      return fail("expected 'structure <name>'");
    }
    if (!(is >> word >> t.r) || word != "r" || t.r == 0) {
      return fail("expected 'r <node capacity >= 1>'");
    }
    if (!(is >> word >> t.seed) || word != "seed") {
      return fail("expected 'seed <seed>'");
    }
    if (!(is >> word >> nops) || word != "ops") {
      return fail("expected 'ops <count>'");
    }
    t.ops.reserve(nops);
    for (std::size_t i = 0; i < nops; ++i) {
      Op op;
      std::size_t nkeys = 0;
      if (!(is >> word) || (word != "op" && (word != "fop" || version < 2))) {
        return fail("op " + std::to_string(i) +
                    ": expected 'op <k> <n> keys...' or (v2) 'fop <k> <add> <n> keys...'");
      }
      op.feedback = (word == "fop");
      if (!(is >> op.k)) {
        return fail("op " + std::to_string(i) + ": missing k");
      }
      if (op.feedback && !(is >> op.feedback_add)) {
        return fail("op " + std::to_string(i) + ": fop missing feedback_add");
      }
      if (!(is >> nkeys)) {
        return fail("op " + std::to_string(i) + ": missing key count");
      }
      if (op.k > t.r) {
        return fail("op " + std::to_string(i) + ": k exceeds r");
      }
      op.fresh.resize(nkeys);
      for (std::size_t j = 0; j < nkeys; ++j) {
        if (!(is >> op.fresh[j])) {
          return fail("op " + std::to_string(i) + ": truncated key list");
        }
      }
      t.ops.push_back(std::move(op));
    }
    out = std::move(t);
    return true;
  }
};

struct GenConfig {
  std::size_t r = 8;
  std::size_t cycles = 400;
  std::uint64_t key_bound = std::uint64_t{1} << 16;
  std::uint64_t seed = 1;
};

/// Generates an adversarial cycle schedule: the generator walks through
/// seeded "modes" — steady-state churn, grow bursts, forced shrink,
/// exhaustion (draining the heap, cycling on it empty, then refilling it
/// with one bulk batch of more than 2r items), duplicate-heavy tiny key alphabets,
/// strictly descending/ascending key runs (every batch a new global
/// min / max), and think-phase feedback (re-insert the previous deletion
/// batch at bumped priorities). Mode runs last a few cycles each, so one trace crosses many
/// regimes while several generations of update processes are in flight; the
/// trace simply ending mid-pipeline is itself an adversary (the differential
/// runner drains and compares final contents).
inline OpTrace generate_trace(const GenConfig& cfg) {
  Xoshiro256 rng(cfg.seed ^ 0xa5a3cd5e12f70c1bull);
  OpTrace t;
  t.r = cfg.r;
  t.seed = cfg.seed;
  t.ops.reserve(cfg.cycles);

  enum Mode : std::uint64_t {
    kSteady = 0,
    kGrow,
    kShrink,
    kExhaust,
    kDupes,
    kDescending,
    kAscending,
    kFeedback,
    kNumModes
  };
  Mode mode = kSteady;
  std::size_t mode_left = 0;
  const std::uint64_t bound = cfg.key_bound == 0 ? 1 : cfg.key_bound;
  std::uint64_t desc_key = bound - rng.next_below(bound / 4 + 1);
  std::uint64_t asc_key = rng.next_below(bound / 4 + 1);
  const std::size_t r = cfg.r;
  // What an exact structure holds after the ops so far, and what the last
  // op deleted (a feedback op re-inserts that many), so that an exhaustion
  // run knows when the heap is empty.
  std::size_t live = 0, last_deleted = 0;
  bool cycled_empty = false;
  // An exhaustion run that can drain the heap within this many more cycles
  // is extended until its bulk refill.
  constexpr std::size_t kDrainSpan = 16;

  for (std::size_t cyc = 0; cyc < cfg.cycles; ++cyc) {
    if (mode_left == 0) {
      mode = static_cast<Mode>(rng.next_below(kNumModes));
      mode_left = 1 + rng.next_below(16);
      cycled_empty = false;
    }
    --mode_left;
    Op op;
    auto uniform_keys = [&](std::size_t n, std::uint64_t b) {
      for (std::size_t i = 0; i < n; ++i) op.fresh.push_back(rng.next_below(b));
    };
    switch (mode) {
      case kSteady:
        uniform_keys(rng.next_below(2 * r + 2), bound);
        op.k = rng.next_below(r + 1);
        break;
      case kGrow:
        uniform_keys(r + rng.next_below(3 * r + 1), bound);
        op.k = rng.next_below(r / 2 + 1);
        break;
      case kShrink:
        uniform_keys(rng.next_below(r / 4 + 1), bound);
        op.k = r;
        break;
      case kExhaust:
        if (live == 0 && cycled_empty) {
          // A bulk batch into the drained heap, as a DES seeds its queue.
          uniform_keys(2 * r + 1 + rng.next_below(2 * r), bound);
          op.k = rng.next_below(r + 1);
          mode_left = 0;
          break;
        }
        op.k = r;  // no fresh items: drives to (and cycles on) empty
        cycled_empty = live == 0;
        if (mode_left == 0 && live <= kDrainSpan * r) mode_left = 1;
        break;
      case kDupes:
        uniform_keys(rng.next_below(2 * r + 2), 1 + rng.next_below(3));
        op.k = rng.next_below(r + 1);
        break;
      case kDescending:
        for (std::size_t i = 0; i < r; ++i) {
          op.fresh.push_back(desc_key);
          if (desc_key > 0) --desc_key;
        }
        op.k = rng.next_below(r + 1);
        break;
      case kAscending:
        for (std::size_t i = 0; i < r; ++i) op.fresh.push_back(asc_key++);
        op.k = rng.next_below(r + 1);
        break;
      case kFeedback:
      default:
        // Engine think-phase loop: the previous cycle's deletion batch comes
        // back with bumped priorities (plus some fresh arrivals), so the keys
        // the structure sees depend on what it emitted — closing the
        // delete→think→insert cycle that plain fixed traces cannot express.
        op.feedback = true;
        op.feedback_add = 1 + rng.next_below(bound / 4 + 1);
        uniform_keys(rng.next_below(r + 1), bound);
        op.k = 1 + rng.next_below(r);
        break;
    }
    const std::size_t total = live + op.fresh.size() + (op.feedback ? last_deleted : 0);
    last_deleted = std::min(op.k, total);
    live = total - last_deleted;
    t.ops.push_back(std::move(op));
  }
  return t;
}

}  // namespace ph::testing
