// Telemetry hook API — the only header the instrumented hot paths include.
//
// The heap, engine, and thread pool call these free functions and SpanScope;
// when the build disables telemetry (-DPH_TELEMETRY=OFF → the
// PH_TELEMETRY_ENABLED=0 compile definition) every hook is an empty inline
// and SpanScope is an empty class, so the instrumentation costs nothing —
// not even a branch. The telemetry *classes* (histogram, registry, tracer,
// JSON) stay available in both builds; only the hooks vanish, so an OFF
// build still compiles the exporters and passes the unit tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/json.hpp"
#include "telemetry/trace.hpp"

#ifndef PH_TELEMETRY_ENABLED
#define PH_TELEMETRY_ENABLED 1
#endif

namespace ph::telemetry {

#if PH_TELEMETRY_ENABLED
inline constexpr bool kEnabled = true;

inline void count(Counter c, std::uint64_t delta = 1) noexcept {
  Registry::instance().local().add(c, delta);
}

inline void name_thread(std::string_view name) {
  Registry::instance().set_thread_name(name);
}

// ----------------------------------------------------- causal trace context
//
// A *trace context* is (trace id, shard tag), carried in thread-locals and
// captured by every SpanScope recorded while it is set. ShardedHeap::cycle
// opens one id per cycle; the id then flows route → per-shard pipeline
// levels → merge → putback (ThreadTeam propagates the dispatcher's context
// into its workers), so the Chrome trace exporter can stitch one cycle's
// spans across all K shards and every team thread into one causal family.

namespace ctx_detail {
inline thread_local std::uint64_t t_trace_id = 0;
inline thread_local std::uint32_t t_trace_tag = kNoTraceTag;
}  // namespace ctx_detail

/// Process-unique nonzero trace id (one per sharded cycle).
inline std::uint64_t new_trace_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

inline std::uint64_t trace_ctx() noexcept { return ctx_detail::t_trace_id; }
inline std::uint32_t trace_tag() noexcept { return ctx_detail::t_trace_tag; }

inline void set_trace_ctx(std::uint64_t id, std::uint32_t tag = kNoTraceTag) noexcept {
  ctx_detail::t_trace_id = id;
  ctx_detail::t_trace_tag = tag;
}

/// RAII: installs (id, tag) as the calling thread's trace context and
/// restores the previous context on exit. Nests.
class TraceCtxScope {
 public:
  explicit TraceCtxScope(std::uint64_t id, std::uint32_t tag = kNoTraceTag) noexcept
      : prev_id_(ctx_detail::t_trace_id), prev_tag_(ctx_detail::t_trace_tag) {
    set_trace_ctx(id, tag);
  }
  TraceCtxScope(const TraceCtxScope&) = delete;
  TraceCtxScope& operator=(const TraceCtxScope&) = delete;
  ~TraceCtxScope() { set_trace_ctx(prev_id_, prev_tag_); }

 private:
  std::uint64_t prev_id_;
  std::uint32_t prev_tag_;
};

/// RAII: retags the current context (same trace id, new shard tag).
class TraceTagScope {
 public:
  explicit TraceTagScope(std::uint32_t tag) noexcept
      : prev_tag_(ctx_detail::t_trace_tag) {
    ctx_detail::t_trace_tag = tag;
  }
  TraceTagScope(const TraceTagScope&) = delete;
  TraceTagScope& operator=(const TraceTagScope&) = delete;
  ~TraceTagScope() { ctx_detail::t_trace_tag = prev_tag_; }

 private:
  std::uint32_t prev_tag_;
};

/// RAII span: on destruction records the elapsed time into the phase's
/// latency histogram and pushes a begin/end span into the thread's trace
/// ring. Construct it around exactly the region to attribute. Captures the
/// thread's trace context at construction.
class SpanScope {
 public:
  explicit SpanScope(Phase p) noexcept
      : slot_(&Registry::instance().local()),
        phase_(p),
        t0_(Registry::instance().now_ns()),
        ctx_(ctx_detail::t_trace_id),
        tag_(ctx_detail::t_trace_tag) {}

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() {
    const std::uint64_t t1 = Registry::instance().now_ns();
    slot_->record(phase_, t1 - t0_);
    slot_->trace.push(
        TraceSpan{static_cast<std::uint32_t>(phase_), t0_, t1, ctx_, tag_});
  }

 private:
  ThreadSlot* slot_;
  Phase phase_;
  std::uint64_t t0_;
  std::uint64_t ctx_;
  std::uint32_t tag_;
};

#else  // !PH_TELEMETRY_ENABLED

inline constexpr bool kEnabled = false;

inline void count(Counter, std::uint64_t = 1) noexcept {}
inline void name_thread(std::string_view) noexcept {}

inline std::uint64_t new_trace_id() noexcept { return 0; }
inline std::uint64_t trace_ctx() noexcept { return 0; }
inline std::uint32_t trace_tag() noexcept { return kNoTraceTag; }
inline void set_trace_ctx(std::uint64_t, std::uint32_t = kNoTraceTag) noexcept {}

class TraceCtxScope {
 public:
  explicit TraceCtxScope(std::uint64_t, std::uint32_t = kNoTraceTag) noexcept {}
  TraceCtxScope(const TraceCtxScope&) = delete;
  TraceCtxScope& operator=(const TraceCtxScope&) = delete;
};

class TraceTagScope {
 public:
  explicit TraceTagScope(std::uint32_t) noexcept {}
  TraceTagScope(const TraceTagScope&) = delete;
  TraceTagScope& operator=(const TraceTagScope&) = delete;
};

class SpanScope {
 public:
  explicit SpanScope(Phase) noexcept {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
};

#endif  // PH_TELEMETRY_ENABLED

}  // namespace ph::telemetry
