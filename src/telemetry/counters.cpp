#include "telemetry/counters.hpp"

#include <cstdio>
#include <iostream>

#include "telemetry/json.hpp"
#include "util/assert.hpp"

namespace ph::telemetry {

namespace {

// PH_ASSERT flush hook: a failed assertion dumps the post-mortem table
// (MetricsSnapshot::nonzero_text) and the full Chrome-format trace rings
// (last ~8k spans per thread) to stderr before aborting, so a sanitizer/CI
// failure carries the run's recent history instead of one line. collect() is safe while writers run;
// the trace rings may race with still-running owners, but we are already
// aborting — a torn span in the post-mortem beats no post-mortem.
void flush_telemetry_on_assert() {
  std::fprintf(stderr, "ph: telemetry at assertion failure:\n");
  std::fputs(Registry::instance().collect().nonzero_text().c_str(), stderr);
  std::fprintf(stderr, "ph: trace ring (chrome trace_event JSON):\n");
  write_chrome_trace(std::cerr);
  std::cerr << std::endl;
}

// Registered at static-initialization time from the one translation unit
// every ph_lib consumer links.
[[maybe_unused]] const bool g_assert_hook_registered = [] {
  ph::add_assert_flush_hook(&flush_telemetry_on_assert);
  return true;
}();

}  // namespace

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kRootWork: return "root_work";
    case Phase::kOddHalfStep: return "odd_half_step";
    case Phase::kEvenHalfStep: return "even_half_step";
    case Phase::kThink: return "think";
    case Phase::kThinkStall: return "think_stall";
    case Phase::kSteal: return "steal";
    case Phase::kMaintService: return "maint_service";
    case Phase::kShardRoute: return "shard_route";
    case Phase::kShardMerge: return "shard_merge";
    case Phase::kCkptWrite: return "ckpt_write";
    case Phase::kWalAppend: return "wal_append";
    case Phase::kWalFsync: return "wal_fsync";
    case Phase::kRecoverReplay: return "recover_replay";
    case Phase::kIngestFlush: return "ingest_flush";
    case Phase::kSvcCommit: return "svc_commit";
    case Phase::kSvcDispatch: return "svc_dispatch";
    case Phase::kCount: break;
  }
  return "unknown";
}

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kWatchdogStalls: return "watchdog_stalls";
    case Counter::kLaneQuarantines: return "lane_quarantines";
    case Counter::kIngestStaged: return "ingest_staged";
    case Counter::kIngestRuns: return "ingest_runs";
    case Counter::kCount: break;
  }
  return "unknown";
}

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

ThreadSlot& Registry::local() {
  thread_local ThreadSlot* slot = nullptr;
  if (slot == nullptr) {
    std::lock_guard lk(mu_);
    auto s = std::make_unique<ThreadSlot>();
    s->tid = static_cast<unsigned>(slots_.size());
    s->name = "thread-" + std::to_string(s->tid);
    slot = s.get();
    slots_.push_back(std::move(s));
  }
  return *slot;
}

void Registry::set_thread_name(std::string_view name) {
  ThreadSlot& s = local();
  std::lock_guard lk(mu_);
  s.name.assign(name);
}

MetricsSnapshot Registry::collect() {
  MetricsSnapshot out;
  std::lock_guard lk(mu_);
  out.threads.reserve(slots_.size());
  for (const auto& s : slots_) {
    MetricsSnapshot::PerThread pt;
    pt.tid = s->tid;
    pt.name = s->name;
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      const std::uint64_t v = s->counters[c].load(std::memory_order_relaxed);
      pt.counters[c] = v;
      out.counters[c] += v;
    }
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      s->latency[p].merge_into(out.phases[p]);
    }
    out.dropped_spans += s->trace.dropped();
    out.threads.push_back(std::move(pt));
  }
  return out;
}

void Registry::reset() {
  std::lock_guard lk(mu_);
  for (auto& s : slots_) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : s->latency) h.reset();
    s->trace.reset();
  }
}

std::vector<ThreadSlot*> Registry::slots() {
  std::lock_guard lk(mu_);
  std::vector<ThreadSlot*> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) out.push_back(s.get());
  return out;
}

void MetricsSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();

  w.key("counters").begin_object();
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    w.kv(counter_name(static_cast<Counter>(c)), counters[c]);
  }
  w.end_object();

  w.key("phases").begin_object();
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const HistogramSnapshot& h = phases[p];
    w.key(phase_name(static_cast<Phase>(p))).begin_object();
    w.kv("count", h.count());
    w.kv("min_ns", h.min());
    w.kv("max_ns", h.max());
    w.kv("mean_ns", h.mean());
    w.kv("p50_ns", h.percentile(50));
    w.kv("p90_ns", h.percentile(90));
    w.kv("p99_ns", h.percentile(99));
    w.end_object();
  }
  w.end_object();

  w.key("threads").begin_array();
  for (const PerThread& t : threads) {
    w.begin_object();
    w.kv("tid", t.tid);
    w.kv("name", t.name);
    w.key("counters").begin_object();
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      w.kv(counter_name(static_cast<Counter>(c)), t.counters[c]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.kv("dropped_spans", dropped_spans);
  w.end_object();
}

std::string MetricsSnapshot::nonzero_text() const {
  std::string out;
  char line[96];
  auto row = [&](const char* kind, const char* name, std::uint64_t v) {
    if (v == 0) return;
    std::snprintf(line, sizeof(line), "ph:   %-7s %-18s %llu\n", kind, name,
                  static_cast<unsigned long long>(v));
    out += line;
  };
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    row("counter", counter_name(static_cast<Counter>(c)), counters[c]);
  }
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    row("phase", phase_name(static_cast<Phase>(p)), phases[p].count());
  }
  return out;
}

}  // namespace ph::telemetry
