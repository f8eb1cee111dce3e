// Observability-plane tests (src/obs/): the gauge registry and atomic
// snapshots, Prometheus/JSON exposition grammar, the SnapshotPublisher's
// file and TCP transports, the flight recorder's ring semantics and dump
// format, causal trace context in the Chrome export (valid JSON, per-thread
// chronology, accurate dropped-span accounting on ring wrap), the watchdog's
// pluggable report sink, build provenance, and the acceptance chain: a
// fail-point-induced think-lane quarantine plus a watchdog stall verdict must
// land in one flight dump in causal order.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/sharded_heap.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/provenance.hpp"
#include "obs/publisher.hpp"
#include "robustness/failpoint.hpp"
#include "robustness/watchdog.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/mini_json.hpp"
#include "util/rng.hpp"

namespace ph {
namespace {

namespace rb = ph::robustness;

/// A Prometheus text-format sample line: `name{labels} value` or
/// `name value`, the value spelled from the characters of a number or of
/// ±Inf/NaN.
bool is_sample_line(std::string_view s) {
  const auto name_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (s.empty() || !name_char(s[0])) return false;
  std::size_t i = 1;
  while (i < s.size() && (name_char(s[i]) || (s[i] >= '0' && s[i] <= '9'))) ++i;
  if (i < s.size() && s[i] == '{') {
    i = s.find('}', i);
    if (i == std::string_view::npos) return false;
    ++i;
  }
  if (i == s.size() || s[i] != ' ') return false;
  const std::string_view value = s.substr(i + 1);
  return !value.empty() &&
         value.find_first_not_of("-+0123456789.eEinfa") == std::string_view::npos;
}

using U64 = std::uint64_t;

// Route every flight dump this binary produces (watchdog rung-2 verdicts
// included) into gtest's temp dir instead of the working tree.
const bool g_dump_dir_set = [] {
  obs::FlightRecorder::instance().set_dump_dir(::testing::TempDir());
  return true;
}();

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct DisarmGuard {
  ~DisarmGuard() { rb::disarm_all(); }
};

// ------------------------------------------------------ MetricsRegistry

TEST(MetricsRegistry, GaugeRegisterSampleRemove) {
  auto& reg = obs::MetricsRegistry::instance();
  const std::size_t before = reg.gauge_count();
  const std::uint64_t id = reg.add_gauge(
      {"unit_test_gauge", {{"k", "v"}}, "test gauge"}, [] { return 42.5; });
  EXPECT_EQ(reg.gauge_count(), before + 1);

  const obs::ObsSnapshot snap = reg.snapshot();
  const auto it = std::find_if(
      snap.gauges.begin(), snap.gauges.end(),
      [](const obs::GaugeSample& g) { return g.desc.name == "unit_test_gauge"; });
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_DOUBLE_EQ(it->value, 42.5);
  ASSERT_EQ(it->desc.labels.size(), 1u);
  EXPECT_EQ(it->desc.labels[0].first, "k");
  EXPECT_EQ(it->desc.labels[0].second, "v");

  reg.remove_gauge(id);
  EXPECT_EQ(reg.gauge_count(), before);
  reg.remove_gauge(id);  // stale id: no-op
  EXPECT_EQ(reg.gauge_count(), before);
}

TEST(MetricsRegistry, SnapshotSeqMonotoneAndStamped) {
  auto& reg = obs::MetricsRegistry::instance();
  const obs::ObsSnapshot a = reg.snapshot();
  const obs::ObsSnapshot b = reg.snapshot();
  EXPECT_GT(b.seq, a.seq);
  EXPECT_GE(b.t_ns, a.t_ns);
  EXPECT_GT(a.epoch_unix_ms, 0u);
  // Flight totals ride along and are monotone too.
  EXPECT_GE(b.flight_events, a.flight_events);
}

TEST(MetricsRegistry, GaugeSetRaiiDeregisters) {
  auto& reg = obs::MetricsRegistry::instance();
  const std::size_t before = reg.gauge_count();
  {
    obs::GaugeSet set;
    set.add({"raii_a", {}, ""}, [] { return 1.0; });
    set.add({"raii_b", {}, ""}, [] { return 2.0; });
    EXPECT_EQ(reg.gauge_count(), before + 2);
  }
  EXPECT_EQ(reg.gauge_count(), before);
}

TEST(MetricsRegistry, GaugeSetMoveTransfersOwnership) {
  auto& reg = obs::MetricsRegistry::instance();
  const std::size_t before = reg.gauge_count();
  obs::GaugeSet outer;
  {
    obs::GaugeSet inner;
    inner.add({"moved_gauge", {}, ""}, [] { return 3.0; });
    outer = std::move(inner);
  }  // inner dies; the registration must survive in outer
  EXPECT_EQ(reg.gauge_count(), before + 1);
  outer.clear();
  EXPECT_EQ(reg.gauge_count(), before);
}

// ---------------------------------------------------------- exposition

TEST(Exposition, PrometheusGrammarFamiliesAndEscaping) {
  obs::GaugeSet set;
  set.add({"expo_gauge", {{"label", "a\\b\"c\nd"}}, "escaping probe"},
          [] { return 7.0; });
  set.add({"expo_gauge", {{"label", "plain"}}, "escaping probe"},
          [] { return 8.0; });

  std::ostringstream os;
  obs::write_prometheus(obs::MetricsRegistry::instance().snapshot(), os);
  const std::string text = os.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  // Label escaping per the text format: backslash, quote, newline.
  EXPECT_NE(text.find("ph_expo_gauge{label=\"a\\\\b\\\"c\\nd\"} 7"),
            std::string::npos);

  // Line grammar + family contiguity: every sample line is `name{...} value`
  // or `name value`; all samples of a family sit between its # TYPE header
  // and the next header.
  std::istringstream lines(text);
  std::string line, current_family;
  std::set<std::string> closed_families;
  std::map<std::string, bool> has_type;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0 || line.rfind("# HELP ", 0) == 0) {
      std::istringstream hdr(line);
      std::string hash, kind, fam;
      hdr >> hash >> kind >> fam;
      if (kind == "TYPE") has_type[fam] = true;
      if (fam != current_family) {
        ASSERT_EQ(closed_families.count(fam), 0u)
            << "family " << fam << " reopened (samples must be contiguous)";
        if (!current_family.empty()) closed_families.insert(current_family);
        current_family = fam;
      }
      continue;
    }
    ASSERT_TRUE(is_sample_line(line)) << "bad line: " << line;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    EXPECT_EQ(name, current_family) << "sample outside its family: " << line;
    EXPECT_TRUE(has_type[name]) << "sample before # TYPE: " << line;
  }
  // The fixed part of the exposition is always present.
  EXPECT_NE(text.find("# TYPE ph_obs_snapshot_seq counter"), std::string::npos);
  EXPECT_NE(text.find("ph_flightrec_events_total"), std::string::npos);
}

TEST(Exposition, JsonParsesAndCarriesGauges) {
  obs::GaugeSet set;
  set.add({"json_probe", {{"heap", "t"}}, ""}, [] { return 11.0; });
  std::ostringstream os;
  obs::write_json(obs::MetricsRegistry::instance().snapshot(), os);
  const auto doc = minijson::parse(os.str());
  EXPECT_TRUE(doc.at("seq").is_number());
  EXPECT_TRUE(doc.at("t_ns").is_number());
  EXPECT_TRUE(doc.at("flight").at("events").is_number());
  EXPECT_TRUE(doc.at("telemetry").at("counters").is_object());
  bool found = false;
  for (const auto& g : doc.at("gauges").array()) {
    if (g.at("name").str() != "json_probe") continue;
    found = true;
    EXPECT_EQ(g.at("labels").at("heap").str(), "t");
    EXPECT_DOUBLE_EQ(g.at("value").number(), 11.0);
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorder, RingKeepsTailAndCountsDrops) {
  auto& fr = obs::FlightRecorder::instance();
  const std::uint64_t total0 = fr.total();
  const std::size_t n = obs::FlightRecorder::kCapacity + 257;
  for (std::size_t i = 0; i < n; ++i) {
    fr.record(obs::FlightKind::kNote, /*a=*/i, /*b=*/999);
  }
  EXPECT_EQ(fr.total(), total0 + n);
  EXPECT_EQ(fr.dropped(), fr.total() - obs::FlightRecorder::kCapacity);

  const std::vector<obs::FlightEvent> snap = fr.snapshot();
  ASSERT_EQ(snap.size(), obs::FlightRecorder::kCapacity);
  // Oldest-first: timestamps nondecreasing (single-threaded here) and the
  // most recent event survives the wrap.
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i].t_ns, snap[i - 1].t_ns);
  }
  EXPECT_EQ(snap.back().a, n - 1);
  EXPECT_EQ(snap.back().b, 999u);
  EXPECT_EQ(snap.back().kind, obs::FlightKind::kNote);
}

TEST(FlightRecorder, DumpIsValidJsonWithAccurateCounts) {
  auto& fr = obs::FlightRecorder::instance();
  fr.record(obs::FlightKind::kNote, 1, 2);
  std::ostringstream os;
  fr.dump(os, "unit");
  const auto doc = minijson::parse(os.str());
  EXPECT_EQ(doc.at("reason").str(), "unit");
  EXPECT_GE(doc.at("total_events").number(), 1.0);
  EXPECT_GE(doc.at("dropped_events").number(), 0.0);
  const auto& events = doc.at("events").array();
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(), obs::FlightRecorder::kCapacity);
  std::map<double, double> last_per_tid;
  for (const auto& e : events) {
    EXPECT_FALSE(e.at("kind").str().empty());
    const double tid = e.at("tid").number();
    const double t = e.at("t_ns").number();
    const auto it = last_per_tid.find(tid);
    if (it != last_per_tid.end()) {
      EXPECT_GE(t, it->second);
    }
    last_per_tid[tid] = t;
  }
}

TEST(FlightRecorder, DumpToFileLandsInConfiguredDir) {
  auto& fr = obs::FlightRecorder::instance();
  fr.record(obs::FlightKind::kNote, 7, 7);
  const std::string path = fr.dump_to_file("obs-unit");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find(::testing::TempDir()), std::string::npos);
  EXPECT_NE(path.find("obs-unit"), std::string::npos);
  const auto doc = minijson::parse(slurp(path));
  EXPECT_EQ(doc.at("reason").str(), "obs-unit");
}

TEST(FlightRecorder, RapidDumpsNeverClobberEachOther) {
  // Two dumps with the same reason inside one millisecond used to collide
  // on the <reason>-<ms> filename, the second silently overwriting the
  // first — exactly the dumps a cascading failure produces. The per-process
  // sequence (and pid, for forked children) must keep every path unique.
  auto& fr = obs::FlightRecorder::instance();
  fr.record(obs::FlightKind::kNote, 1, 1);
  std::vector<std::string> paths;
  for (int i = 0; i < 8; ++i) paths.push_back(fr.dump_to_file("obs-burst"));
  for (const std::string& p : paths) {
    ASSERT_FALSE(p.empty());
    EXPECT_TRUE(std::filesystem::exists(p)) << p;
  }
  std::vector<std::string> uniq = paths;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  EXPECT_EQ(uniq.size(), paths.size()) << "dump filenames collided";
}

// --------------------------------------------------- causal trace export

#if PH_TELEMETRY_ENABLED

TEST(CausalTrace, SpanScopeCapturesContextAndShardTag) {
  telemetry::Registry::instance().reset();
  const std::uint64_t id = telemetry::new_trace_id();
  {
    telemetry::TraceCtxScope ctx(id);
    { telemetry::SpanScope route(telemetry::Phase::kShardRoute); }
    {
      telemetry::TraceTagScope tag(3);
      telemetry::SpanScope merge(telemetry::Phase::kShardMerge);
    }
  }
  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  const auto doc = minijson::parse(os.str());

  bool saw_route = false, saw_merge = false;
  std::size_t flow_starts = 0, flow_finishes = 0;
  for (const auto& e : doc.at("traceEvents").array()) {
    const std::string ph = e.at("ph").str();
    if (ph == "s" && e.at("id").number() == static_cast<double>(id)) ++flow_starts;
    if (ph == "f" && e.at("id").number() == static_cast<double>(id)) ++flow_finishes;
    if (ph != "B" || !e.has("args")) continue;
    const auto& args = e.at("args");
    if (!args.has("trace_id") ||
        args.at("trace_id").number() != static_cast<double>(id)) {
      continue;
    }
    if (e.at("name").str() == "shard_route") {
      saw_route = true;
      EXPECT_FALSE(args.has("shard"));  // untagged span
    }
    if (e.at("name").str() == "shard_merge") {
      saw_merge = true;
      ASSERT_TRUE(args.has("shard"));
      EXPECT_EQ(args.at("shard").number(), 3.0);
    }
  }
  EXPECT_TRUE(saw_route);
  EXPECT_TRUE(saw_merge);
  // Two top-level spans of one context stitch into one flow arrow chain.
  EXPECT_EQ(flow_starts, 1u);
  EXPECT_EQ(flow_finishes, 1u);
  telemetry::Registry::instance().reset();
}

TEST(CausalTrace, ShardedCycleExportsOneCoherentChain) {
  telemetry::Registry::instance().reset();
  ShardedHeap<U64>::Config scfg;
  scfg.shards = 4;
  ShardedHeap<U64> q(8, scfg);
  Xoshiro256 rng(5);
  std::vector<U64> sink;
  for (int c = 0; c < 6; ++c) {
    std::vector<U64> fresh(32);
    for (auto& v : fresh) v = rng.next_below(1u << 20);
    sink.clear();
    q.cycle(fresh, 8, sink);
  }
  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  const auto doc = minijson::parse(os.str());

  // Group route/merge spans by trace id: every cycle must contribute both
  // phases under one id, i.e. the per-cycle context really crosses phases.
  std::map<double, std::set<std::string>> by_trace;
  for (const auto& e : doc.at("traceEvents").array()) {
    if (e.at("ph").str() != "B" || !e.has("args")) continue;
    const auto& args = e.at("args");
    if (!args.has("trace_id")) continue;
    by_trace[args.at("trace_id").number()].insert(e.at("name").str());
  }
  ASSERT_FALSE(by_trace.empty());
  std::size_t complete = 0;
  for (const auto& [id, names] : by_trace) {
    if (names.count("shard_route") && names.count("shard_merge")) ++complete;
  }
  EXPECT_GE(complete, 6u) << "each cycle should span route+merge under one id";
  telemetry::Registry::instance().reset();
}

TEST(TraceExport, RingWrapKeepsJsonValidChronologicalAndCountsDrops) {
  auto& reg = telemetry::Registry::instance();
  reg.reset();
  const std::size_t cap = telemetry::TraceRing::kDefaultCapacity;
  const std::size_t extra = 500;
  for (std::size_t i = 0; i < cap + extra; ++i) {
    telemetry::SpanScope s(telemetry::Phase::kRootWork);
  }
  const telemetry::MetricsSnapshot snap = reg.collect();
  EXPECT_EQ(snap.dropped_spans, extra);

  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  const auto doc = minijson::parse(os.str());  // valid JSON after wrap
  std::map<double, double> last_ts;
  std::size_t begins = 0;
  for (const auto& e : doc.at("traceEvents").array()) {
    const std::string ph = e.at("ph").str();
    if (ph == "M") continue;
    const double tid = e.at("tid").number();
    const double ts = e.at("ts").number();
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "non-chronological after ring wrap";
    }
    last_ts[tid] = ts;
    if (ph == "B") ++begins;
  }
  // The ring holds exactly its capacity after the wrap; the export carries
  // all surviving spans and only those.
  EXPECT_EQ(begins, cap);
  reg.reset();
}

#endif  // PH_TELEMETRY_ENABLED

// ------------------------------------------------------------ watchdog

std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now; }

TEST(Watchdog, ReportSinkReceivesBlockAndFlightDumpIsWritten) {
  g_fake_now = 1'000'000'000;
  rb::PhaseWatchdog::Config cfg;
  cfg.stall_timeout_ns = 100;
  cfg.dump_after_polls = 2;
  cfg.clock = &fake_clock;
  rb::PhaseWatchdog wd(cfg);
  const std::size_t ch = wd.add_channel("merge-loop");

  std::vector<std::string> reports;
  wd.set_report_sink([&](const std::string& r) { reports.push_back(r); });

  // One cycle before the stall: the report's phase counts must show it.
  PipelinedParallelHeap<U64> heap(4);
  std::vector<U64> out;
  heap.cycle(std::vector<U64>{3, 1, 2}, 2, out);

  wd.beat(ch);
  g_fake_now += 1'000'000;  // well past the 100ns timeout
  EXPECT_EQ(wd.poll().stalled, 1u);
  ASSERT_TRUE(wd.poll().dumped);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("channel table"), std::string::npos);
  EXPECT_NE(reports[0].find("merge-loop"), std::string::npos);
  EXPECT_EQ(reports[0].find("root_work") != std::string::npos, telemetry::kEnabled);
  EXPECT_EQ(reports[0].find("watchdog_stalls") != std::string::npos, telemetry::kEnabled);
  EXPECT_EQ(wd.reports(), 1u);

  const std::string dump_path = wd.last_flight_dump();
  ASSERT_FALSE(dump_path.empty());
  const auto doc = minijson::parse(slurp(dump_path));
  std::set<std::string> kinds;
  for (const auto& e : doc.at("events").array()) kinds.insert(e.at("kind").str());
  EXPECT_TRUE(kinds.count("watchdog_beat"));
  EXPECT_TRUE(kinds.count("watchdog_stall"));
  EXPECT_TRUE(kinds.count("watchdog_report"));
}

// Acceptance chain: fail-point fire → think-lane quarantine → watchdog stall
// verdict, all visible in ONE flight dump in causal (recorded) order.
TEST(FlightDump, FailpointLaneQuarantineAndStallAppearInCausalOrder) {
  if (!rb::kFailpoints) GTEST_SKIP() << "built with PH_FAILPOINTS=OFF";
  DisarmGuard guard;
  // The ring also holds earlier tests' events (stalls, reports) when the
  // whole binary runs in one process; the chain is judged from here on.
  const std::uint64_t t0 = obs::FlightRecorder::instance().now_ns();

  EngineConfig ecfg;
  ecfg.node_capacity = 8;
  ecfg.think_threads = 2;
  ecfg.lane_fault_limit = 1;  // the first throw retires its lane
  ParallelHeapEngine<U64> engine(ecfg);
  Xoshiro256 rng(17);
  std::vector<U64> items(64);
  for (auto& v : items) v = rng.next_below(1u << 20);
  engine.seed(items);
  rb::arm(rb::FailSite::kThinkThrow, rb::FireSpec{2, 0, 1, 0});
  const EngineReport rep = engine.run(
      [](unsigned, std::span<const U64>, std::span<const U64>, std::vector<U64>&) {});
  rb::disarm_all();
  ASSERT_EQ(rep.lanes_quarantined, 1u);

  // Now a stall verdict on a fake clock persists the ring.
  g_fake_now = 2'000'000'000;
  rb::PhaseWatchdog::Config wcfg;
  wcfg.stall_timeout_ns = 100;
  wcfg.dump_after_polls = 1;
  wcfg.clock = &fake_clock;
  rb::PhaseWatchdog wd(wcfg);
  wd.add_channel("think-pipeline");
  g_fake_now += 1'000'000;
  ASSERT_TRUE(wd.poll().dumped);
  const std::string path = wd.last_flight_dump();
  ASSERT_FALSE(path.empty());

  const auto doc = minijson::parse(slurp(path));
  const auto& events = doc.at("events").array();
  const auto site = static_cast<double>(rb::FailSite::kThinkThrow);
  std::ptrdiff_t fire_idx = -1, quar_idx = -1, stall_idx = -1, report_idx = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].at("t_ns").number() < static_cast<double>(t0)) continue;
    const std::string kind = events[i].at("kind").str();
    if (kind == "failpoint_fire" && events[i].at("a").number() == site) {
      if (fire_idx < 0) fire_idx = static_cast<std::ptrdiff_t>(i);
    }
    if (kind == "lane_quarantine" && quar_idx < 0) {
      quar_idx = static_cast<std::ptrdiff_t>(i);
    }
    if (kind == "watchdog_stall" && stall_idx < 0) {
      stall_idx = static_cast<std::ptrdiff_t>(i);
    }
    if (kind == "watchdog_report") report_idx = static_cast<std::ptrdiff_t>(i);
  }
  ASSERT_GE(fire_idx, 0) << "fail-point fire missing from flight dump";
  ASSERT_GE(quar_idx, 0) << "lane quarantine missing from flight dump";
  ASSERT_GE(stall_idx, 0) << "watchdog stall missing from flight dump";
  ASSERT_GE(report_idx, 0) << "watchdog report missing from flight dump";
  EXPECT_LT(fire_idx, quar_idx);
  EXPECT_LT(quar_idx, stall_idx);
  EXPECT_LT(stall_idx, report_idx);
}

// ------------------------------------------------------------ publisher

TEST(Publisher, FileModePublishesParseableJsonAtomically) {
  const std::string path = ::testing::TempDir() + "obs_pub_snap.json";
  obs::SnapshotPublisher::Config cfg;
  cfg.file_path = path;
  cfg.period_ms = 10;
  obs::SnapshotPublisher pub(cfg);
  ASSERT_TRUE(pub.start());
  EXPECT_LT(pub.port(), 0);  // no TCP requested
  for (int i = 0; i < 500 && pub.file_publishes() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pub.file_publishes(), 2u);
  pub.stop();
  EXPECT_FALSE(pub.running());
  const auto doc = minijson::parse(slurp(path));
  EXPECT_TRUE(doc.at("seq").is_number());
  EXPECT_TRUE(doc.at("gauges").is_array());
}

/// Raw HTTP/1.0 GET against 127.0.0.1:port; returns the full response.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + target + " HTTP/1.0\r\nConnection: close\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string body_of(const std::string& resp) {
  const std::size_t hdr_end = resp.find("\r\n\r\n");
  return hdr_end == std::string::npos ? "" : resp.substr(hdr_end + 4);
}

TEST(Publisher, TcpServesPrometheusJsonAndHealth) {
  obs::GaugeSet set;
  set.add({"tcp_probe", {}, ""}, [] { return 5.0; });

  obs::SnapshotPublisher::Config cfg;
  cfg.port = 0;  // ephemeral
  obs::SnapshotPublisher pub(cfg);
  ASSERT_TRUE(pub.start());
  ASSERT_GT(pub.port(), 0);

  const std::string health = http_get(pub.port(), "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string prom = http_get(pub.port(), "/metrics");
  EXPECT_NE(prom.find("200"), std::string::npos);
  EXPECT_NE(prom.find("text/plain"), std::string::npos);
  EXPECT_NE(body_of(prom).find("ph_tcp_probe 5"), std::string::npos);

  const std::string json = http_get(pub.port(), "/metrics.json");
  const auto doc = minijson::parse(body_of(json));
  EXPECT_TRUE(doc.at("seq").is_number());

  EXPECT_NE(http_get(pub.port(), "/nope").find("404"), std::string::npos);
  // Two scrapes of the same endpoint see advancing snapshot sequence.
  const auto doc2 = minijson::parse(body_of(http_get(pub.port(), "/metrics.json")));
  EXPECT_GT(doc2.at("seq").number(), doc.at("seq").number());

  EXPECT_GE(pub.requests(), 5u);
  pub.stop();
}

// ----------------------------------------------------------- provenance

TEST(Provenance, PopulatedAndSerializable) {
  const obs::Provenance& p = obs::provenance();
  EXPECT_FALSE(p.git_sha.empty());
  EXPECT_FALSE(p.compiler.empty());
  EXPECT_FALSE(p.build_type.empty());
  EXPECT_GT(p.cores, 0u);
  EXPECT_EQ(p.telemetry, static_cast<bool>(PH_TELEMETRY_ENABLED));

  std::ostringstream os;
  telemetry::JsonWriter w(os);
  obs::write_provenance_json(w);
  const auto doc = minijson::parse(os.str());
  EXPECT_EQ(doc.at("git_sha").str(), p.git_sha);
  EXPECT_EQ(doc.at("cores").number(), static_cast<double>(p.cores));
  EXPECT_TRUE(doc.has("telemetry"));
  EXPECT_TRUE(doc.has("failpoints"));
}

}  // namespace
}  // namespace ph
