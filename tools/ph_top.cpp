// ph_top — live terminal view of a running bench/soak's metrics.
//
// Polls a SnapshotPublisher (either the HTTP endpoint a bench exposes with
// --metrics-port, or the JSON file it writes with --metrics-file) and renders
// cycle/fsync and svc dispatch/ack *rates* (computed from successive
// snapshots — the publisher only exports monotone totals: telemetry
// counters, and the svc_delivered_total / svc_acked_total gauges summed over
// every `heap` label), every other gauge's value, and key phase latency
// percentiles. Zero dependencies: raw POSIX sockets for the GET,
// util/mini_json.hpp for parsing.
//
//   ph_top --port 9137                poll http://127.0.0.1:9137/metrics.json
//   ph_top --file /tmp/ph.json       poll a --metrics-file target
//   ph_top --once ...                 one snapshot, no loop (scripts/tests)
//   ph_top --interval-ms 500 ...      poll cadence (default 1000)
//   ph_top --count N ...              stop after N polls (0 = forever)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/flags.hpp"
#include "util/mini_json.hpp"

namespace {

struct Options {
  int port = -1;
  std::string file;
  bool once = false;
  unsigned interval_ms = 1000;
  std::uint64_t count = 0;  ///< 0 = until interrupted
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--port N | --file PATH) [--once] [--interval-ms N] "
               "[--count N]\n",
               argv0);
  std::exit(2);
}

/// One HTTP/1.0 GET against the localhost publisher; returns the body ("" on
/// any failure — the caller reports and retries next poll).
std::string http_get_json(int port) {
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
  const char req[] = "GET /metrics.json HTTP/1.0\r\nConnection: close\r\n\r\n";
  if (::send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL) < 0) {
    ::close(fd);
    return "";
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t hdr_end = resp.find("\r\n\r\n");
  if (hdr_end == std::string::npos) return "";
  return resp.substr(hdr_end + 4);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  if (!is) return "";
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

double num_or(const ph::minijson::Value& obj, const std::string& key, double dflt) {
  if (!obj.is_object()) return dflt;
  const auto& o = obj.object();
  const auto it = o.find(key);
  if (it == o.end() || !it->second.is_number()) return dflt;
  return it->second.number();
}

/// Monotone totals by name: every telemetry counter, plus the gauges in
/// kSummedGauges summed over their `heap` labels.
using Totals = std::map<std::string, double>;
constexpr const char* kSummedGauges[] = {"svc_delivered_total", "svc_acked_total"};

struct Prev {
  bool valid = false;
  double t_ns = 0;
  Totals totals;
};

/// Per-second rate of total `name` between the previous and current
/// snapshot (0 before two samples exist).
double rate(const Prev& prev, const Totals& now, double t_ns,
            const std::string& name) {
  if (!prev.valid) return 0.0;
  const double dt = (t_ns - prev.t_ns) / 1e9;
  if (dt <= 0) return 0.0;
  const auto it = prev.totals.find(name);
  const auto cur = now.find(name);
  if (it == prev.totals.end() || cur == now.end()) return 0.0;
  return (cur->second - it->second) / dt;
}

int render(const std::string& body, Prev& prev) try {
  const ph::minijson::Value doc = ph::minijson::parse(body);
  const double seq = num_or(doc, "seq", 0);
  const double t_ns = num_or(doc, "t_ns", 0);
  const auto& telem = doc.at("telemetry");
  Totals totals;
  if (telem.at("counters").is_object()) {
    for (const auto& [k, v] : telem.at("counters").object()) {
      if (v.is_number()) totals[k] = v.number();
    }
  }

  std::map<std::string, double> scalars;  ///< label-free-ish heap gauges
  std::map<std::string, double> svc;      ///< svc_* gauges (phd only)
  if (doc.is_object() && doc.object().count("gauges") != 0) {
    for (const auto& g : doc.at("gauges").array()) {
      const std::string name = g.at("name").str();
      const auto& labels = g.at("labels").object();
      const auto heap_it = labels.find("heap");
      const std::string heap =
          heap_it != labels.end() ? heap_it->second.str() : "";
      const double v = g.at("value").number();
      for (const char* summed : kSummedGauges) {
        if (name == summed) totals[name] += v;
      }
      if (name.rfind("svc_", 0) == 0) {
        svc[name] = v;  // scheduler-service plane (absent on older servers)
      } else {
        scalars[name + "{" + heap + "}"] = v;
      }
    }
  }
  std::printf("ph_top  seq=%-6.0f uptime=%8.1fs  cycles/s=%9.1f  fsync/s=%7.1f\n",
              seq, t_ns / 1e9, rate(prev, totals, t_ns, "cycles"),
              rate(prev, totals, t_ns, "wal_fsyncs"));
  // Scheduler-service plane: present only against a phd publisher; a server
  // without svc_* gauges simply renders nothing here.
  if (!svc.empty()) {
    auto sv = [&](const char* n) {
      const auto it = svc.find(n);
      return it != svc.end() ? it->second : 0.0;
    };
    std::printf("  svc   tenants=%-6.0f queue=%-10.0f pending=%-6.0f "
                "shed=%-8.0f dispatch/s=%9.1f ack/s=%9.1f%s%s\n",
                sv("svc_tenants"), sv("svc_queue_depth"),
                sv("svc_pending_delivery"), sv("svc_shed_total"),
                rate(prev, totals, t_ns, "svc_delivered_total"),
                rate(prev, totals, t_ns, "svc_acked_total"),
                sv("svc_overloaded") > 0 ? "  [OVERLOADED]" : "",
                sv("svc_draining") > 0 ? "  [DRAINING]" : "");
  }
  for (const auto& [name, v] : scalars) {
    std::printf("  gauge %-38s %14.0f\n", name.c_str(), v);
  }

  // Key phase latencies (present when the publisher's build has telemetry).
  if (telem.is_object() && telem.object().count("phases") != 0) {
    const auto& phases = telem.at("phases").object();
    for (const char* ph_name :
         {"shard_route", "shard_merge", "wal_fsync", "root_work"}) {
      const auto it = phases.find(ph_name);
      if (it == phases.end()) continue;
      const double cnt = num_or(it->second, "count", 0);
      if (cnt == 0) continue;
      std::printf("  phase %-14s count=%10.0f  p50=%9.0fns  p99=%9.0fns\n",
                  ph_name, cnt, num_or(it->second, "p50_ns", 0),
                  num_or(it->second, "p99_ns", 0));
    }
  }
  std::fflush(stdout);

  prev.valid = true;
  prev.t_ns = t_ns;
  prev.totals = std::move(totals);
  return 0;
} catch (const std::exception& e) {
  // Covers both a non-JSON body and a shape mismatch (at() throws): either
  // way this poll is unusable, the next one may not be.
  std::fprintf(stderr, "ph_top: bad snapshot: %s\n", e.what());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ph_top: %s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      opt.port =
          static_cast<int>(ph::flag_uint("ph_top", "--port", need("--port"), 0, 65535));
    } else if (std::strcmp(argv[i], "--file") == 0) {
      opt.file = need("--file");
    } else if (std::strcmp(argv[i], "--once") == 0) {
      opt.once = true;
    } else if (std::strcmp(argv[i], "--interval-ms") == 0) {
      opt.interval_ms = static_cast<unsigned>(
          ph::flag_uint("ph_top", "--interval-ms", need("--interval-ms"), 0, 3'600'000));
    } else if (std::strcmp(argv[i], "--count") == 0) {
      opt.count = ph::flag_uint("ph_top", "--count", need("--count"), 0, UINT64_MAX);
    } else {
      usage(argv[0]);
    }
  }
  if (opt.port < 0 && opt.file.empty()) usage(argv[0]);
  if (opt.once) opt.count = 1;
  if (opt.interval_ms == 0) opt.interval_ms = 1;

  Prev prev;
  int failures = 0;
  for (std::uint64_t polls = 0; opt.count == 0 || polls < opt.count; ++polls) {
    if (polls != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
    }
    const std::string body =
        opt.port >= 0 ? http_get_json(opt.port) : slurp(opt.file);
    if (body.empty()) {
      std::fprintf(stderr, "ph_top: no snapshot from %s (retrying)\n",
                   opt.port >= 0 ? "publisher" : opt.file.c_str());
      if (++failures >= 5 && opt.count != 0) return 1;
      continue;
    }
    failures = 0;
    if (render(body, prev) != 0 && opt.count != 0) return 1;
  }
  return 0;
}
