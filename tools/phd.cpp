// phd — the parallel-heap scheduler daemon (DESIGN.md §15).
//
// A long-running service: framed Schedule/Cancel/PollDue/Stats requests over
// localhost TCP, executed against DurableHeap<PipelinedParallelHeap<Job>>
// with the ingestion tier on the enqueue path. Multi-tenant fair admission, DRR
// dispatch, group-commit acks, WAL-replay recovery. Drive it with ph_loadgen;
// watch it with ph_top against --metrics-port.
//
//   phd --dir /tmp/phd-state --port 9230                the quick start
//   phd --dir d --port 0                                ephemeral port (printed)
//   phd --dir d --port 9230 --metrics-port 9231         + /metrics, /healthz
//   phd --dir d --port 9230 --fsync every               ack = on disk, always
//
// SIGTERM/SIGINT drain gracefully (flush staging, final commit, answer every
// outstanding ack, exit 0). kill -9 is the recovery drill: restart with the
// same --dir and the WAL replays the full ledger bit-exactly.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "svc/server.hpp"
#include "util/flags.hpp"

namespace {

// --node-capacity ceiling: one node is this many job slots, so a stray digit
// must not ask the arena for gigabytes.
constexpr std::uint64_t kMaxNodeCapacity = std::uint64_t{1} << 20;

ph::svc::Server* g_server = nullptr;
void on_term(int) {
  if (g_server != nullptr) g_server->stop();
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dir PATH [--port N] [--node-capacity N]\n"
      "          [--fsync never|checkpoint|every] [--max-backlog N]\n"
      "          [--overload-watermark N] [--admit-rate JOBS_PER_SEC]\n"
      "          [--burst N] [--max-inflight N] [--metrics-port N]\n"
      "          [--metrics-file PATH] [--no-watchdog]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  ph::svc::ServerConfig cfg;
  cfg.core.dir = "";
  cfg.port = 9230;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--dir") {
      cfg.core.dir = next();
    } else if (a == "--port") {
      cfg.port =
          static_cast<std::uint16_t>(ph::flag_uint("phd", "--port", next(), 0, 65535));
    } else if (a == "--node-capacity") {
      cfg.core.node_capacity =
          ph::flag_uint("phd", "--node-capacity", next(), 1, kMaxNodeCapacity);
    } else if (a == "--fsync") {
      const std::string v = next();
      if (v == "never") {
        cfg.core.fsync = ph::persist::FsyncPolicy::kNever;
      } else if (v == "checkpoint") {
        cfg.core.fsync = ph::persist::FsyncPolicy::kOnCheckpoint;
      } else if (v == "every") {
        cfg.core.fsync = ph::persist::FsyncPolicy::kEveryRecord;
      } else {
        usage(argv[0]);
        return 2;
      }
    } else if (a == "--max-backlog") {
      cfg.core.max_backlog = ph::flag_uint("phd", "--max-backlog", next(), 0, SIZE_MAX);
    } else if (a == "--overload-watermark") {
      cfg.core.overload_watermark =
          ph::flag_uint("phd", "--overload-watermark", next(), 0, SIZE_MAX);
    } else if (a == "--admit-rate") {
      cfg.core.admit_rate = ph::flag_double("phd", "--admit-rate", next());
    } else if (a == "--burst") {
      cfg.core.burst = ph::flag_double("phd", "--burst", next());
    } else if (a == "--max-inflight") {
      cfg.max_inflight = ph::flag_uint("phd", "--max-inflight", next(), 0, SIZE_MAX);
    } else if (a == "--metrics-port") {
      cfg.metrics_port =
          static_cast<int>(ph::flag_uint("phd", "--metrics-port", next(), 0, 65535));
    } else if (a == "--metrics-file") {
      cfg.metrics_file = next();
    } else if (a == "--no-watchdog") {
      cfg.watchdog = false;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "phd: unknown flag %s\n", a.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (cfg.core.dir.empty()) {
    std::fprintf(stderr, "phd: --dir is required (the WAL home)\n");
    usage(argv[0]);
    return 2;
  }
  std::filesystem::create_directories(cfg.core.dir);

  try {
    ph::svc::Server server(std::move(cfg));
    g_server = &server;
    std::signal(SIGTERM, on_term);
    std::signal(SIGINT, on_term);
    std::signal(SIGPIPE, SIG_IGN);

    const auto& st = server.core().stats();
    std::printf("phd: listening on 127.0.0.1:%u  dir=%s  op_seq=%llu\n",
                static_cast<unsigned>(server.port()),
                server.core().config().dir.c_str(),
                static_cast<unsigned long long>(server.core().durable().op_seq()));
    if (st.recovered_inflight != 0) {
      std::printf("phd: recovery requeued %llu in-flight jobs from an "
                  "unterminated poll transaction\n",
                  static_cast<unsigned long long>(st.recovered_inflight));
    }
    if (server.metrics_port() >= 0) {
      std::printf("phd: metrics on http://127.0.0.1:%d/metrics.json\n",
                  server.metrics_port());
    }
    std::fflush(stdout);

    const std::uint64_t served = server.run();
    const ph::svc::SvcStats fin = server.core().stats();
    std::printf(
        "phd: drained. served=%llu acked=%llu delivered=%llu cancelled=%llu "
        "shed=%llu backlog=%zu op_seq=%llu\n",
        static_cast<unsigned long long>(served),
        static_cast<unsigned long long>(fin.acked),
        static_cast<unsigned long long>(fin.delivered),
        static_cast<unsigned long long>(fin.cancelled),
        static_cast<unsigned long long>(fin.shed), server.core().backlog(),
        static_cast<unsigned long long>(server.core().durable().op_seq()));
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phd: fatal: %s\n", e.what());
    return 1;
  }
}
