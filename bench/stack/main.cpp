// bench_stack — prices the parallel heap and the phd service stack end to
// end and layer by layer (README.md in this directory).
//
//   bench_stack --workload hold_256k|des_torus|svc_mixed|svc_timeouts
//               --seed N --seconds S --trace 0|1 --phd PATH --work-dir DIR
//               [--smoke]
//
// stdout: a '#'-prefixed table of everything measured, then ONE JSON line:
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exit status is
// non-zero when a correctness gate fails.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "stack.hpp"

namespace {

// The metric sets of BENCHMARK.json, in its order, with their units.
const std::vector<stack::MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"ns_per_op", "ns"},
    {"latency_p50_us", "us"},
    {"peak_rss_mb", "MiB"}};

const std::vector<stack::MetricSpec> kPerLayer = {
    // service outcomes that are too noisy, or too specific, to gate
    {"latency_p99_us", "us"}, {"late_p50_us", "us"}, {"late_p99_us", "us"},
    {"wal_bytes_per_job", "B/job"}, {"restart_s", "s"}, {"capacity_jobs_per_s", "jobs/s"},
    // merge kernels and the pipelined cycle
    {"core.cycle_us_p50", "us"}, {"core.cycle_us_p99", "us"},
    {"core.items_merged_per_op", "items/op"}, {"core.nodes_touched_per_op", "nodes/op"},
    {"core.splits_per_cycle", "count/cycle"},
    {"core.substitutes_per_cycle", "items/cycle"},
    {"kernel.select3_ns_per_item", "ns/item"},
    {"kernel.merge2_split_ns_per_item", "ns/item"},
    {"core.merge_share", "ratio"},
    // simulator
    {"sim.self_ns_per_event", "ns/event"}, {"sim.deferred_frac", "ratio"},
    {"sim.events_per_cycle", "events/cycle"},
    // sharded heap
    {"sharded.cycle_us_p50", "us"}, {"sharded.cycle_us_p99", "us"},
    {"sharded.putbacks_per_routed", "ratio"}, {"sharded.merge_width", "shards"},
    {"sharded.imbalance", "ratio"}, {"sharded.hint_skips_per_cycle", "count/cycle"},
    // durability
    {"persist.append_us_per_record", "us/record"},
    {"persist.bytes_per_record", "B/record"},
    {"persist.records_per_job", "records/job"}, {"persist.requeue_byte_frac", "ratio"},
    {"persist.replay_records_per_s", "records/s"},
    // ingest tier
    {"ingest.stage_ns_per_item", "ns/item"}, {"ingest.admit_us_per_commit", "us/commit"},
    {"ingest.items_per_run", "items/run"},
    // scheduler core
    {"svc.schedule_ns_p50", "ns"}, {"svc.commit_us_p50", "us"},
    {"svc.commit_us_p99", "us"},
    {"svc.poll_us_p50", "us"}, {"svc.poll_us_p99", "us"}, {"svc.pop_yield", "ratio"},
    {"svc.requeued_per_poll", "jobs/poll"}, {"svc.empty_poll_frac", "ratio"},
    {"svc.jobs_per_commit", "jobs/commit"}, {"svc.cpu_us_per_job", "us/job"},
    // socket edge
    {"edge.cpu_us_per_job", "us/job"}, {"edge.ctx_switches_per_job", "switches/job"},
    // generator, tracing, references
    {"gen.lag_us_p99", "us"}, {"gen.lag_us_max", "us"}, {"gen.cpu_frac", "ratio"},
    {"trace.overhead_frac", "ratio"}, {"ref.binary_ns_per_op", "ns/op"},
    {"ref.serial_ns_per_event", "ns/event"}};

void usage() {
  std::fprintf(stderr,
               "usage: bench_stack --workload WORKLOAD --seed N --seconds S\n"
               "                   --trace 0|1 --phd PATH --work-dir DIR [--smoke]\n"
               "  WORKLOAD: hold_256k, des_torus, svc_mixed or svc_timeouts\n");
}

}  // namespace

int main(int argc, char** argv) {
  stack::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--phd") {
      opt.phd = value();
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      usage();
      return 2;
    }
  }
  if (opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    usage();
    return 2;
  }
  if (opt.smoke && opt.seconds > 2.0) opt.seconds = 2.0;
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);

  stack::pin_to(stack::bench_cpu());
  stack::Results res;
  stack::Tracer tr(opt.trace);
  if (opt.workload == "hold_256k") {
    stack::run_hold(opt, res, tr);
  } else if (opt.workload == "des_torus") {
    stack::run_des(opt, res, tr);
  } else if (opt.workload == "svc_mixed" || opt.workload == "svc_timeouts") {
    if (opt.phd.empty()) {
      usage();
      return 2;
    }
    stack::run_svc(opt, opt.workload == "svc_mixed" ? stack::SvcShape::kMixed
                                                     : stack::SvcShape::kTimeouts,
                   res, tr);
  } else {
    usage();
    return 2;
  }

  res.print_table(opt.workload);
  if (opt.trace) {
    const std::string path = opt.work_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    if (tr.write_chrome(path)) {
      std::printf("# trace: %s (%llu spans dropped)\n", path.c_str(),
                  static_cast<unsigned long long>(tr.dropped()));
    } else {
      stack::note("cannot write %s", path.c_str());
    }
  }
  res.print_json(opt.trace ? kPerLayer : kEndToEnd, opt.trace);
  return res.correct() ? 0 : 1;
}
