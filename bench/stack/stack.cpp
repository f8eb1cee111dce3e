#include "stack.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace stack {

namespace {
std::uint64_t clock_ns(clockid_t id) {
  ::timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t mono_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::uint64_t mono_after(double seconds) {
  return mono_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}
std::uint64_t real_ns() { return clock_ns(CLOCK_REALTIME); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (i >= v.size()) i = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return v[i];
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

double quiet(std::vector<double> per_segment) { return percentile(per_segment, 5.0); }

// ---------------------------------------------------------------- Results

void Results::set(const std::string& name, double value, const char* unit) {
  metrics_[name] = Metric{value, unit};
}

double Results::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Results::fail(const std::string& why) {
  note("CORRECTNESS FAILURE: %s", why.c_str());
  failures_.push_back(why);
}

void Results::print_table(const std::string& workload) const {
  std::printf("# bench_stack %s: %zu metrics, attempted %" PRIu64 ", failed %" PRIu64
              ", correct %s\n",
              workload.c_str(), metrics_.size(), attempted, failed,
              correct() ? "yes" : "NO");
  for (const auto& [name, m] : metrics_) {
    std::printf("#   %-32s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : failures_) std::printf("#   FAILED: %s\n", f.c_str());
}

void Results::print_json(const std::vector<MetricSpec>& specs,
                         bool missing_is_zero) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted < 1 ? 1 : attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MetricSpec& spec = specs[i];
    double v = 0.0;
    const auto it = metrics_.find(spec.name);
    if (it != metrics_.end() && it->second.unit == spec.unit) {
      v = it->second.value;
    } else if (it != metrics_.end() || !missing_is_zero) {
      note("internal error: metric %s is %s", spec.name,
           it == metrics_.end() ? "not measured" : "in the wrong unit");
      std::exit(3);
    }
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += std::string(i == 0 ? "" : ", ") + "\"" + spec.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ----------------------------------------------------------------- Tracer

std::uint32_t Tracer::begin(const char* name) {
  if (!on_) return 0;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  const std::uint32_t parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(Span{name, mono_ns(), 0, parent});
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = mono_ns();
  // Spans close in LIFO order; tolerate an out-of-order close by unwinding.
  while (!open_.empty()) {
    const std::uint32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

double Tracer::total_us(const char* name) const {
  double t = 0;
  for (double d : durations_us(name)) t += d;
  return t;
}

double Tracer::self_us(const char* name) const {
  std::vector<double> child_ns(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ns != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0 || std::strcmp(s.name, name) != 0) continue;
    self += static_cast<double>(s.end_ns - s.start_ns) - child_ns[i + 1];
  }
  return self / 1e3;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"bench_stack\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1, s.parent);
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%" PRIu64
               "}}\n",
               dropped_);
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------- /proc

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line, key;
  std::uint64_t v = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    if (!(ls >> key >> v)) continue;
    if (key == "VmHWM:") s.hwm_mib = static_cast<double>(v) / 1024.0;
    if (key == "voluntary_ctxt_switches:" || key == "nonvoluntary_ctxt_switches:") {
      s.ctx_switches += v;
    }
  }
  return s;
}

std::uint64_t task_cpu_ns(pid_t pid, pid_t tid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/task/" + std::to_string(tid) +
                   "/schedstat");
  std::uint64_t ns = 0;
  in >> ns;
  return ns;
}

std::uint64_t proc_cpu_ns(pid_t pid) {
  std::uint64_t total = 0;
  for (pid_t tid : thread_ids(pid)) total += task_cpu_ns(pid, tid);
  return total;
}

std::vector<pid_t> thread_ids(pid_t pid) {
  std::vector<pid_t> out;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec)) {
    out.push_back(static_cast<pid_t>(std::atoi(e.path().filename().c_str())));
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}
}  // namespace

int bench_cpu() {
  const std::vector<int>& cpus = allowed_cpus();
  return cpus.size() >= 2 ? cpus.back() : -1;
}

int server_cpu() {
  const std::vector<int>& cpus = allowed_cpus();
  return cpus.size() >= 2 ? cpus[cpus.size() - 2] : -1;
}

void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

void note(const char* fmt, ...) {
  std::fprintf(stderr, "bench_stack: ");
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "\n");
}

}  // namespace stack
