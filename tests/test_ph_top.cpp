// ph_top's rates: runs the real ph_top binary against a --file snapshot
// that is atomically replaced between its two polls, and checks that
// cycles/s and fsync/s are the root_work and wal_fsync phase-count deltas
// over the t_ns delta.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

std::string snapshot(int seq, double t_ns, double root_work, double wal_fsync) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"seq\":%d,\"t_ns\":%.0f,\"telemetry\":{\"counters\":{},"
                "\"phases\":{\"root_work\":{\"count\":%.0f,\"p50_ns\":100,"
                "\"p99_ns\":200},\"wal_fsync\":{\"count\":%.0f}}}}",
                seq, t_ns, root_work, wal_fsync);
  return buf;
}

/// The token printed after the last `key` in `out`, leading spaces skipped.
std::string value_after(const std::string& out, const std::string& key) {
  const std::size_t at = out.rfind(key);
  if (at == std::string::npos) return "";
  const std::size_t b = out.find_first_not_of(' ', at + key.size());
  return out.substr(b, out.find_first_of(" \n", b) - b);
}

/// Writes `body` beside `path` and renames it over `path`, as the metrics
/// publisher does, so a poll never reads a half-written file.
void publish(const fs::path& path, const std::string& body) {
  const fs::path tmp = path.string() + ".tmp";
  std::ofstream(tmp) << body;
  fs::rename(tmp, path);
}

TEST(PhTop, RatesComeFromPhaseCountDeltas) {
  char tmpl[] = "/tmp/ph-test-ph-top-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const fs::path dir = tmpl;
  const fs::path file = dir / "metrics.json";
  publish(file, snapshot(1, 5e9, 7000, 300));

  // The second poll comes one interval after the first line is printed. The
  // test replaces the file as soon as it reads that line, so the interval is
  // the whole margin; 3 s leaves a loaded or sanitized run plenty of room.
  const std::string cmd = std::string(PH_TOP_BIN) + " --file " + file.string() +
                          " --count 2 --interval-ms 3000";
  FILE* p = ::popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::string out;
  char line[1024];
  ASSERT_NE(std::fgets(line, sizeof(line), p), nullptr);
  out += line;
  publish(file, snapshot(2, 6e9, 8000, 800));  // +1 s, +1000 cycles, +500 fsyncs
  while (std::fgets(line, sizeof(line), p) != nullptr) out += line;
  EXPECT_EQ(::pclose(p), 0) << out;
  fs::remove_all(dir);

  EXPECT_EQ(value_after(out, "seq="), "2") << out;
  EXPECT_EQ(value_after(out, "uptime="), "6.0s") << out;
  EXPECT_EQ(value_after(out, "cycles/s="), "1000.0") << out;
  EXPECT_EQ(value_after(out, "fsync/s="), "500.0") << out;
}

}  // namespace
