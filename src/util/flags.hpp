// Checked parsing of numeric command-line flags.
//
// Every tool reads its numbers through these, so a typo cannot silently
// become 0, wrap a port, or run a sweep over nothing. An integer must be
// plain decimal digits filling the whole text (no sign, no whitespace), must
// not overflow, and must lie in the inclusive range [lo, hi]. A double must
// fill the whole text and be finite.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

namespace ph {

inline std::optional<std::uint64_t> parse_uint(std::string_view text,
                                               std::uint64_t lo,
                                               std::uint64_t hi) noexcept {
  if (text.empty() || text.front() < '0' || text.front() > '9') return std::nullopt;
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size()) return std::nullopt;
  if (v < lo || v > hi) return std::nullopt;
  return v;
}

inline std::optional<double> parse_double(std::string_view text) noexcept {
  double v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

/// parse_uint for a flag value: a bad value prints
/// "<prog>: <flag> needs an integer in [lo, hi], got '<text>'" and exits 2.
inline std::uint64_t flag_uint(const char* prog, const char* flag, const char* text,
                               std::uint64_t lo, std::uint64_t hi) {
  const std::optional<std::uint64_t> v = parse_uint(text, lo, hi);
  if (!v) {
    std::fprintf(stderr, "%s: %s needs an integer in [%llu, %llu], got '%s'\n", prog,
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
    std::exit(2);
  }
  return *v;
}

/// parse_double for a flag value: a bad value exits 2 naming the flag.
inline double flag_double(const char* prog, const char* flag, const char* text) {
  const std::optional<double> v = parse_double(text);
  if (!v) {
    std::fprintf(stderr, "%s: %s needs a finite number, got '%s'\n", prog, flag, text);
    std::exit(2);
  }
  return *v;
}

}  // namespace ph
