// Stream framing for the service wire (DESIGN.md §14).
//
// The durability layer defined the frame unit — [u32 len][u32 crc32][payload]
// (persist/format.hpp). This header is the stream side of it: accumulate
// bytes, cut complete frames, treat corruption as connection death. phd's
// listener runs it over many concurrent client fds; ph_loadgen and the
// bench_stack client run it over one:
//
//   FrameParser   an incremental decoder over an unbounded byte stream.
//                 feed() appends raw bytes; next() cuts at most one complete
//                 frame off the front. A CRC mismatch or an oversized length
//                 prefix poisons the parser permanently (kBad): a stream
//                 cannot resynchronize past corruption, so every later call
//                 keeps returning kBad — callers close the carrier. Bounded
//                 memory: buffered bytes never exceed 8 + kMaxFramePayload
//                 plus one read chunk, because an oversized prefix is
//                 rejected BEFORE its body is awaited.
//
//   send_frame_fd an fd write of one framed payload: full-write loop,
//                 MSG_NOSIGNAL so a dead peer is EPIPE (false), never
//                 SIGPIPE.
//
// tests/test_frame.cpp drills torn frames, oversized prefixes, CRC damage,
// and zero-length payloads against this class directly.
#pragma once

#include <sys/socket.h>

#include <cerrno>
#include <cstdint>
#include <span>
#include <vector>

#include "persist/format.hpp"

namespace ph::dist {

enum class FrameStatus : std::uint8_t {
  kFrame = 0,  ///< one complete frame was cut into `payload`
  kNeedMore,   ///< stream is clean but holds no complete frame yet
  kBad,        ///< corrupt prefix/CRC — the stream is dead, close it
};

class FrameParser {
 public:
  /// Appends raw stream bytes. Cheap when poisoned (bytes are dropped —
  /// nothing past corruption will ever parse).
  void feed(std::span<const std::uint8_t> bytes) {
    if (bad_) return;
    rx_.insert(rx_.end(), bytes.begin(), bytes.end());
  }

  /// Cuts at most one complete frame off the front of the buffered stream.
  /// kBad is sticky: corruption has no recovery on a stream carrier.
  FrameStatus next(std::vector<std::uint8_t>& payload) {
    if (bad_) return FrameStatus::kBad;
    if (rx_.size() - off_ < 8) {
      compact();
      return FrameStatus::kNeedMore;
    }
    persist::PayloadReader hdr(std::span<const std::uint8_t>(rx_.data() + off_, 8));
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    hdr.get_u32(len);
    hdr.get_u32(crc);
    if (len > persist::kMaxFramePayload) {
      poison();
      return FrameStatus::kBad;
    }
    if (rx_.size() - off_ < 8 + static_cast<std::size_t>(len)) {
      return FrameStatus::kNeedMore;
    }
    const std::span<const std::uint8_t> body(rx_.data() + off_ + 8, len);
    if (persist::crc32(body) != crc) {
      poison();
      return FrameStatus::kBad;
    }
    payload.assign(body.begin(), body.end());
    off_ += 8 + static_cast<std::size_t>(len);
    compact();
    return FrameStatus::kFrame;
  }

  /// Buffered-but-unparsed byte count — nonzero at EOF means a torn tail.
  std::size_t buffered() const noexcept { return bad_ ? 0 : rx_.size() - off_; }
  bool poisoned() const noexcept { return bad_; }

 private:
  void poison() noexcept {
    bad_ = true;
    rx_.clear();
    off_ = 0;
  }

  /// Reclaims consumed prefix space once it dominates the buffer, keeping
  /// feed() amortized O(bytes) without erasing on every frame.
  void compact() {
    if (off_ == 0) return;
    if (off_ >= rx_.size()) {
      rx_.clear();
      off_ = 0;
    } else if (off_ >= 4096 && off_ * 2 >= rx_.size()) {
      rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(off_));
      off_ = 0;
    }
  }

  std::vector<std::uint8_t> rx_;
  std::size_t off_ = 0;  ///< consumed prefix of rx_
  bool bad_ = false;
};

/// Writes one framed payload to a stream socket: full-write loop, EPIPE as a
/// false return (MSG_NOSIGNAL), EINTR retried. `wire` is caller scratch so
/// hot paths reuse one allocation.
inline bool send_frame_fd(int fd, std::span<const std::uint8_t> payload,
                          std::vector<std::uint8_t>& wire) {
  if (fd < 0) return false;
  wire.clear();
  persist::append_frame(wire, payload);
  const std::uint8_t* p = wire.data();
  std::size_t n = wire.size();
  while (n > 0) {
    const ::ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET: peer died — caller's failover problem
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace ph::dist
