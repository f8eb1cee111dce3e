// Write-ahead op log: append-only segments of framed operation records.
//
// One segment file (`wal-<startseq>.phw`) holds the operations issued since
// the checkpoint with the same sequence number; DurableHeap rotates to a new
// segment each time it publishes a checkpoint, so "which WAL tail do I
// replay" is answered by file names alone. Records carry their own op
// sequence number, making replay idempotent (records at or below the loaded
// checkpoint's sequence are skipped) and making a *hole* — a sequence jump
// with no covering checkpoint — detectable as corruption rather than
// silently absorbable.
//
// Record kinds mirror the batch PQ API surface exactly:
//   kCycle   one cycle(fresh, k): the fresh batch's items plus k
//   kInsert  insert_batch(items)
//   kDelete  delete_min_batch(k)
// Replay re-executes the same multiset transitions; because the library's
// comparators are total orders, the k smallest of a multiset is a unique
// multiset, so replay lands on the identical logical state regardless of the
// PQ's internal layout (DESIGN.md §10).
//
// Crash sites: kWalAppend evaluates between the two write(2) calls of an
// append — dying there leaves a genuinely torn frame on disk for the reader
// to detect. kWalFsync evaluates before and after the per-record fsync —
// the before/after distinction is what separates "acknowledged and durable"
// from "acknowledged but lost" under FsyncPolicy::kEveryRecord.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "persist/format.hpp"
#include "robustness/failpoint.hpp"
#include "telemetry/telemetry.hpp"

namespace ph::persist {

inline constexpr char kWalMagic[8] = {'P', 'H', 'W', 'A', 'L', '0', '0', '1'};
inline constexpr std::uint32_t kWalVersion = 1;

enum class RecType : std::uint8_t {
  kCycle = 1,   ///< cycle(fresh, k)
  kInsert = 2,  ///< insert_batch(items)
  kDelete = 3,  ///< delete_min_batch(k)
  kBuild = 4,   ///< build(items): replaces the whole content
};

/// One decoded WAL record. `seq` is the op sequence the record *produces*
/// (the first op ever logged has seq 1).
template <typename T>
struct WalRecord {
  RecType type = RecType::kCycle;
  std::uint64_t seq = 0;
  std::uint64_t k = 0;       ///< delete count (kCycle / kDelete)
  std::vector<T> items;      ///< fresh batch (kCycle / kInsert)
};

/// Append side of one segment. Owns the fd; movable (held by value inside a
/// movable DurableHeap).
template <typename T>
class WalWriter {
  static_assert(std::is_trivially_copyable_v<T>,
                "WAL serialization requires trivially copyable items");

 public:
  WalWriter(const std::string& path, std::uint64_t start_seq, FsyncPolicy policy)
      : policy_(policy) {
    file_.open_truncate(path);
    std::vector<std::uint8_t> payload;
    put_raw(payload, kWalMagic, sizeof(kWalMagic));
    put_u32(payload, kWalVersion);
    put_u32(payload, static_cast<std::uint32_t>(sizeof(T)));
    put_u64(payload, start_seq);
    std::vector<std::uint8_t> frame;
    append_frame(frame, payload);
    file_.write_all(frame.data(), frame.size());
    obs::flight(obs::FlightKind::kWalRotate, start_seq);
    if (policy_ == FsyncPolicy::kEveryRecord) sync();
  }

  WalWriter(WalWriter&&) = default;
  WalWriter& operator=(WalWriter&&) = default;

  /// Appends one record. Under FsyncPolicy::kEveryRecord the record is
  /// durable when this returns. Strong guarantee against *injected* faults:
  /// a fault thrown from the kWalAppend / kWalFsync sites (no crash hook
  /// installed) truncates the segment back to the pre-append length before
  /// rethrowing, so the on-disk log never holds a record the caller was told
  /// failed. A real write error leaves the torn tail for the frame reader to
  /// discard at recovery.
  void append(RecType type, std::uint64_t seq, std::uint64_t k,
              std::span<const T> items) {
    telemetry::SpanScope span(telemetry::Phase::kWalAppend);
    std::vector<std::uint8_t> payload;
    payload.reserve(1 + 8 + 8 + 8 + items.size_bytes());
    payload.push_back(static_cast<std::uint8_t>(type));
    put_u64(payload, seq);
    put_u64(payload, k);
    put_u64(payload, items.size());
    put_raw(payload, items.data(), items.size_bytes());
    std::vector<std::uint8_t> frame;
    append_frame(frame, payload);

    const std::uint64_t pre = file_.offset();
    try {
      // Two writes with the crash site between them: a crash here leaves a
      // frame whose length field promises more bytes than exist — the
      // canonical torn tail.
      const std::size_t head = frame.size() < 8 ? frame.size() : 8;
      file_.write_all(frame.data(), head);
      robustness::fire_crash(robustness::FailSite::kWalAppend);
      file_.write_all(frame.data() + head, frame.size() - head);
      if (policy_ == FsyncPolicy::kEveryRecord) {
        robustness::fire_crash(robustness::FailSite::kWalFsync);  // pre-fsync
        sync();
        robustness::fire_crash(robustness::FailSite::kWalFsync);  // post-fsync
      }
    } catch (const robustness::InjectedFailure&) {
      file_.truncate_to(pre);
      throw;
    }
  }

  void sync() {
    // Fsync latency is the durability tax every kEveryRecord append pays —
    // first-class phase so dashboards see its distribution; the phase's
    // count is the fsync count.
    telemetry::SpanScope span(telemetry::Phase::kWalFsync);
    file_.sync();
  }

  /// Un-logs everything past `off` — DurableHeap's repair path for a record
  /// whose PQ apply threw after the append already landed.
  void truncate_to(std::uint64_t off) { file_.truncate_to(off); }

  std::uint64_t offset() const noexcept { return file_.offset(); }
  FsyncPolicy policy() const noexcept { return policy_; }

 private:
  FileWriter file_;
  FsyncPolicy policy_;
};

/// Decoded contents of one segment file.
template <typename T>
struct SegmentContents {
  bool header_ok = false;     ///< magic/version/item-size all matched
  bool torn_tail = false;     ///< bytes remained past the last valid frame
  std::uint64_t start_seq = 0;
  std::vector<WalRecord<T>> records;
};

/// Reads a segment, stopping cleanly at the first invalid frame (torn tail)
/// or undecodable record. Never throws on bad data — corruption shows up as
/// header_ok=false or a short record list with torn_tail=true; the recovery
/// layer decides whether that is benign.
template <typename T>
SegmentContents<T> read_segment(const std::string& path) {
  static_assert(std::is_trivially_copyable_v<T>);
  SegmentContents<T> out;
  std::vector<std::uint8_t> bytes;
  if (!read_entire_file(path, bytes)) return out;

  FrameCursor cur(bytes);
  std::span<const std::uint8_t> payload;
  if (!cur.next(payload)) return out;
  {
    PayloadReader hdr(payload);
    char magic[8];
    std::uint32_t ver = 0;
    std::uint32_t item_size = 0;
    if (!hdr.get_raw(magic, sizeof(magic)) ||
        std::memcmp(magic, kWalMagic, sizeof(magic)) != 0 ||
        !hdr.get_u32(ver) || ver != kWalVersion || !hdr.get_u32(item_size) ||
        item_size != sizeof(T) || !hdr.get_u64(out.start_seq)) {
      return out;
    }
  }
  out.header_ok = true;

  while (cur.next(payload)) {
    PayloadReader rd(payload);
    WalRecord<T> rec;
    std::uint8_t type = 0;
    std::uint64_t count = 0;
    if (!rd.get_raw(&type, 1) || !rd.get_u64(rec.seq) || !rd.get_u64(rec.k) ||
        !rd.get_u64(count) || rd.remaining() != count * sizeof(T)) {
      out.torn_tail = true;  // framed but undecodable: treat like a torn frame
      return out;
    }
    rec.type = static_cast<RecType>(type);
    if (rec.type != RecType::kCycle && rec.type != RecType::kInsert &&
        rec.type != RecType::kDelete && rec.type != RecType::kBuild) {
      out.torn_tail = true;
      return out;
    }
    rec.items.resize(count);
    if (count > 0) rd.get_raw(rec.items.data(), count * sizeof(T));
    out.records.push_back(std::move(rec));
  }
  out.torn_tail = cur.has_garbage_tail();
  return out;
}

}  // namespace ph::persist
