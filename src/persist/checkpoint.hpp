// Durable checkpoints: a cycle-boundary snapshot serialized to one
// versioned, checksummed file and published atomically.
//
// File layout (every unit a CRC-framed payload — format.hpp):
//
//   frame 0  header   magic "PHCKPT01", version, item size, op sequence,
//                     split/active/run counts
//   frame 1  map      the sharded partition map: split values + active mask,
//                     one byte per shard, written as all ones (both empty
//                     for an unsharded heap)
//   frame 2..N runs   one frame per sorted run: item count + raw items
//
// Publication: the frames are written to `<final>.tmp`, fsync'd (unless
// FsyncPolicy::kNever), rename(2)'d to `ckpt-<seq>.phc`, and the directory
// is fsync'd. Readers therefore see either the previous checkpoint set or
// the previous set plus one complete new file — never a partial file under
// a final name.
//
// Validation on load is frame-by-frame: any CRC mismatch, count mismatch, or
// short file fails the WHOLE checkpoint (load_checkpoint returns false) and
// the recovery layer falls back to the next-newest file. A corrupt
// checkpoint is renamed aside (recovery.hpp), never silently loaded.
//
// The neutral interchange struct is CheckpointImage<T>; to_image/from_image
// overloads adapt it to PipelinedParallelHeap (one run, no map) and
// ShardedHeap (per-shard runs + partition map). New PQ types join the
// durability layer by adding an overload pair, not by touching the format.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/pipelined_heap.hpp"
#include "core/sharded_heap.hpp"
#include "obs/flight_recorder.hpp"
#include "persist/format.hpp"
#include "robustness/failpoint.hpp"
#include "telemetry/telemetry.hpp"

namespace ph::persist {

inline constexpr char kCkptMagic[8] = {'P', 'H', 'C', 'K', 'P', 'T', '0', '1'};
inline constexpr std::uint32_t kCkptVersion = 1;

/// Neutral serialized form of a PQ at a cycle boundary: the sharded
/// partition map (empty for unsharded heaps) plus one sorted run per
/// shard/node group. `runs` carries the full multiset of stored items.
template <typename T>
struct CheckpointImage {
  std::vector<T> splits;
  std::vector<std::uint8_t> active;  ///< 1 per serving shard (see from_image)
  bool seeded = false;
  std::vector<std::vector<T>> runs;

  std::size_t total_items() const noexcept {
    std::size_t n = 0;
    for (const auto& r : runs) n += r.size();
    return n;
  }
};

// ------------------------------------------------------- file name scheme

inline std::string checkpoint_filename(std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%020llu.phc",
                static_cast<unsigned long long>(seq));
  return buf;
}

inline std::string wal_filename(std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.phw",
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Parses `<prefix>-<decimal seq><suffix>`; false on any other shape.
inline bool parse_seq_filename(const std::string& name, const char* prefix,
                               const char* suffix, std::uint64_t& seq) {
  const std::size_t plen = std::strlen(prefix);
  const std::size_t slen = std::strlen(suffix);
  if (name.size() <= plen + slen) return false;
  if (name.compare(0, plen, prefix) != 0) return false;
  if (name.compare(name.size() - slen, slen, suffix) != 0) return false;
  seq = 0;
  for (std::size_t i = plen; i < name.size() - slen; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

/// All `<prefix>-<seq><suffix>` files in `dir`, sorted ascending by seq.
inline std::vector<std::pair<std::uint64_t, std::string>> list_seq_files(
    const std::string& dir, const char* prefix, const char* suffix) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    const std::string name = entry.path().filename().string();
    if (parse_seq_filename(name, prefix, suffix, seq)) {
      out.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

inline std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir) {
  return list_seq_files(dir, "ckpt-", ".phc");
}
inline std::vector<std::pair<std::uint64_t, std::string>> list_wal_segments(
    const std::string& dir) {
  return list_seq_files(dir, "wal-", ".phw");
}

// ------------------------------------------------------------ write / read

/// Serializes `img` as checkpoint `seq` in `dir` and publishes it
/// atomically. The kCkptWrite crash site evaluates between frames, so an
/// injected crash leaves a stale .tmp (swept by recovery), never a bad
/// final file. Throws PersistError on real I/O failure and InjectedFault
/// when the site fires without a crash hook; in both cases the .tmp is
/// unlinked and no final file appears.
template <typename T>
void write_checkpoint(const std::string& dir, std::uint64_t seq,
                      const CheckpointImage<T>& img, FsyncPolicy policy) {
  static_assert(std::is_trivially_copyable_v<T>,
                "checkpoint serialization requires trivially copyable items");
  telemetry::SpanScope span(telemetry::Phase::kCkptWrite);
  const std::string final_path = dir + "/" + checkpoint_filename(seq);
  const std::string tmp_path = final_path + ".tmp";

  FileWriter f;
  try {
    f.open_truncate(tmp_path);
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> payload;

    // Header.
    put_raw(payload, kCkptMagic, sizeof(kCkptMagic));
    put_u32(payload, kCkptVersion);
    put_u32(payload, static_cast<std::uint32_t>(sizeof(T)));
    put_u64(payload, seq);
    put_u64(payload, img.splits.size());
    put_u64(payload, img.active.size());
    put_u64(payload, (img.seeded ? 1u : 0u));
    put_u64(payload, img.runs.size());
    append_frame(frame, payload);
    f.write_all(frame.data(), frame.size());
    robustness::fire_crash(robustness::FailSite::kCkptWrite);

    // Partition map.
    frame.clear();
    payload.clear();
    put_raw(payload, img.splits.data(), img.splits.size() * sizeof(T));
    put_raw(payload, img.active.data(), img.active.size());
    append_frame(frame, payload);
    f.write_all(frame.data(), frame.size());

    // Runs.
    for (const std::vector<T>& run : img.runs) {
      robustness::fire_crash(robustness::FailSite::kCkptWrite);
      frame.clear();
      payload.clear();
      put_u64(payload, run.size());
      put_raw(payload, run.data(), run.size() * sizeof(T));
      append_frame(frame, payload);
      f.write_all(frame.data(), frame.size());
    }

    const std::uint64_t bytes = f.offset();
    if (policy != FsyncPolicy::kNever) f.sync();
    f.close();
    if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
      throw PersistError("persist: rename " + tmp_path + " -> " + final_path +
                         " failed: " + std::strerror(errno));
    }
    if (policy != FsyncPolicy::kNever) fsync_dir(dir);
    obs::flight(obs::FlightKind::kCkptPublish, seq, bytes);
  } catch (...) {
    f.close();
    ::unlink(tmp_path.c_str());
    throw;
  }
}

/// Deserializes and fully validates one checkpoint file. Returns false on
/// ANY validation failure (missing file, bad magic/version/item size, CRC
/// mismatch, count mismatch) — the caller falls back, never half-loads.
template <typename T>
bool load_checkpoint(const std::string& path, CheckpointImage<T>& img,
                     std::uint64_t& seq) {
  static_assert(std::is_trivially_copyable_v<T>);
  img = CheckpointImage<T>{};
  std::vector<std::uint8_t> bytes;
  if (!read_entire_file(path, bytes)) return false;

  FrameCursor cur(bytes);
  std::span<const std::uint8_t> payload;
  std::uint64_t nsplits = 0, nactive = 0, seeded = 0, nruns = 0;
  if (!cur.next(payload)) return false;
  {
    PayloadReader hdr(payload);
    char magic[8];
    std::uint32_t ver = 0, item_size = 0;
    if (!hdr.get_raw(magic, sizeof(magic)) ||
        std::memcmp(magic, kCkptMagic, sizeof(magic)) != 0 ||
        !hdr.get_u32(ver) || ver != kCkptVersion || !hdr.get_u32(item_size) ||
        item_size != sizeof(T) || !hdr.get_u64(seq) || !hdr.get_u64(nsplits) ||
        !hdr.get_u64(nactive) || !hdr.get_u64(seeded) || !hdr.get_u64(nruns) ||
        hdr.remaining() != 0) {
      return false;
    }
  }

  if (!cur.next(payload)) return false;
  {
    PayloadReader map(payload);
    if (map.remaining() != nsplits * sizeof(T) + nactive) return false;
    img.splits.resize(nsplits);
    if (nsplits > 0 && !map.get_raw(img.splits.data(), nsplits * sizeof(T))) {
      return false;
    }
    img.active.resize(nactive);
    if (nactive > 0 && !map.get_raw(img.active.data(), nactive)) return false;
  }
  img.seeded = seeded != 0;

  img.runs.resize(nruns);
  for (std::uint64_t r = 0; r < nruns; ++r) {
    if (!cur.next(payload)) return false;
    PayloadReader rd(payload);
    std::uint64_t count = 0;
    if (!rd.get_u64(count) || rd.remaining() != count * sizeof(T)) return false;
    img.runs[r].resize(count);
    if (count > 0 && !rd.get_raw(img.runs[r].data(), count * sizeof(T))) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------- PQ <-> image adapter overloads

template <typename T, typename Compare>
CheckpointImage<T> to_image(const PipelinedParallelHeap<T, Compare>& pq) {
  CheckpointImage<T> img;
  img.runs.push_back(std::move(pq.snapshot().items));
  return img;
}

template <typename T, typename Compare>
void from_image(PipelinedParallelHeap<T, Compare>& pq,
                const CheckpointImage<T>& img) {
  if (img.runs.size() == 1) {
    typename PipelinedParallelHeap<T, Compare>::Snapshot snap;
    snap.items = img.runs[0];
    pq.restore(snap);
    return;
  }
  std::vector<T> all;
  all.reserve(img.total_items());
  for (const auto& run : img.runs) all.insert(all.end(), run.begin(), run.end());
  pq.build(std::span<const T>(all));
}

// The image is the cycle-boundary snapshot: the partition map and every
// shard's items. The active mask is all ones: every shard serves traffic.
template <typename T, typename Compare>
CheckpointImage<T> to_image(const ShardedHeap<T, Compare>& pq) {
  typename ShardedHeap<T, Compare>::Snapshot snap = pq.snapshot();
  CheckpointImage<T> img;
  img.splits = std::move(snap.splits);
  img.active.assign(pq.num_shards(), std::uint8_t{1});
  img.seeded = snap.seeded;
  img.runs = std::move(snap.shard_items);
  return img;
}

template <typename T, typename Compare>
void from_image(ShardedHeap<T, Compare>& pq, const CheckpointImage<T>& img) {
  const bool all_active =
      std::all_of(img.active.begin(), img.active.end(),
                  [](std::uint8_t a) { return a == 1; });
  if (img.runs.size() == pq.num_shards() &&
      img.active.size() == pq.num_shards() && all_active) {
    typename ShardedHeap<T, Compare>::Snapshot snap;
    snap.splits = img.splits;
    snap.seeded = img.seeded;
    snap.shard_items = img.runs;
    pq.restore(snap);
    return;
  }
  // A different shard count, or a mask that retires a shard (older images
  // could carry one): fall back to a flat rebuild — contents are exact,
  // the layout is reseeded.
  std::vector<T> all;
  all.reserve(img.total_items());
  for (const auto& run : img.runs) all.insert(all.end(), run.begin(), run.end());
  pq.build(std::span<const T>(all));
}

}  // namespace ph::persist
