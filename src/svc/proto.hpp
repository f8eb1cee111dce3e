// Client <-> phd wire protocol (DESIGN.md §15).
//
// Requests and replies share one shape riding the CRC frame codec
// (dist/frame.hpp — the same [u32 len][u32 crc][payload] unit as the WAL):
//
//   payload := [u8 type][u32 tenant][u64 a][u64 b][u64 c][u64 d]
//              [u32 item_size][u64 nitems][raw items]
//
// a/b/c/d per type:
//
//   requests (client -> phd)
//     kSchedule   a=delay_ns, b=job id, c/d=payload      -> kAck | kOverloaded
//     kCancel     a=deadline_ns, b=job id                -> kAck | kOverloaded
//     kPollDue    a=max jobs wanted                      -> kDueReply
//     kStats                                             -> kStatsReply
//     kShutdown   drain-and-exit (a/b/c/d ignored)       -> kAck (post-drain)
//   replies (phd -> client)
//     kAck        a=deadline_ns, b=job id, c=server now, d=op seq
//     kDueReply   a=server now, b=backlog size           items = Job[]
//     kStatsReply a=server now, b=backlog, c=op seq,     items = TenantStatRow[]
//                 d=active tenants
//     kOverloaded a=deadline_ns, b=job id, c=server now  (admission shed)
//     kError      a=error code (kErr*)
//
// Schedule/Cancel acks are sent only after the group-commit WAL record that
// made the op durable landed (core.hpp) — an acked op survives kill -9 under
// the configured fsync policy. item_size in the header plays the same role
// as in the persist layer: a peer compiled against a different Job/stat
// layout is rejected loudly, never misparsed.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "persist/format.hpp"
#include "svc/job.hpp"

namespace ph::svc {

enum class SvcType : std::uint8_t {
  kSchedule = 1,
  kCancel,
  kPollDue,
  kStats,
  kShutdown,
  kAck,
  kDueReply,
  kStatsReply,
  kOverloaded,
  kError,
};

inline const char* svc_type_name(SvcType t) noexcept {
  switch (t) {
    case SvcType::kSchedule: return "schedule";
    case SvcType::kCancel: return "cancel";
    case SvcType::kPollDue: return "poll_due";
    case SvcType::kStats: return "stats";
    case SvcType::kShutdown: return "shutdown";
    case SvcType::kAck: return "ack";
    case SvcType::kDueReply: return "due_reply";
    case SvcType::kStatsReply: return "stats_reply";
    case SvcType::kOverloaded: return "overloaded";
    case SvcType::kError: return "error";
  }
  return "unknown";
}

/// kError codes (SvcMsg::a).
inline constexpr std::uint64_t kErrBadRequest = 1;  ///< undecodable/wrong-shape
inline constexpr std::uint64_t kErrTransient = 2;   ///< injected/internal fault; retry
inline constexpr std::uint64_t kErrDraining = 3;    ///< server is shutting down

/// One tenant's durable ledger row (kStatsReply items). Counters are the
/// replay-derived truth the smoke test audits: acked = delivered + cancelled
/// + still-queued, across restarts.
struct TenantStatRow {
  std::uint32_t tenant = 0;
  std::uint32_t pad = 0;
  std::uint64_t acked = 0;        ///< schedules made durable and acknowledged
  std::uint64_t cancel_reqs = 0;  ///< cancel markers made durable
  std::uint64_t delivered = 0;    ///< jobs handed to pollers (committed)
  std::uint64_t cancelled = 0;    ///< jobs annihilated by a marker before delivery
  std::uint64_t requeued = 0;     ///< popped-but-not-delivered re-inserts
  std::uint64_t shed = 0;         ///< requests refused with kOverloaded (volatile)
};
static_assert(std::is_trivially_copyable_v<TenantStatRow>);

struct SvcMsg {
  SvcType type = SvcType::kError;
  std::uint32_t tenant = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  std::vector<Job> jobs;            ///< kDueReply only
  std::vector<TenantStatRow> stats; ///< kStatsReply only
};

namespace proto_detail {
template <typename Item>
inline void put_items(std::vector<std::uint8_t>& out, const std::vector<Item>& v) {
  persist::put_u32(out, static_cast<std::uint32_t>(sizeof(Item)));
  persist::put_u64(out, v.size());
  if (!v.empty()) persist::put_raw(out, v.data(), v.size() * sizeof(Item));
}
template <typename Item>
inline bool get_items(persist::PayloadReader& rd, std::uint32_t item_size,
                      std::uint64_t nitems, std::vector<Item>& v) {
  if (item_size != sizeof(Item)) return false;
  // Divide, never multiply: `nitems * sizeof(Item)` is u64 arithmetic a
  // crafted frame can wrap (huge nitems whose product aliases the few bytes
  // actually present), and the resulting resize() would throw through the
  // server loop. nitems is bounded by remaining()/sizeof(Item), so the
  // resize below is bounded by the frame size cap.
  if (rd.remaining() % sizeof(Item) != 0 ||
      nitems != rd.remaining() / sizeof(Item)) {
    return false;
  }
  v.resize(static_cast<std::size_t>(nitems));
  return nitems == 0 || rd.get_raw(v.data(), v.size() * sizeof(Item));
}
}  // namespace proto_detail

inline void encode_svc(const SvcMsg& m, std::vector<std::uint8_t>& out) {
  out.clear();
  out.push_back(static_cast<std::uint8_t>(m.type));
  persist::put_u32(out, m.tenant);
  persist::put_u64(out, m.a);
  persist::put_u64(out, m.b);
  persist::put_u64(out, m.c);
  persist::put_u64(out, m.d);
  if (m.type == SvcType::kDueReply) {
    proto_detail::put_items(out, m.jobs);
  } else if (m.type == SvcType::kStatsReply) {
    proto_detail::put_items(out, m.stats);
  } else {
    persist::put_u32(out, 0);
    persist::put_u64(out, 0);
  }
}

/// Strict decode: unknown types, short payloads, trailing bytes, and item-size
/// drift all fail loudly. The frame CRC already rejected corruption; this
/// rejects protocol skew.
inline bool decode_svc(std::span<const std::uint8_t> payload, SvcMsg& m) {
  if (payload.empty()) return false;
  const auto raw_type = payload[0];
  if (raw_type < static_cast<std::uint8_t>(SvcType::kSchedule) ||
      raw_type > static_cast<std::uint8_t>(SvcType::kError)) {
    return false;
  }
  m.type = static_cast<SvcType>(raw_type);
  persist::PayloadReader rd(payload.subspan(1));
  std::uint32_t item_size = 0;
  std::uint64_t nitems = 0;
  if (!rd.get_u32(m.tenant) || !rd.get_u64(m.a) || !rd.get_u64(m.b) ||
      !rd.get_u64(m.c) || !rd.get_u64(m.d) || !rd.get_u32(item_size) ||
      !rd.get_u64(nitems)) {
    return false;
  }
  m.jobs.clear();
  m.stats.clear();
  if (m.type == SvcType::kDueReply) {
    if (!proto_detail::get_items(rd, item_size, nitems, m.jobs)) return false;
  } else if (m.type == SvcType::kStatsReply) {
    if (!proto_detail::get_items(rd, item_size, nitems, m.stats)) return false;
  } else {
    if (item_size != 0 || nitems != 0) return false;
  }
  return rd.remaining() == 0;
}

}  // namespace ph::svc
