// The scheduler service's unit of work: one delayed job owned by a tenant.
//
// A Job is deliberately a POD the rest of the tree already knows how to
// handle: it flows through the pipelined heap as the value_type, through the
// WAL as a raw trivially-copyable record item, and over the wire inside CRC
// frames.
// All service-level state distinctions ride in `flags`:
//
//   kCancelFlag    this is a cancel MARKER, not a job. Cancellation goes
//                  through the same logged insert path as scheduling, so it
//                  is durable for free; the ordering below guarantees the
//                  marker pops no later than its target, and the core
//                  annihilates the pair at pop time (core.hpp).
//   kRequeuedFlag  this job was popped by a PollDue transaction but not
//                  delivered (not due yet, or past the poller's budget /
//                  fair share) and is being re-inserted by the closing
//                  record. The flag is excluded from identity so a requeued
//                  job still matches its ledger entry and any cancel marker.
//
// Ordering (JobLess) is deadline-major — the heap IS the timer wheel — with
// (tenant, id) tie-breaks so the order is total and replay-stable, and a
// final rule putting cancel markers AHEAD of their victim at equal identity:
// a marker never pops after its target when both are queued.
#pragma once

#include <cstdint>
#include <type_traits>

namespace ph::svc {

inline constexpr std::uint32_t kCancelFlag = 1u << 0;
inline constexpr std::uint32_t kRequeuedFlag = 1u << 1;

struct Job {
  std::uint64_t deadline_ns = 0;  ///< absolute due time on the server clock
  std::uint64_t id = 0;           ///< client-chosen, unique per (tenant, id)
  std::uint32_t tenant = 0;
  std::uint32_t flags = 0;
  std::uint64_t payload0 = 0;     ///< opaque to the service
  std::uint64_t payload1 = 0;
};
static_assert(std::is_trivially_copyable_v<Job>);
static_assert(sizeof(Job) == 40, "Job is a wire/WAL record item: keep it packed");

/// Identity: what Cancel targets and what the ledger counts. Excludes flags
/// (a requeued job is the same job) and payload.
inline bool same_job(const Job& a, const Job& b) noexcept {
  return a.deadline_ns == b.deadline_ns && a.id == b.id && a.tenant == b.tenant;
}

struct JobLess {
  bool operator()(const Job& a, const Job& b) const noexcept {
    if (a.deadline_ns != b.deadline_ns) return a.deadline_ns < b.deadline_ns;
    if (a.tenant != b.tenant) return a.tenant < b.tenant;
    if (a.id != b.id) return a.id < b.id;
    // Equal identity: cancel markers first, so annihilation happens at the
    // marker's pop, never after its victim was already handed out.
    return (a.flags & kCancelFlag) > (b.flags & kCancelFlag);
  }
};

}  // namespace ph::svc
