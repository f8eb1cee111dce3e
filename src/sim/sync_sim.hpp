// Synchronous conservative window simulator over a *global* event queue —
// the "global event queue" execution scheme of the lineage, with the
// optimistic rollback machinery replaced by a conservative lookahead window
// (events are only handled when provably safe), so that results are exact by
// construction.
//
// Per cycle: delete the k earliest events; GVT is the batch minimum — with
// the parallel heap this is simply the first element of the root node, which
// is exactly the GVT argument the paper makes. Handle every deleted event
// with ts < GVT + lookahead; re-insert ("defer") the rest. Since each
// handled event spawns children no earlier than its own timestamp plus the
// lookahead, deferred events can never be invalidated: the simulation is
// exact, and `deferred` counts the window losses (the conservative analogue
// of the rollback counts the lineage plots).
//
// Works with any queue exposing cycle(span, k, out) with sorted output:
// the parallel heaps, BatchAdapter-lifted serial heaps, and LockedPQ.
#pragma once

#include <vector>

#include "sim/event.hpp"
#include "sim/model.hpp"
#include "util/timer.hpp"
#include "workloads/grain.hpp"

namespace ph::sim {

template <typename GQ>
SimResult run_sync_sim(GQ& q, const Model& model, double end_time,
                       std::size_t batch) {
  SimResult res;
  Timer wall;
  {
    std::vector<Event> init = model.initial_events();
    std::erase_if(init, [end_time](const Event& e) { return !(e.ts < end_time); });
    std::vector<Event> sink;
    q.cycle(init, 0, sink);
  }
  const double lookahead = model.lookahead();
  std::vector<Event> deleted, fresh;
  for (;;) {
    deleted.clear();
    q.cycle(fresh, batch, deleted);
    fresh.clear();
    if (deleted.empty()) break;
    ++res.cycles;
    const double gvt = deleted.front().ts;  // sorted output: front is min
    const double window = gvt + lookahead;
    for (const Event& e : deleted) {
      if (e.ts < window) {
        ++res.processed;
        res.fingerprint += event_fingerprint(e);
        if (e.ts > res.max_clock) res.max_clock = e.ts;
        if (model.config().grain != 0) {
          res.sink ^= spin_work(model.config().grain, e.tag);
        }
        const Event child = model.handle(e);
        if (child.ts < end_time) fresh.push_back(child);
      } else {
        ++res.deferred;
        fresh.push_back(e);
      }
    }
  }
  res.seconds = wall.seconds();
  return res;
}

}  // namespace ph::sim
