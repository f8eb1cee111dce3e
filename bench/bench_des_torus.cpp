// E7 — DES on a large torus network (lineage: the torus-network experiments
// comparing the parallel-heap global queue against a single locked heap and
// per-processor local queues; their Figures plot speedup and rollback
// counts vs processors).
//
// Here (conservative reproduction, see DESIGN.md): all schedulers produce
// exact results; the rollback analogue is `violations` for the local-queue
// scheme (events handled behind their LP clock — each would be a rollback
// in an optimistic run) and `deferred` for the window schemes. Claims:
//  * local queues suffer causality violations that grow with thread count,
//    while the global-queue schemes have zero — the lineage's central
//    global-vs-local finding;
//  * the locked global heap serializes every event (2 lock acquisitions per
//    event at any thread count);
//  * the parallel heap delivers the same global-queue semantics with O(r)
//    critical path per batch and no per-item lock.
// Each row's wall time per event is also emitted as the json scalar
// des_torus_ns_per_event_<scheduler>[_t<threads>].
#include <cstdint>
#include <string>
#include <thread>

#include "baselines/binary_heap.hpp"
#include "baselines/locked_pq.hpp"
#include "bench_common.hpp"
#include "sim/engine_sim.hpp"
#include "sim/local_sim.hpp"
#include "sim/model.hpp"
#include "sim/network.hpp"
#include "sim/serial_sim.hpp"
#include "sim/sync_sim.hpp"

int main(int argc, char** argv) {
  ph::bench::parse_args(argc, argv);
  using namespace ph;
  using namespace ph::bench;
  using namespace ph::sim;

  header("E7 DES on a 256x256 torus (65,536 LPs)",
         "claim: global queue eliminates causality violations; parallel heap "
         "provides it without per-event locking");

  const Topology topo = make_torus(256, 256);
  ModelConfig mc;
  mc.seed = 11;
  mc.grain = 128;  // medium event grain, as in the lineage
  const Model model(topo, mc);
  const double horizon = 12.0;

  auto ns_per_event = [](const std::string& name, const SimResult& r) {
    json_metric("des_torus_ns_per_event_" + name,
                r.seconds * 1e9 / static_cast<double>(r.processed));
  };

  const SimResult serial = run_serial_sim(model, horizon);
  ns_per_event("serial", serial);
  columns("scheduler,threads,events,ev_per_s,violations,deferred,lock_acq,exact");
  row("serial,1,%llu,%.0f,0,0,0,1",
      static_cast<unsigned long long>(serial.processed),
      static_cast<double>(serial.processed) / serial.seconds);

  for (unsigned t : {1u, 2u, 4u, 8u}) {
    LocalSimConfig cfg;
    cfg.threads = t;
    cfg.mode = LocalSimMode::kDistributed;
    const SimResult r = run_local_sim(model, horizon, cfg);
    row("local-queues,%u,%llu,%.0f,%llu,0,0,%d", t,
        static_cast<unsigned long long>(r.processed),
        static_cast<double>(r.processed) / r.seconds,
        static_cast<unsigned long long>(r.violations),
        r.same_outcome(serial) ? 1 : 0);
    ns_per_event("local_queues_t" + std::to_string(t), r);
  }

  {
    LockedPQ<BinaryHeap<Event, EventOrder>, Event> gq;
    const SimResult r = run_sync_sim(gq, model, horizon, 512);
    row("locked-heap,1,%llu,%.0f,0,%llu,%llu,%d",
        static_cast<unsigned long long>(r.processed),
        static_cast<double>(r.processed) / r.seconds,
        static_cast<unsigned long long>(r.deferred),
        static_cast<unsigned long long>(gq.lock_acquisitions()),
        r.same_outcome(serial) ? 1 : 0);
    ns_per_event("locked_heap", r);
  }

  for (unsigned t : {1u, 2u, 4u, 8u}) {
    EngineSimConfig cfg;
    cfg.node_capacity = 512;
    cfg.think_threads = t;
    const EngineSimResult r = run_engine_sim(model, horizon, cfg);
    row("parheap,%u,%llu,%.0f,0,%llu,0,%d", t,
        static_cast<unsigned long long>(r.sim.processed),
        static_cast<double>(r.sim.processed) / r.sim.seconds,
        static_cast<unsigned long long>(r.sim.deferred),
        r.sim.same_outcome(serial) ? 1 : 0);
    ns_per_event("parheap_t" + std::to_string(t), r.sim);
  }

  note("host has %u hardware CPU(s); wall rates cannot scale here — the "
       "violations/lock_acq columns carry the shape",
       std::thread::hardware_concurrency());
  return 0;
}
