// The queueing-network model simulated throughout the lineage's evaluation:
// a network of logical processes (LPs) with fixed out-degree; each processed
// message occupies its LP for that LP's service time and then departs along
// one output channel as a new message. Per the experiments' setup, each
// LP's service time is drawn once from [1, 5], with a configurable fraction
// of "hot" LPs given a near-zero service time to force fine-grained,
// ill-behaved behaviour. The minimum service time is the model's lookahead,
// which the synchronous window simulators rely on — hence it is floored at a
// small positive epsilon rather than zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/network.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ph::sim {

struct ModelConfig {
  double min_service = 0.05;  ///< service of hot LPs; also the lookahead
  double max_service = 5.0;
  double hot_fraction = 0.10;  ///< fraction of LPs with min_service
  std::uint64_t seed = 1;
  std::uint64_t grain = 0;  ///< spin iterations per handled event
};

class Model {
 public:
  Model(const Topology& topo, const ModelConfig& cfg) : topo_(topo), cfg_(cfg) {
    PH_ASSERT(cfg.min_service > 0);
    PH_ASSERT(cfg.max_service >= cfg.min_service);
    Xoshiro256 rng(cfg.seed);
    service_.resize(topo.num_lps);
    for (double& s : service_) {
      if (rng.next_double() < cfg.hot_fraction) {
        s = cfg.min_service;
      } else {
        s = 1.0 + rng.next_double() * (cfg.max_service - 1.0);
      }
    }
  }

  const Topology& topology() const { return topo_; }
  const ModelConfig& config() const { return cfg_; }
  std::size_t num_lps() const { return topo_.num_lps; }
  double service_of(std::uint32_t lp) const { return service_[lp]; }

  /// Conservative lookahead: no handled event can produce a child earlier
  /// than its own timestamp plus this.
  double lookahead() const { return cfg_.min_service; }

  /// Handles event `e`: the message departs after the LP's service time
  /// along a tag-chosen output channel. Pure function of `e` — see
  /// event.hpp's determinism design.
  Event handle(const Event& e) const {
    const std::uint64_t h = mix64(e.tag);
    const auto out = topo_.out(e.lp);
    const std::uint32_t dst = out[h % out.size()];
    return Event{e.ts + service_[e.lp], dst, e.hop + 1, mix64(h ^ dst)};
  }

  /// One seeding event per LP (the experiments start with one message per
  /// LP), timestamps staggered within one service time.
  std::vector<Event> initial_events() const {
    std::vector<Event> init(topo_.num_lps);
    for (std::uint32_t lp = 0; lp < topo_.num_lps; ++lp) {
      const std::uint64_t tag = mix64(cfg_.seed ^ (0xabcdull + lp));
      const double jitter =
          static_cast<double>(tag % 1024) / 1024.0 * service_[lp];
      init[lp] = Event{jitter, lp, 0, tag};
    }
    return init;
  }

 private:
  Topology topo_;
  ModelConfig cfg_;
  std::vector<double> service_;
};

/// Accumulated simulation outcome; comparable across schedulers.
struct SimResult {
  std::uint64_t processed = 0;      ///< events handled
  std::uint64_t fingerprint = 0;    ///< order-insensitive checksum (sum)
  double max_clock = 0;             ///< largest handled timestamp
  std::uint64_t cycles = 0;         ///< queue cycles (batch schedulers)
  std::uint64_t deferred = 0;       ///< unsafe deletions re-inserted
  std::uint64_t violations = 0;     ///< causality violations (relaxed queues)
  std::uint64_t sink = 0;           ///< grain-spin fold
  double seconds = 0;

  /// Semantic equality: same events processed, same outcome.
  bool same_outcome(const SimResult& o) const {
    return processed == o.processed && fingerprint == o.fingerprint;
  }
};

}  // namespace ph::sim
