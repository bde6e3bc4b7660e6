// Workload layer: immutable, shareable descriptions of traffic that
// instantiate into sim::TrafficSource objects.
//
// A workload::Workload is a *factory*, not a generator: it holds only the
// scenario's shape (which endpoints burst, which tenant runs which pattern,
// which collective schedule rotates) and mints a fresh TrafficSource per
// simulated point. That split is what lets one Workload drive many
// concurrent Simulations on the runlab pool -- all per-point mutable state
// (arrival clocks, cursors, phase counters) lives in the instantiated
// source, the same ownership discipline sim::Network uses for topology and
// routing.
//
// Pattern traffic is one implementation (generators.h's PatternWorkload
// wraps sim::make_pattern_source), so the paper's synthetic patterns and
// the scenario generators flow through one creation path, and the open-loop
// scenarios inject through the patterns' arrival process
// (sim::OpenLoopSource). Trace record / replay lives in trace.h.
//
// Determinism contract: every workload in this subsystem injects from
// TrafficSource::tick, which the simulator calls once per cycle before
// switch allocation -- so a run is bit-identical at any thread count, and
// a trace recorded from one run replays to the identical SimResult (see
// trace.h). Closed-loop sources
// that inject from on_delivered (the motif engines) are outside this
// contract: their injections land a phase later than a tick-time replay
// would, so recording them is not supported.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "topo/topology.h"

namespace polarstar::workload {

/// Everything a Workload needs to mint one point's TrafficSource. The
/// topology is non-owning (the caller's Network co-owns it and outlives
/// the source, per the runlab ownership rules).
struct Context {
  const topo::Topology* topo = nullptr;
  /// Offered load in flits per endpoint per cycle (the sweep axis).
  double load = 0.0;
  std::uint32_t packet_flits = 4;
  std::uint64_t seed = 1;
  /// Cycles of interest for marks() -- typically the run's actual length,
  /// known only after the point simulated. 0 = unknown (no marks).
  std::uint64_t horizon = 0;
};

/// A labeled instant on the scenario's timeline (burst start, collective
/// phase boundary, hotspot onset). The runner forwards these into the
/// exported Perfetto trace as instant events.
struct Mark {
  std::uint64_t cycle = 0;
  std::string label;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Stable scenario identifier for tables and JSON ("incast",
  /// "multi-tenant", "trace-replay", ...).
  virtual std::string name() const = 0;

  /// One-line parameter summary for JSON "workload" blocks and
  /// workload_cat; empty when the name says it all.
  virtual std::string describe() const { return {}; }

  /// Mint a fresh traffic source for one simulated point. Must be const
  /// and thread-safe: the runner calls it concurrently from pool workers.
  virtual std::unique_ptr<sim::TrafficSource> instantiate(
      const Context& ctx) const = 0;

  /// Scenario timeline marks within [0, ctx.horizon). Default: none.
  virtual std::vector<Mark> marks(const Context& ctx) const {
    (void)ctx;
    return {};
  }

  /// Nonzero switches the runner from the open-loop run() (warmup /
  /// measure / drain) to the closed-loop run_app(cap): the point simulates
  /// until the source reports finished() and the network drains, or the
  /// cap expires. Collective scenarios use this; pattern workloads keep 0.
  virtual std::uint64_t app_cycle_cap(const Context& ctx) const {
    (void)ctx;
    return 0;
  }
};

}  // namespace polarstar::workload
