// Deterministic fault schedules for live fault injection.
//
// A FaultSchedule is a reproducible timeline of link/router failure (and
// optional repair) events at cycle timestamps. Schedules are either given
// explicitly or generated from a seed + rate spec; generation shares the
// canonical shuffled-edge failure order with the static degradation helpers
// (fault/degrade.h) and the Fig 14 analysis, so "the first k links to fail"
// means the same thing everywhere for a given seed.
//
// The schedule itself is immutable plain data: one instance can be shared
// (by const pointer) across any number of concurrent Simulations, which is
// how runlab availability sweeps stay bit-identical at any POLARSTAR_THREADS.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "topo/topology.h"

namespace polarstar::fault {

enum class EventKind : std::uint8_t {
  kLinkDown,    ///< undirected link (a, b) fails (both directions)
  kLinkUp,      ///< previously failed link (a, b) is repaired
  kRouterDown,  ///< router a fails: all incident links + its endpoints
  kRouterUp,    ///< router a is repaired
};

/// Canonical label shared by the trace exporter and tools ("link-down",
/// "link-up", "router-down", "router-up").
const char* to_string(EventKind kind);

/// One scheduled event. For link events (a, b) is the undirected link (any
/// order); for router events a is the router and b is unused (0).
struct FaultEvent {
  std::uint64_t cycle = 0;
  EventKind kind = EventKind::kLinkDown;
  graph::Vertex a = 0;
  graph::Vertex b = 0;
};

/// Throws std::invalid_argument naming `ev` unless it fits `topo`: a router
/// event needs a < num_routers(), a link event needs (a, b) to be a link.
void check_event(const topo::Topology& topo, const FaultEvent& ev);

/// Rate spec for seeded random schedule generation (FaultSchedule::random).
struct ScheduleSpec {
  /// Fraction of the topology's links that fail, struck at evenly spaced
  /// cycles across [begin_cycle, end_cycle). The failing links are the
  /// first `fraction * |E|` of the seed's canonical shuffled edge order
  /// (the same prefix fault::degrade removes statically). Must lie in
  /// [0, 1].
  double link_fail_fraction = 0.0;
  /// Number of routers that additionally fail across the same window.
  /// Endpoint-carrying routers are preferred (they exercise packet loss);
  /// switch-only routers are drawn only when no carrier is left.
  std::uint32_t router_failures = 0;
  /// Failure window [begin_cycle, end_cycle); a single-instant window
  /// (end <= begin) strikes everything at begin_cycle.
  std::uint64_t begin_cycle = 0;
  std::uint64_t end_cycle = 0;
  /// Cycles until each failed element is repaired (0 = permanent).
  std::uint64_t repair_after = 0;
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Explicit timeline; events are stably sorted by cycle (events given at
  /// the same cycle keep their relative order and are applied as one
  /// routing epoch).
  static FaultSchedule from_events(std::vector<FaultEvent> events);

  /// Seeded random schedule over `topo` (see ScheduleSpec). Deterministic:
  /// same topology + spec + seed give the same event list. Throws
  /// std::invalid_argument for a link_fail_fraction outside [0, 1].
  static FaultSchedule random(const topo::Topology& topo,
                              const ScheduleSpec& spec, std::uint64_t seed);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace polarstar::fault
