// Fault-aware routing: a MinimalRouting decorator over the survivor graph.
//
// FaultAwareRouting wraps any base MinimalRouting (the PolarStar analytic
// case analysis, Dragonfly's hierarchical scheme, a plain table) and masks
// dead links/routers. While no fault is active every query forwards to the
// base untouched. Once the network is degraded:
//
//  - next_hops() first filters the base scheme's candidates down to hops
//    whose link and router are alive and that strictly decrease the
//    survivor-graph distance -- so the base scheme keeps steering wherever
//    it still routes minimally, and the result is provably loop-free (a
//    reachability-only filter would let two routers bounce a wormhole
//    between each other, corrupting VC ownership). When that filter
//    empties (the analytic case analysis would route into a hole), it
//    falls back to the survivor graph's minimal next hops, derived on
//    demand from the survivor distances. survivor_filter() is that
//    decision's one body.
//  - distance() answers from the survivor-graph distance matrix and
//    returns graph::kUnreachable for partitioned pairs.
//
// The survivor distance matrix is kept up to date incrementally: each
// commit() diffs per-link liveness against the previous epoch and hands the
// diff to graph::DistanceMatrix::update, which re-runs BFS only for the
// source rows the batch breaks (all rows on the first commit).
//
// Concurrency contract: queries (distance/next_hops/...) are const and
// thread-safe *between* epoch mutations, matching MinimalRouting's
// contract for the epoch's duration. apply()/commit() mutate and require
// exclusive access -- each Simulation owns its own private instance and
// advances it inside its single-threaded step loop, so one shared
// FaultSchedule can still drive many concurrent Simulations.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/schedule.h"
#include "graph/algorithms.h"
#include "routing/routing.h"
#include "topo/topology.h"

namespace polarstar::fault {

class FaultAwareRouting final : public routing::MinimalRouting {
 public:
  /// Both pointers must be non-null; they are co-owned.
  FaultAwareRouting(std::shared_ptr<const topo::Topology> topo,
                    std::shared_ptr<const routing::MinimalRouting> base);

  // MinimalRouting queries (const; see concurrency contract above).
  std::uint32_t distance(graph::Vertex src,
                         graph::Vertex dst) const override;
  void next_hops(graph::Vertex cur, graph::Vertex dst,
                 std::vector<graph::Vertex>& out) const override;
  std::size_t storage_entries() const override;
  std::string name() const override;

  // Epoch mutation (exclusive access required).
  /// Folds one schedule event into the fault masks; cheap. Queries between
  /// apply() and the next commit() still see the previous epoch. Throws
  /// std::invalid_argument, before changing any state, for an event that
  /// does not fit the topology (fault::check_event).
  void apply(const FaultEvent& ev);
  /// If any event was applied since the last commit: updates the survivor
  /// distances for the links whose liveness changed and bumps epoch(). Costs
  /// one BFS per source row the batch breaks, plus O(m) for the diff.
  void commit();

  /// True iff any link or router is currently failed (post-commit). When
  /// false, routing is bit-identical to the pristine base scheme.
  bool degraded() const { return degraded_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Liveness: a link is alive iff it is not explicitly failed and both
  /// endpoint routers are alive. (u, v) may be given in either order.
  bool link_alive(graph::Vertex u, graph::Vertex v) const;
  bool router_alive(graph::Vertex r) const { return router_dead_[r] == 0; }

  /// next_hops()' degraded branch, which the simulator runs over its route
  /// ports (valid only while degraded()). Calls view.keep(c) for each of
  /// the base scheme's view.candidates() whose link is alive(c) and whose
  /// neighbor(c) is strictly closer to dst on the survivor graph. If none
  /// is kept, appends the survivor graph's minimal next hops from cur to
  /// the caller's `fallback` instead (none iff dst is unreachable).
  template <typename View>
  void survivor_filter(graph::Vertex cur, graph::Vertex dst, View& view,
                       std::vector<graph::Vertex>& fallback) const {
    const std::uint32_t d_cur = dist_.distance(cur, dst);
    bool kept = false;
    for (const auto c : view.candidates()) {
      if (view.alive(c) && dist_.distance(view.neighbor(c), dst) < d_cur) {
        view.keep(c);
        kept = true;
      }
    }
    if (!kept) survivor_hops(cur, dst, fallback);
  }

 private:
  static graph::Edge canon(graph::Vertex u, graph::Vertex v) {
    return u < v ? graph::Edge{u, v} : graph::Edge{v, u};
  }
  /// Appends every survivor neighbour of cur one hop closer to dst, in
  /// sorted order (graph::for_each_closer_neighbor over the survivor
  /// graph). Out of line: it is survivor_filter's rare fallback.
  void survivor_hops(graph::Vertex cur, graph::Vertex dst,
                     std::vector<graph::Vertex>& out) const;

  std::shared_ptr<const topo::Topology> topo_;
  std::shared_ptr<const routing::MinimalRouting> base_;

  std::set<graph::Edge> failed_links_;  // canonical (u < v), explicit only
  std::vector<std::uint8_t> router_dead_;
  std::uint32_t dead_routers_ = 0;
  bool dirty_ = false;
  bool degraded_ = false;
  std::uint64_t epoch_ = 0;

  // The survivor graph and its distances as of the last commit (empty
  // before the first), and the per-link liveness they were built for, one
  // flag per topology edge in edge_list() order.
  std::vector<std::uint8_t> link_up_;
  graph::Graph survivor_;
  graph::DistanceMatrix dist_;
};

/// Factory mirroring routing/routing.h's helpers.
std::shared_ptr<FaultAwareRouting> make_fault_aware_routing(
    std::shared_ptr<const topo::Topology> topo,
    std::shared_ptr<const routing::MinimalRouting> base);

}  // namespace polarstar::fault
