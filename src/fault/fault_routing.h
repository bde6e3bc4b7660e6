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
//    falls back to the survivor graph's minimal next-hop table, rebuilt
//    once per fault epoch. survivor_filter() is that decision's one body.
//  - distance() answers from the survivor-graph distance matrix and
//    returns graph::kUnreachable for partitioned pairs.
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
#include <span>
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
  /// apply() and the next commit() still see the previous epoch.
  void apply(const FaultEvent& ev);
  /// Rebuilds the survivor table if any event was applied since the last
  /// commit; bumps epoch(). O(n * m) BFS sweep -- once per fault batch.
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
  /// is kept, returns the survivor table's hops instead (empty iff dst is
  /// unreachable); otherwise returns empty.
  template <typename View>
  std::span<const graph::Vertex> survivor_filter(graph::Vertex cur,
                                                 graph::Vertex dst,
                                                 View& view) const {
    const std::uint32_t d_cur = survivor_distance(cur, dst);
    bool kept = false;
    for (const auto c : view.candidates()) {
      if (view.alive(c) && survivor_distance(view.neighbor(c), dst) < d_cur) {
        view.keep(c);
        kept = true;
      }
    }
    if (kept) return {};
    return hops_->next_hops(cur, dst);
  }

 private:
  static graph::Edge canon(graph::Vertex u, graph::Vertex v) {
    return u < v ? graph::Edge{u, v} : graph::Edge{v, u};
  }
  std::uint32_t survivor_distance(graph::Vertex src, graph::Vertex dst) const {
    const std::uint16_t d = dist_->at(src, dst);
    return d == 0xFFFFu ? graph::kUnreachable : d;
  }

  std::shared_ptr<const topo::Topology> topo_;
  std::shared_ptr<const routing::MinimalRouting> base_;

  std::set<graph::Edge> failed_links_;  // canonical (u < v), explicit only
  std::vector<std::uint8_t> router_dead_;
  std::uint32_t dead_routers_ = 0;
  bool dirty_ = false;
  bool degraded_ = false;
  std::uint64_t epoch_ = 0;

  // Survivor table, valid iff degraded_.
  std::unique_ptr<graph::DistanceMatrix> dist_;
  std::unique_ptr<graph::MinimalNextHops> hops_;
};

/// Factory mirroring routing/routing.h's helpers.
std::shared_ptr<FaultAwareRouting> make_fault_aware_routing(
    std::shared_ptr<const topo::Topology> topo,
    std::shared_ptr<const routing::MinimalRouting> base);

}  // namespace polarstar::fault
