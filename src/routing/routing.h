// Routing abstractions shared by the simulator and the analyses.
//
// A MinimalRouting answers distance / minimal-next-hop queries on the router
// graph. Implementations:
//   - TableRouting: all minimal next hops stored per (src, dst) pair -- the
//     scheme the paper says Spectralfly and Bundlefly need (large tables),
//     and the generic fallback for every baseline. On a folded Clos its
//     minimal path set coincides with fat-tree up/down routing, so FT rows
//     use it directly.
//   - PolarStarAnalyticRouting: wraps core::PolarStarRouting (table-free).
//   - DragonflyRouting (routing/dragonfly_routing.h): BookSim's
//     hierarchical local-global-local scheme.
//
// Non-minimal (Valiant / UGAL) path selection is built on top of any
// MinimalRouting by routing/ugal.h.
//
// Thread-safety contract: every MinimalRouting implementation must be
// immutable after construction -- distance()/next_hops() are const,
// mutation-free, and safe to call from many threads at once (the parallel
// ExperimentRunner shares one routing across all concurrent Simulations).
//
// Unreachable pairs: distance() returns graph::kUnreachable (the uint32
// sentinel) for a (src, dst) pair with no path -- never a narrowed stand-in
// like the DistanceMatrix's internal uint16 max -- and next_hops() appends
// nothing for such a pair. Healthy diameter-3 topologies never hit this,
// but degraded graphs (fault::degrade, live fault epochs) legitimately
// disconnect, and callers compare against graph::kUnreachable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/polarstar.h"
#include "core/polarstar_routing.h"
#include "graph/algorithms.h"

namespace polarstar::routing {

class MinimalRouting {
 public:
  virtual ~MinimalRouting() = default;

  /// Hop distance between routers.
  virtual std::uint32_t distance(graph::Vertex src,
                                 graph::Vertex dst) const = 0;

  /// Appends all neighbors of cur on minimal paths to dst.
  virtual void next_hops(graph::Vertex cur, graph::Vertex dst,
                         std::vector<graph::Vertex>& out) const = 0;

  /// Routing-state entries a router implementation would store (the §9.5
  /// storage comparison).
  virtual std::size_t storage_entries() const = 0;

  virtual std::string name() const = 0;

  /// The distance matrix of the router graph when this routing is
  /// graph-minimal, nullptr otherwise (the default). Non-null promises
  /// that distance() equals the matrix on every pair and that next_hops()
  /// appends exactly the neighbours one hop closer, in sorted-neighbour
  /// order (graph::for_each_closer_neighbor). sim::Network then derives
  /// its route table from the matrix rows instead of querying every pair.
  /// May be built on request; callers keep it only while they need it.
  virtual std::shared_ptr<const graph::DistanceMatrix> minimal_distances()
      const {
    return nullptr;
  }
};

/// All-minpath table routing over an arbitrary graph.
class TableRouting final : public MinimalRouting {
 public:
  explicit TableRouting(const graph::Graph& g)
      : dist_(std::make_shared<const graph::DistanceMatrix>(g)),
        hops_(g, *dist_) {}

  std::uint32_t distance(graph::Vertex src, graph::Vertex dst) const override {
    return dist_->distance(src, dst);
  }
  void next_hops(graph::Vertex cur, graph::Vertex dst,
                 std::vector<graph::Vertex>& out) const override {
    auto h = hops_.next_hops(cur, dst);
    out.insert(out.end(), h.begin(), h.end());
  }
  std::size_t storage_entries() const override {
    return hops_.storage_entries();
  }
  std::string name() const override { return "table-min"; }
  /// The matrix the table was derived from, shared rather than copied.
  std::shared_ptr<const graph::DistanceMatrix> minimal_distances()
      const override {
    return dist_;
  }

 private:
  std::shared_ptr<const graph::DistanceMatrix> dist_;  // init before hops_
  graph::MinimalNextHops hops_;
};

/// Table-free PolarStar routing (§9.2). Co-owns the PolarStar whose factor
/// graphs the case analysis consults, so the router can outlive every
/// builder-side object.
class PolarStarAnalyticRouting final : public MinimalRouting {
 public:
  explicit PolarStarAnalyticRouting(std::shared_ptr<const core::PolarStar> ps)
      : ps_(std::move(ps)), impl_(*ps_) {}

  std::uint32_t distance(graph::Vertex src, graph::Vertex dst) const override {
    return impl_.distance(src, dst);
  }
  void next_hops(graph::Vertex cur, graph::Vertex dst,
                 std::vector<graph::Vertex>& out) const override {
    impl_.next_hops(cur, dst, out);
  }
  std::size_t storage_entries() const override {
    return impl_.storage_entries();
  }
  std::string name() const override { return "polarstar-analytic"; }
  /// A fresh BFS matrix of the PolarStar graph, its source rows swept on
  /// every hardware thread (identical at any thread count): the analytic
  /// distance equals BFS on every pair (tests/test_routing_analytic.cpp).
  /// Built on request only; the routing itself stays table-free.
  std::shared_ptr<const graph::DistanceMatrix> minimal_distances()
      const override {
    return std::make_shared<const graph::DistanceMatrix>(ps_->graph());
  }

  const std::shared_ptr<const core::PolarStar>& polarstar() const {
    return ps_;
  }

 private:
  std::shared_ptr<const core::PolarStar> ps_;  // init before impl_
  core::PolarStarRouting impl_;
};

/// Factory helpers. Routing objects are shared_ptr-owned so a sim::Network
/// (and anything else) can co-own them; TableRouting copies everything it
/// needs out of `g` and retains no reference to it.
std::shared_ptr<const MinimalRouting> make_table_routing(const graph::Graph& g);
std::shared_ptr<const MinimalRouting> make_polarstar_routing(
    std::shared_ptr<const core::PolarStar> ps);

}  // namespace polarstar::routing
