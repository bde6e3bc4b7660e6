// Static per-topology precomputation for the flit-level simulator: port
// numbering (link ports first, then injection/ejection per endpoint slot),
// one flattened (distance, minimal-route ports) table over router pairs
// derived from a MinimalRouting, plus per-directed-link neighbor/peer/owner
// arrays so the cycle loop never chases the shared_ptr/virtual routing
// chain per hop.
//
// The route table is built one of two ways, chosen by the routing itself
// (the Network never inspects the routing's type):
//   - Rows. A graph-minimal routing (TableRouting, PolarStarAnalyticRouting)
//     hands over a distance matrix through
//     MinimalRouting::minimal_distances(). Pair (s, d) then gets the link
//     ports p of s, in port order, with
//     dist(neighbor_at(s, p), d) + 1 == dist(s, d)
//     (graph::for_each_closer_neighbor), which is exactly what such a
//     routing's next_hops() returns, in the same order.
//   - Pairs. Any other routing (DragonflyRouting's hierarchical scheme,
//     decorators, test adapters) returns nullptr and is asked for
//     distance() and next_hops() on every pair.
// Both give the same table for a graph-minimal routing (the `perf` ctest
// label builds every simulated family both ways and compares them).
//
// The route and distance tables are a *simulator acceleration*: the
// storage the paper compares is reported by
// MinimalRouting::storage_entries(), not by this cache. Every flattened
// answer is bit-identical to the wrapped MinimalRouting's (the `perf`
// ctest label asserts it).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "routing/routing.h"
#include "topo/topology.h"

namespace polarstar::sim {

/// Deterministic per-(flow, router) hash used to pick a single minimal
/// path: shared by the flit simulator and the flow-level model so their
/// "single-minpath" modes route identically.
inline std::uint64_t flow_path_hash(graph::Vertex src_router,
                                    graph::Vertex target, graph::Vertex r) {
  std::uint64_t h = (src_router * 0x9E3779B97F4A7C15ull + target) ^
                    (static_cast<std::uint64_t>(r) * 0xD1B54A32D192ED03ull);
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return h;
}

/// A Network shares ownership of the Topology and MinimalRouting it was
/// built from, so it can outlive every builder-side object. After
/// construction it is immutable: one Network can back any number of
/// concurrent Simulations (each Simulation holds the mutable per-run
/// state), which is what runlab::ExperimentRunner relies on.
class Network {
 public:
  /// Both pointers must be non-null (throws std::invalid_argument).
  Network(std::shared_ptr<const topo::Topology> topo,
          std::shared_ptr<const routing::MinimalRouting> routing);

  const topo::Topology& topology() const { return *topo_; }
  const routing::MinimalRouting& routing() const { return *routing_; }
  const std::shared_ptr<const topo::Topology>& topology_ptr() const {
    return topo_;
  }
  const std::shared_ptr<const routing::MinimalRouting>& routing_ptr() const {
    return routing_;
  }

  std::uint32_t num_routers() const { return n_; }

  /// Link ports of router r are 0 .. degree(r)-1 in sorted-neighbor order.
  std::uint32_t num_link_ports(graph::Vertex r) const {
    return topo_->g.degree(r);
  }
  graph::Vertex neighbor_at(graph::Vertex r, std::uint32_t port) const {
    return topo_->g.neighbors(r)[port];
  }
  /// Port index on r facing neighbor u.
  std::uint32_t port_toward(graph::Vertex r, graph::Vertex u) const;
  /// The port on neighbor_at(r, port) that faces back to r.
  std::uint32_t reverse_port(graph::Vertex r, std::uint32_t port) const {
    return reverse_port_[port_base_[r] + port];
  }

  /// Minimal-route candidate ports from cur toward dst (empty iff cur==dst).
  std::span<const std::uint16_t> route_ports(graph::Vertex cur,
                                             graph::Vertex dst) const {
    const Route& r = routes_[static_cast<std::size_t>(cur) * n_ + dst];
    if (r.count <= kInlinePorts) return {r.ports, r.count};
    return {overflow_ports_.data() + r.overflow_offset(), r.count};
  }

  /// Pristine hop distance, resolved once at construction (0xFFFF =
  /// graph::kUnreachable, the DistanceMatrix convention); bit-identical to
  /// routing().distance() but one load instead of a virtual call into the
  /// analytic case analysis.
  std::uint32_t distance(graph::Vertex src, graph::Vertex dst) const {
    const std::uint16_t d =
        routes_[static_cast<std::size_t>(src) * n_ + dst].dist;
    return d == 0xFFFFu ? graph::kUnreachable : d;
  }

  /// Neighbor at the far end of the directed link (one load; equals
  /// neighbor_at(r, port) for link == link_index(r, port)).
  graph::Vertex link_neighbor(std::size_t link) const {
    return link_neighbor_[link];
  }
  /// Flat directed-link index of the reverse direction: for link ==
  /// link_index(r, port) this is link_index(neighbor, reverse_port), i.e.
  /// the input-port index credits/buffers at the far end are keyed by.
  std::size_t peer_port(std::size_t link) const { return peer_port_[link]; }
  /// Router that owns the directed link (the r of link_index(r, port)).
  graph::Vertex link_router(std::size_t link) const {
    return link_router_[link];
  }

  /// Flat index of the directed link (r, port); used for credit state.
  std::size_t link_index(graph::Vertex r, std::uint32_t port) const {
    return port_base_[r] + port;
  }
  std::size_t total_link_ports() const { return total_link_ports_; }
  std::size_t port_base(graph::Vertex r) const { return port_base_[r]; }

 private:
  /// Stores pair (s, d)'s narrowed distance and its candidate ports.
  void set_route(graph::Vertex s, graph::Vertex d, std::uint32_t dist,
                 std::span<const std::uint16_t> ports);

  // One (src, dst) entry: distance plus candidate ports, so a lookup is
  // one 8-byte load. Lists of up to kInlinePorts ports (most pairs of a
  // diameter-3 network) sit inline; longer ones in overflow_ports_, whose
  // offset the two port slots then hold.
  static constexpr std::uint16_t kInlinePorts = 2;
  struct Route {
    std::uint16_t dist;
    std::uint16_t count;
    std::uint16_t ports[kInlinePorts];
    std::uint32_t overflow_offset() const {
      return ports[0] | static_cast<std::uint32_t>(ports[1]) << 16;
    }
  };

  std::shared_ptr<const topo::Topology> topo_;
  std::shared_ptr<const routing::MinimalRouting> routing_;
  std::uint32_t n_ = 0;
  std::vector<std::size_t> port_base_;          // size n+1
  std::size_t total_link_ports_ = 0;
  std::vector<std::uint16_t> reverse_port_;     // per directed link
  std::vector<graph::Vertex> link_neighbor_;    // per directed link
  std::vector<std::uint32_t> peer_port_;        // per directed link
  std::vector<graph::Vertex> link_router_;      // per directed link
  std::vector<Route> routes_;                   // n x n
  std::vector<std::uint16_t> overflow_ports_;
};

}  // namespace polarstar::sim
