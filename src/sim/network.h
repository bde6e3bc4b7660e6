// Static per-topology precomputation for the flit-level simulator: port
// numbering (link ports first, then injection/ejection per endpoint slot),
// a flattened (distance, minimal-route ports) table over router pairs
// derived from a MinimalRouting, plus per-directed-link neighbor/peer/owner
// arrays so the cycle loop never chases the shared_ptr/virtual routing
// chain per hop.
//
// The route table stores each source router's distinct routes once. A
// route is a (distance, ports in routing order) entry; pair (s, d) holds a
// 2-byte id local to row s, so a lookup is the id, then row s's entry. A
// diameter-3 network has few distinct routes per router (at most 81 on
// full Table 3 PS-IQ, against 1064 destinations), so the n x n part is 2
// bytes a pair instead of one 8-byte entry a pair plus duplicated port
// lists.
//
// The table is built one of two ways, chosen by the routing itself (the
// Network never inspects the routing's type); both feed the same
// per-row dedupe:
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
// The dedupe runs over contiguous blocks of source rows on every hardware
// thread (graph::parallel_for), so the per-pair path queries the routing
// from several threads at once, as MinimalRouting's thread-safety
// contract allows. The constructing thread joins the blocks in row order
// and allocates every array the Network keeps: the table is byte-identical
// at any thread count.
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
  /// Both pointers must be non-null (throws std::invalid_argument). A
  /// topology of more than graph::DistanceMatrix::kMaxVertices routers
  /// throws std::length_error before anything n x n is allocated.
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
    return ports_of(route(cur, dst));
  }

  /// Pristine hop distance, resolved once at construction (0xFFFF =
  /// graph::kUnreachable, the DistanceMatrix convention); bit-identical to
  /// routing().distance() but a table lookup instead of a virtual call
  /// into the analytic case analysis.
  std::uint32_t distance(graph::Vertex src, graph::Vertex dst) const {
    const std::uint16_t d = route(src, dst).dist;
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
  // One distinct route of a source row: distance plus candidate ports, 8
  // bytes. Lists of up to kInlinePorts ports (most routes of a diameter-3
  // network) sit inline; longer ones in overflow_ports_, whose offset the
  // two port slots then hold.
  static constexpr std::uint16_t kInlinePorts = 2;
  struct Route {
    std::uint16_t dist;
    std::uint16_t count;
    std::uint16_t ports[kInlinePorts];
    std::uint32_t overflow_offset() const {
      return ports[0] | static_cast<std::uint32_t>(ports[1]) << 16;
    }
    void set_overflow_offset(std::uint32_t offset) {
      ports[0] = static_cast<std::uint16_t>(offset);
      ports[1] = static_cast<std::uint16_t>(offset >> 16);
    }
  };

  const Route& route(graph::Vertex src, graph::Vertex dst) const {
    return entries_[row_base_[src] +
                    entry_id_[static_cast<std::size_t>(src) * n_ + dst]];
  }
  std::span<const std::uint16_t> ports_of(const Route& r) const {
    if (r.count <= kInlinePorts) return {r.ports, r.count};
    return {overflow_ports_.data() + r.overflow_offset(), r.count};
  }

  /// Fills the route table in row blocks on every hardware thread:
  /// route_of(s, d, scratch) returns pair (s, d)'s distance and leaves its
  /// ports in scratch.ports (a RouteScratch, network.cpp). It is called
  /// concurrently from several threads, each with its own scratch; an
  /// exception it throws reaches the constructor's caller.
  template <typename RouteOf>
  void build_routes(RouteOf&& route_of);

  std::shared_ptr<const topo::Topology> topo_;
  std::shared_ptr<const routing::MinimalRouting> routing_;
  std::uint32_t n_ = 0;
  std::vector<std::size_t> port_base_;          // size n+1
  std::size_t total_link_ports_ = 0;
  std::vector<std::uint16_t> reverse_port_;     // per directed link
  std::vector<graph::Vertex> link_neighbor_;    // per directed link
  std::vector<std::uint32_t> peer_port_;        // per directed link
  std::vector<graph::Vertex> link_router_;      // per directed link
  std::vector<std::uint16_t> entry_id_;         // n x n, local to row src
  std::vector<std::uint32_t> row_base_;         // row src's first entry
  std::vector<Route> entries_;                  // each row's distinct routes
  std::vector<std::uint16_t> overflow_ports_;   // lists past kInlinePorts
};

}  // namespace polarstar::sim
