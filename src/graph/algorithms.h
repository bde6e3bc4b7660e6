// Graph algorithms used throughout the library: BFS distances, diameter,
// average shortest path length, connectivity, and minimal-path next-hop
// tables for routing.
//
// Whole-graph sweeps (diameter, APL, distance matrices, next-hop tables)
// fan source rows out over a small thread pool; results are deterministic
// regardless of thread count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace polarstar::graph {

inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// BFS hop distances from src; unreachable vertices get kUnreachable.
std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex src);

/// Component id per vertex (0-based, BFS order) and the component count.
std::pair<std::vector<std::uint32_t>, std::uint32_t> connected_components(
    const Graph& g);

bool is_connected(const Graph& g);

struct PathStats {
  /// Max finite distance over reachable pairs. 0 for n <= 1.
  std::uint32_t diameter = 0;
  /// Mean distance over ordered reachable pairs (excluding self-pairs).
  double avg_path_length = 0.0;
  /// True iff every pair is reachable.
  bool connected = false;
  /// Histogram of distances: hops[d] = number of ordered pairs at distance d.
  std::vector<std::uint64_t> distance_histogram;
};

/// Diameter + APL in one parallel all-sources BFS sweep.
/// `num_threads` 0 means hardware concurrency.
PathStats path_stats(const Graph& g, unsigned num_threads = 0);

/// Convenience wrappers.
std::uint32_t diameter(const Graph& g);
double avg_path_length(const Graph& g);

/// The minimal-routing rule, one body: calls emit(i) for each index i of
/// `nbrs`, in order, whose vertex is one hop closer to the destination --
/// dist(nbrs[i]) + 1 == d, where d is the current vertex's distance to it
/// and dist maps a vertex to its distance to the same destination
/// (kUnreachable for none). Emits nothing when d is 0 or kUnreachable.
/// MinimalNextHops, the fault layer's survivor fallback, the analytic
/// PolarStar routing and sim::Network's route table all call this.
/// Neighbours are tested 64 at a time into a bit mask, without a branch
/// per neighbour, and the mask's bits are then emitted in ascending order.
template <typename Dist, typename Emit>
void for_each_closer_neighbor(std::span<const Vertex> nbrs, std::uint32_t d,
                              Dist&& dist, Emit&& emit) {
  if (d == 0 || d == kUnreachable) return;
  const auto deg = static_cast<std::uint32_t>(nbrs.size());
  for (std::uint32_t base = 0; base < deg; base += 64) {
    const std::uint32_t end = std::min(base + 64, deg);
    std::uint64_t closer = 0;
    for (std::uint32_t i = base; i < end; ++i) {
      closer |= std::uint64_t{dist(nbrs[i]) + 1 == d} << (i - base);
    }
    for (; closer != 0; closer &= closer - 1) {
      emit(base + static_cast<std::uint32_t>(std::countr_zero(closer)));
    }
  }
}

/// For each (src, dst): distance table. n^2 entries of uint16; only suitable
/// for graphs up to a few thousand vertices (all simulated configs qualify).
/// A graph of more than 0xFFFF vertices throws std::length_error before
/// anything is allocated, which keeps every finite distance below the
/// unreachable marker 0xFFFF.
class DistanceMatrix {
 public:
  /// An empty matrix (size 0): its first update() is a full sweep.
  DistanceMatrix() = default;
  explicit DistanceMatrix(const Graph& g, unsigned num_threads = 0) {
    update(g, {}, {}, num_threads);
  }

  /// Brings the matrix up to date with `g` after an edge batch: `removed`
  /// and `added` (either orientation) must cover every edge that left or
  /// joined the graph the matrix last described; extra entries only cost
  /// time. A source row is kept iff its old distances are still a BFS
  /// certificate on g -- every vertex that lost an edge into its parent
  /// layer keeps a neighbour one hop closer, and every added edge joins
  /// vertices at most one layer apart (unreachable counting as infinity)
  /// -- and re-runs BFS otherwise. A matrix of another size (an empty
  /// one) re-runs every row. The result equals DistanceMatrix(g) exactly.
  /// Returns the number of rows re-run. `num_threads` 0 means hardware
  /// concurrency. Throws std::length_error, leaving the matrix unchanged,
  /// for a graph of more than kMaxVertices vertices.
  std::size_t update(const Graph& g, std::span<const Edge> removed,
                     std::span<const Edge> added, unsigned num_threads = 0);

  std::uint16_t at(Vertex src, Vertex dst) const {
    return dist_[static_cast<std::size_t>(src) * n_ + dst];
  }
  /// at() widened, with kUnreachable for partitioned pairs.
  std::uint32_t distance(Vertex src, Vertex dst) const {
    const std::uint16_t d = at(src, dst);
    return d == kNone ? kUnreachable : d;
  }
  Vertex size() const { return n_; }

  /// The largest graph a matrix holds: a finite distance is below n.
  static constexpr Vertex kMaxVertices = 0xFFFF;

 private:
  static constexpr std::uint16_t kNone = 0xFFFF;  // unreachable

  bool certified(const Graph& g, Vertex src, std::span<const Edge> removed,
                 std::span<const Edge> added) const;

  Vertex n_ = 0;
  std::vector<std::uint16_t> dist_;
};

/// All minimal next hops: next(src, dst) = every neighbor w of src with
/// dist(w, dst) == dist(src, dst) - 1 (for_each_closer_neighbor). This is
/// the "all minpaths stored in a routing table" scheme the paper
/// attributes to Spectralfly/Bundlefly. Built on every hardware thread;
/// the table is identical at any thread count.
class MinimalNextHops {
 public:
  MinimalNextHops(const Graph& g, const DistanceMatrix& dist);

  std::span<const Vertex> next_hops(Vertex src, Vertex dst) const {
    auto [b, e] = ranges_[static_cast<std::size_t>(src) * n_ + dst];
    return {hops_.data() + b, hops_.data() + e};
  }

  /// Total stored next-hop entries -- the routing-table storage metric.
  std::size_t storage_entries() const { return hops_.size(); }

 private:
  Vertex n_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges_;
  std::vector<Vertex> hops_;
};

/// Runs fn(i) for i in [0, n) on `num_threads` threads (0 = hardware),
/// the calling thread among them; with one thread, or n <= 1, it runs
/// inline in index order. The first exception fn throws stops further
/// indices from starting and is rethrown on the caller after every worker
/// has joined.
void parallel_for(std::size_t n, unsigned num_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace polarstar::graph
