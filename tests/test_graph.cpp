// Graph substrate tests: CSR construction, BFS, diameter/APL, components,
// distance matrices, minimal next-hop tables and parallel_for, including
// an error thrown inside a parallel sim::Network build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/graph.h"
#include "routing/routing.h"
#include "sim/network.h"
#include "topo/topology.h"

namespace g = polarstar::graph;
using g::Graph;
using g::Vertex;

namespace {

Graph path_graph(Vertex n) {
  std::vector<g::Edge> edges;
  for (Vertex v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph::from_edges(n, edges);
}

Graph cycle_graph(Vertex n) {
  std::vector<g::Edge> edges;
  for (Vertex v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  return Graph::from_edges(n, edges);
}

Graph complete_graph(Vertex n) {
  std::vector<g::Edge> edges;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph::from_edges(n, edges);
}

}  // namespace

TEST(Graph, BuildDedupesAndDropsLoops) {
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 0}, {2, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, OutOfRangeThrows) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), std::out_of_range);
}

TEST(Graph, NeighborsSorted) {
  Graph g = Graph::from_edges(5, {{3, 1}, {3, 4}, {3, 0}, {3, 2}});
  auto nb = g.neighbors(3);
  ASSERT_EQ(nb.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(Graph, EdgeListRoundTrip) {
  Graph g = cycle_graph(7);
  auto edges = g.edge_list();
  Graph h = Graph::from_edges(7, edges);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (auto [u, v] : edges) EXPECT_TRUE(h.has_edge(u, v));
}

TEST(Graph, RemoveEdges) {
  Graph g = complete_graph(5);
  Graph h = g.remove_edges({{0, 1}, {3, 2}});
  EXPECT_EQ(h.num_edges(), g.num_edges() - 2);
  EXPECT_FALSE(h.has_edge(0, 1));
  EXPECT_FALSE(h.has_edge(2, 3));
  EXPECT_TRUE(h.has_edge(0, 2));
}

TEST(Algorithms, BfsOnPath) {
  Graph g = path_graph(6);
  auto d = g::bfs_distances(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Algorithms, BfsUnreachable) {
  Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  auto d = g::bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], g::kUnreachable);
}

TEST(Algorithms, Components) {
  Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  auto [comp, count] = g::connected_components(g);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[3]);
  EXPECT_FALSE(g::is_connected(g));
  EXPECT_TRUE(g::is_connected(path_graph(4)));
}

TEST(Algorithms, PathStatsCycle) {
  // C8: diameter 4; APL = (2*(1+2+3)+4)/7 = 16/7.
  auto stats = g::path_stats(cycle_graph(8));
  EXPECT_EQ(stats.diameter, 4u);
  EXPECT_TRUE(stats.connected);
  EXPECT_NEAR(stats.avg_path_length, 16.0 / 7.0, 1e-12);
  // Histogram: 8 ordered pairs at each of distances 1,2,3; 4 at distance 4.
  ASSERT_EQ(stats.distance_histogram.size(), 5u);
  EXPECT_EQ(stats.distance_histogram[1], 16u);
  EXPECT_EQ(stats.distance_histogram[4], 8u);
}

TEST(Algorithms, PathStatsDeterministicAcrossThreadCounts) {
  std::mt19937 rng(7);
  std::vector<g::Edge> edges;
  const Vertex n = 200;
  for (int i = 0; i < 900; ++i) {
    edges.push_back({static_cast<Vertex>(rng() % n),
                     static_cast<Vertex>(rng() % n)});
  }
  for (Vertex v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  Graph g = Graph::from_edges(n, edges);
  auto s1 = g::path_stats(g, 1);
  auto s8 = g::path_stats(g, 8);
  EXPECT_EQ(s1.diameter, s8.diameter);
  EXPECT_DOUBLE_EQ(s1.avg_path_length, s8.avg_path_length);
  EXPECT_EQ(s1.distance_histogram, s8.distance_histogram);
}

TEST(Algorithms, DistanceMatrixMatchesBfs) {
  Graph g = cycle_graph(11);
  g::DistanceMatrix dm(g);
  for (Vertex s = 0; s < 11; ++s) {
    auto d = g::bfs_distances(g, s);
    for (Vertex t = 0; t < 11; ++t) EXPECT_EQ(dm.at(s, t), d[t]);
  }
}

TEST(Algorithms, DistanceMatrixUpdateRerunsOnlyBrokenRows) {
  // 8-cycle minus link (0,1): only sources 4 and 5, for which (0,1) is the
  // far edge, keep a valid row. Re-adding it breaks the same six rows.
  const Graph ring = cycle_graph(8);
  const std::vector<g::Edge> cut = {{1, 0}};
  const Graph path = ring.remove_edges(cut);
  g::DistanceMatrix dm;
  EXPECT_EQ(dm.update(ring, {}, {}, 1), 8u);  // empty: a full sweep
  EXPECT_EQ(dm.update(path, cut, {}, 1), 6u);
  const auto same = [](const g::DistanceMatrix& a, const g::DistanceMatrix& b) {
    for (Vertex s = 0; s < a.size(); ++s) {
      for (Vertex t = 0; t < a.size(); ++t) {
        if (a.at(s, t) != b.at(s, t)) return false;
      }
    }
    return a.size() == b.size();
  };
  EXPECT_TRUE(same(dm, g::DistanceMatrix(path)));
  EXPECT_EQ(dm.update(ring, {}, cut, 1), 6u);
  EXPECT_TRUE(same(dm, g::DistanceMatrix(ring)));
  // Cutting the ring in two: unreachable pairs match a fresh build too.
  const std::vector<g::Edge> halves = {{0, 1}, {4, 5}};
  const Graph split = ring.remove_edges(halves);
  dm.update(split, halves, {}, 1);
  EXPECT_TRUE(same(dm, g::DistanceMatrix(split)));
  EXPECT_EQ(dm.distance(0, 1), g::kUnreachable);
  EXPECT_EQ(dm.update(ring, {}, halves, 1), 8u);
  EXPECT_TRUE(same(dm, g::DistanceMatrix(ring)));
}

// uint16 entries cannot hold a distance of 0xFFFF (the unreachable
// marker) or more, so a graph that could have one is refused before the
// n^2 table is allocated -- an edgeless graph keeps this test cheap.
TEST(Algorithms, DistanceMatrixRefusesMoreThan0xFFFFVertices) {
  const Graph big = Graph::from_edges(0x10000, {});
  EXPECT_THROW(g::DistanceMatrix(big, 1), std::length_error);
  g::DistanceMatrix dm(cycle_graph(5), 1);
  EXPECT_THROW(dm.update(big, {}, {}, 1), std::length_error);
  EXPECT_EQ(dm.size(), 5u);  // a refused update leaves the matrix as it was
  EXPECT_EQ(dm.distance(0, 2), 2u);
}

TEST(Algorithms, MinimalNextHops) {
  Graph g = cycle_graph(6);
  g::DistanceMatrix dm(g);
  g::MinimalNextHops nh(g, dm);
  // 0 -> 2: unique minimal next hop is 1.
  auto h = nh.next_hops(0, 2);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0], 1u);
  // 0 -> 3 (antipodal): both neighbors are minimal.
  auto h2 = nh.next_hops(0, 3);
  EXPECT_EQ(h2.size(), 2u);
  // Every next hop strictly decreases distance.
  for (Vertex s = 0; s < 6; ++s) {
    for (Vertex t = 0; t < 6; ++t) {
      for (Vertex w : nh.next_hops(s, t)) {
        EXPECT_EQ(dm.at(w, t) + 1, dm.at(s, t));
      }
    }
  }
  EXPECT_GT(nh.storage_entries(), 0u);
}

// Rows far outnumber any host's threads, and the two components leave
// pairs with no path: every pair must hold exactly the neighbours one hop
// closer, in sorted-neighbour order, and an unreachable pair none.
TEST(Algorithms, MinimalNextHopsManyRowsAndDisconnectedPairs) {
  // A 300-ring with chords every 7 routers, and a separate 40-ring.
  std::vector<g::Edge> edges;
  for (Vertex v = 0; v < 300; ++v) edges.push_back({v, (v + 1) % 300});
  for (Vertex v = 0; v < 300; v += 7) edges.push_back({v, (v + 150) % 300});
  for (Vertex v = 0; v < 40; ++v) {
    edges.push_back({300 + v, 300 + (v + 1) % 40});
  }
  const Graph g = Graph::from_edges(340, edges);
  const g::DistanceMatrix dm(g);
  const g::MinimalNextHops nh(g, dm);
  std::size_t total = 0, unreachable = 0;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      std::vector<Vertex> want;
      if (dm.distance(s, t) != g::kUnreachable) {
        for (Vertex w : g.neighbors(s)) {
          if (dm.at(w, t) + 1 == dm.at(s, t)) want.push_back(w);
        }
      } else {
        ++unreachable;
      }
      const auto got = nh.next_hops(s, t);
      ASSERT_TRUE(std::ranges::equal(got, want)) << s << " -> " << t;
      total += want.size();
    }
  }
  EXPECT_EQ(unreachable, 2u * 300 * 40);
  EXPECT_EQ(nh.storage_entries(), total);
}

TEST(Algorithms, ParallelForCoversAll) {
  std::vector<std::atomic<int>> hits(100);
  g::parallel_for(100, 4, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// A throw at one index reaches the caller after every worker has joined,
// instead of terminating the process from a worker thread.
TEST(Algorithms, ParallelForRethrowsOnTheCaller) {
  std::atomic<int> ran{0};
  EXPECT_THROW(g::parallel_for(100, 4,
                               [&](std::size_t i) {
                                 ++ran;
                                 if (i == 37) throw std::runtime_error("37");
                               }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 100);
  // Inline (one thread), the throw stops the loop at its index.
  int inline_ran = 0;
  EXPECT_THROW(g::parallel_for(100, 1,
                               [&](std::size_t i) {
                                 ++inline_ran;
                                 if (i == 37) throw std::runtime_error("37");
                               }),
               std::runtime_error);
  EXPECT_EQ(inline_ran, 38);
}

namespace {

// Minimal routing on a ring, answered pair by pair (minimal_distances() is
// nullptr), except that one pair's distance is 70000: more than the
// Network's uint16 distances hold.
class OverflowingRingRouting final : public polarstar::routing::MinimalRouting {
 public:
  OverflowingRingRouting(Vertex n, Vertex bad_src, Vertex bad_dst)
      : n_(n), bad_src_(bad_src), bad_dst_(bad_dst) {}
  std::uint32_t distance(Vertex src, Vertex dst) const override {
    if (src == bad_src_ && dst == bad_dst_) return 70000;
    const Vertex fwd = (dst + n_ - src) % n_;
    return std::min(fwd, n_ - fwd);
  }
  void next_hops(Vertex cur, Vertex dst,
                 std::vector<Vertex>& out) const override {
    if (cur == dst) return;
    const Vertex fwd = (dst + n_ - cur) % n_;
    if (fwd <= n_ - fwd) out.push_back((cur + 1) % n_);
    if (fwd >= n_ - fwd) out.push_back((cur + n_ - 1) % n_);
  }
  std::size_t storage_entries() const override { return 0; }
  std::string name() const override { return "overflowing-ring"; }

 private:
  Vertex n_, bad_src_, bad_dst_;
};

}  // namespace

// The route table's "distance overflows uint16" check fires inside a row
// block, on whichever thread builds it; the Network constructor must still
// throw it to its caller. Every row block but the bad pair's is fine.
TEST(Algorithms, NetworkRethrowsARowBlocksError) {
  const Vertex n = 500;
  auto t = std::make_shared<polarstar::topo::Topology>();
  t->g = cycle_graph(n);
  t->conc.assign(n, 1);
  t->finalize();
  const std::shared_ptr<const polarstar::topo::Topology> topo = t;
  EXPECT_THROW(polarstar::sim::Network(
                   topo, std::make_shared<OverflowingRingRouting>(n, 411, 3)),
               std::logic_error);
  const polarstar::sim::Network ok(
      topo, std::make_shared<OverflowingRingRouting>(n, n, n));
  EXPECT_EQ(ok.distance(411, 3), 92u);
  EXPECT_EQ(ok.route_ports(0, 250).size(), 2u);
}
