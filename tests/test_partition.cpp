// Multilevel bisection (METIS substitute) tests: exact cuts on graphs with
// known minimum bisections, balance guarantees, determinism, and sanity on
// the topologies the paper partitions.
#include <gtest/gtest.h>

#include "core/polarstar.h"
#include "partition/partitioner.h"
#include "topo/dragonfly.h"

namespace part = polarstar::partition;
namespace g = polarstar::graph;

namespace {

g::Graph two_cliques_with_bridges(g::Vertex k, int bridges) {
  // Two K_k joined by `bridges` edges: minimum bisection = bridges.
  std::vector<g::Edge> edges;
  for (g::Vertex u = 0; u < k; ++u) {
    for (g::Vertex v = u + 1; v < k; ++v) {
      edges.push_back({u, v});
      edges.push_back({k + u, k + v});
    }
  }
  for (int b = 0; b < bridges; ++b) {
    edges.push_back({static_cast<g::Vertex>(b % k),
                     static_cast<g::Vertex>(k + (b * 3) % k)});
  }
  return g::Graph::from_edges(2 * k, edges);
}

}  // namespace

TEST(Partition, TwoCliquesExactCut) {
  for (int bridges : {1, 3, 5}) {
    auto graph = two_cliques_with_bridges(12, bridges);
    auto r = part::bisect(graph);
    EXPECT_EQ(r.cut_edges, static_cast<std::uint64_t>(bridges));
    EXPECT_EQ(r.side_weight[0], 12u);
    EXPECT_EQ(r.side_weight[1], 12u);
  }
}

TEST(Partition, EvenCycleCutIsTwo) {
  std::vector<g::Edge> edges;
  const g::Vertex n = 64;
  for (g::Vertex v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  auto r = part::bisect(g::Graph::from_edges(n, edges));
  EXPECT_EQ(r.cut_edges, 2u);
}

TEST(Partition, BalanceRespected) {
  auto ps = polarstar::core::PolarStar::build(
      {5, 4, polarstar::core::SupernodeKind::kInductiveQuad, 0});
  part::BisectionOptions opts;
  opts.balance_tolerance = 0.02;
  auto r = part::bisect(ps.graph(), {}, opts);
  const auto n = ps.graph().num_vertices();
  EXPECT_GE(r.side_weight[0], static_cast<std::uint64_t>(0.45 * n));
  EXPECT_GE(r.side_weight[1], static_cast<std::uint64_t>(0.45 * n));
  EXPECT_EQ(r.side_weight[0] + r.side_weight[1], n);
}

TEST(Partition, Deterministic) {
  auto t = polarstar::topo::dragonfly::build({6, 3, 0});
  auto r1 = part::bisect(t.g);
  auto r2 = part::bisect(t.g);
  EXPECT_EQ(r1.cut_edges, r2.cut_edges);
  EXPECT_EQ(r1.side, r2.side);
}

TEST(Partition, CutMatchesSideAssignment) {
  auto t = polarstar::topo::dragonfly::build({8, 4, 0});
  auto r = part::bisect(t.g);
  std::uint64_t recount = 0;
  for (auto [u, v] : t.g.edge_list()) {
    if (r.side[u] != r.side[v]) ++recount;
  }
  EXPECT_EQ(recount, r.cut_edges);
}

TEST(Partition, FractionInUnitInterval) {
  auto ps = polarstar::core::PolarStar::build(
      {4, 3, polarstar::core::SupernodeKind::kInductiveQuad, 0});
  const double f = part::bisection_fraction(ps.graph());
  EXPECT_GT(f, 0.0);
  EXPECT_LE(f, 0.5);  // a random balanced cut crosses ~half; min is below
}

TEST(Partition, WeightedVertices) {
  // Star of 4 heavy satellites around a light hub: balance must follow
  // weights, not counts.
  auto graph = g::Graph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  std::vector<std::uint64_t> w = {1, 10, 10, 10, 10};
  auto r = part::bisect(graph, w);
  EXPECT_GE(r.side_weight[0], 20u);
  EXPECT_GE(r.side_weight[1], 20u);
}

TEST(Partition, EmptyAndTinyGraphs) {
  auto r0 = part::bisect(g::Graph::from_edges(0, {}));
  EXPECT_EQ(r0.cut_edges, 0u);
  auto r1 = part::bisect(g::Graph::from_edges(2, {{0, 1}}));
  EXPECT_EQ(r1.cut_edges, 1u);
}
