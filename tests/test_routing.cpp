// Routing layer tests: table routing consistency, storage accounting, and
// UGAL-L path selection behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>

#include "core/polarstar.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "routing/ugal.h"
#include "topo/dragonfly.h"
#include "topo/hyperx.h"

namespace routing = polarstar::routing;
namespace g = polarstar::graph;

TEST(TableRouting, HopsDecreaseDistance) {
  auto t = polarstar::topo::dragonfly::build({4, 2, 2});
  routing::TableRouting r(t.g);
  std::vector<g::Vertex> hops;
  for (g::Vertex s = 0; s < t.num_routers(); ++s) {
    for (g::Vertex d = 0; d < t.num_routers(); ++d) {
      if (s == d) {
        EXPECT_EQ(r.distance(s, d), 0u);
        continue;
      }
      hops.clear();
      r.next_hops(s, d, hops);
      ASSERT_FALSE(hops.empty());
      for (g::Vertex w : hops) EXPECT_EQ(r.distance(w, d) + 1, r.distance(s, d));
    }
  }
  EXPECT_GT(r.storage_entries(), 0u);
}

TEST(TableRouting, DisconnectedPairsReportUnreachable) {
  // Two disjoint triangles: the table stores uint16 sentinels internally,
  // but distance() must widen them to the canonical graph::kUnreachable
  // (the fault layer compares against it to detect partitioned pairs).
  auto graph = g::Graph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  routing::TableRouting r(graph);
  EXPECT_EQ(r.distance(0, 1), 1u);
  EXPECT_EQ(r.distance(0, 3), g::kUnreachable);
  EXPECT_EQ(r.distance(5, 2), g::kUnreachable);
  std::vector<g::Vertex> hops;
  r.next_hops(0, 3, hops);
  EXPECT_TRUE(hops.empty());
}

TEST(TableRouting, MatchesAnalyticOnPolarStar) {
  auto ps = std::make_shared<const polarstar::core::PolarStar>(
      polarstar::core::PolarStar::build(
          {4, 3, polarstar::core::SupernodeKind::kInductiveQuad, 0}));
  routing::TableRouting table(ps->graph());
  routing::PolarStarAnalyticRouting analytic(ps);
  std::vector<g::Vertex> ht, ha;
  for (g::Vertex s = 0; s < ps->graph().num_vertices(); s += 3) {
    for (g::Vertex d = 0; d < ps->graph().num_vertices(); d += 7) {
      EXPECT_EQ(table.distance(s, d), analytic.distance(s, d));
      if (s == d) continue;
      ht.clear();
      ha.clear();
      table.next_hops(s, d, ht);
      analytic.next_hops(s, d, ha);
      std::sort(ht.begin(), ht.end());
      std::sort(ha.begin(), ha.end());
      EXPECT_EQ(ht, ha);
    }
  }
  // The analytic router's storage is much smaller.
  EXPECT_LT(analytic.storage_entries(), table.storage_entries() / 10);
}

TEST(DragonflyRouting, HierarchicalPaths) {
  auto t = std::make_shared<const polarstar::topo::Topology>(
      polarstar::topo::dragonfly::build({6, 3, 2}));
  routing::DragonflyRouting r(t);
  routing::TableRouting graph_min(t->g);
  std::vector<g::Vertex> hops;
  for (g::Vertex s = 0; s < t->num_routers(); s += 7) {
    for (g::Vertex d = 0; d < t->num_routers(); d += 5) {
      // Hierarchical distance is at least the graph distance, at most 3.
      EXPECT_GE(r.distance(s, d), graph_min.distance(s, d));
      EXPECT_LE(r.distance(s, d), 3u);
      if (s == d) continue;
      hops.clear();
      r.next_hops(s, d, hops);
      ASSERT_EQ(hops.size(), 1u);  // a unique hierarchical path
      EXPECT_TRUE(t->g.has_edge(s, hops[0]));
      EXPECT_EQ(r.distance(hops[0], d) + 1, r.distance(s, d));
    }
  }
  // Storage: one gateway entry per group pair, far below full tables.
  EXPECT_LT(r.storage_entries(), graph_min.storage_entries() / 20);
}

TEST(DragonflyRouting, AllInterGroupTrafficCrossesTheDirectLink) {
  auto t = std::make_shared<const polarstar::topo::Topology>(
      polarstar::topo::dragonfly::build({4, 2, 1}));
  routing::DragonflyRouting r(t);
  // Walk every pair between groups 0 and 1: the global hop is the same
  // link every time.
  std::set<std::pair<g::Vertex, g::Vertex>> global_links;
  std::vector<g::Vertex> hops;
  for (g::Vertex s = 0; s < 4; ++s) {        // group 0
    for (g::Vertex d = 4; d < 8; ++d) {      // group 1
      g::Vertex cur = s;
      while (cur != d) {
        hops.clear();
        r.next_hops(cur, d, hops);
        if (t->group_of[cur] != t->group_of[hops[0]]) {
          global_links.insert({cur, hops[0]});
        }
        cur = hops[0];
      }
    }
  }
  EXPECT_EQ(global_links.size(), 1u);
}

TEST(DragonflyRouting, RejectsNonDragonfly) {
  auto hx = std::make_shared<const polarstar::topo::Topology>(
      polarstar::topo::hyperx::build({{3, 3, 3}, 1}));
  EXPECT_THROW(routing::DragonflyRouting r(hx), std::invalid_argument);
}

TEST(Ugal, PicksMinimalWhenUncongested) {
  auto t = polarstar::topo::dragonfly::build({4, 2, 2});
  routing::TableRouting r(t.g);
  routing::UgalSelector sel(r, t.num_routers(), 4);
  std::mt19937_64 rng(1);
  auto zero = [](g::Vertex, g::Vertex) { return 0.0; };
  for (g::Vertex s = 0; s < 10; ++s) {
    for (g::Vertex d = 20; d < 30; ++d) {
      auto c = sel.select(s, d, zero, rng);
      EXPECT_FALSE(c.valiant);
      EXPECT_EQ(c.hops, r.distance(s, d));
      // Decision context: with no queues every cost is the hop count.
      EXPECT_EQ(c.min_hops, r.distance(s, d));
      EXPECT_EQ(c.min_cost, static_cast<double>(c.min_hops));
      EXPECT_EQ(c.cost, c.min_cost);
      EXPECT_LE(c.candidates_evaluated, 4u);
    }
  }
}

TEST(Ugal, DivertsWhenMinimalPathCongested) {
  auto t = polarstar::topo::dragonfly::build({4, 2, 2});
  routing::TableRouting r(t.g);
  routing::UgalSelector sel(r, t.num_routers(), 8);
  std::mt19937_64 rng(1);
  // Minimal first hops from src 0 are heavily congested; everything else
  // free. UGAL should misroute for far destinations.
  std::vector<g::Vertex> min_hops;
  const g::Vertex src = 0, dst = t.num_routers() - 1;
  r.next_hops(src, dst, min_hops);
  auto occ = [&](g::Vertex rr, g::Vertex next) {
    if (rr != src) return 0.0;
    for (g::Vertex m : min_hops) {
      if (next == m) return 50.0;
    }
    return 0.0;
  };
  int diverted = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto c = sel.select(src, dst, occ, rng);
    if (c.valiant) ++diverted;
    EXPECT_LE(c.candidates_evaluated, 8u);
    EXPECT_EQ(c.min_hops, r.distance(src, dst));
    EXPECT_LE(c.cost, c.min_cost);
  }
  EXPECT_GT(diverted, 10);
}

TEST(Ugal, ValiantHopsAreSumOfLegs) {
  auto t = polarstar::topo::dragonfly::build({4, 2, 2});
  routing::TableRouting r(t.g);
  routing::UgalSelector sel(r, t.num_routers(), 4);
  std::mt19937_64 rng(7);
  auto heavy = [](g::Vertex, g::Vertex) { return 100.0; };
  // With uniform congestion the shortest total path still wins; hops field
  // must be consistent either way.
  auto c = sel.select(0, t.num_routers() - 1, heavy, rng);
  EXPECT_LE(c.candidates_evaluated, 4u);
  EXPECT_EQ(c.min_hops, r.distance(0, t.num_routers() - 1));
  if (c.valiant) {
    EXPECT_EQ(c.hops,
              r.distance(0, c.intermediate) +
                  r.distance(c.intermediate, t.num_routers() - 1));
  } else {
    EXPECT_EQ(c.hops, r.distance(0, t.num_routers() - 1));
  }
}
