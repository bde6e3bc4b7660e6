// Certification of the analytic (table-free) PolarStar routing of §9.2:
// the case-analysis distance must equal BFS distance for every router pair,
// and emitted next hops must be exactly the minimal ones. The distance
// check also runs on Table 3 PS-Pal, whose sim::Network route table is
// built from BFS rows on that guarantee.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/polarstar.h"
#include "core/polarstar_routing.h"
#include "graph/algorithms.h"

namespace core = polarstar::core;
namespace g = polarstar::graph;
using core::PolarStar;
using core::PolarStarRouting;
using core::SupernodeKind;

struct PsParam {
  std::uint32_t q, d_prime;
  SupernodeKind kind;
};

namespace {

void expect_distance_matches_bfs(const PsParam& prm) {
  const auto [q, dp, kind] = prm;
  auto ps = PolarStar::build({q, dp, kind, 0});
  PolarStarRouting routing(ps);
  const auto& graph = ps.graph();
  for (g::Vertex s = 0; s < graph.num_vertices(); ++s) {
    auto bfs = g::bfs_distances(graph, s);
    for (g::Vertex t = 0; t < graph.num_vertices(); ++t) {
      ASSERT_EQ(routing.distance(s, t), bfs[t])
          << "pair (" << s << ", " << t << ") q=" << q << " d'=" << dp;
    }
  }
}

}  // namespace

class AnalyticRoutingTest : public ::testing::TestWithParam<PsParam> {};

TEST_P(AnalyticRoutingTest, DistanceMatchesBfsEverywhere) {
  expect_distance_matches_bfs(GetParam());
}

TEST_P(AnalyticRoutingTest, NextHopsAreExactlyMinimal) {
  const auto [q, dp, kind] = GetParam();
  auto ps = PolarStar::build({q, dp, kind, 0});
  PolarStarRouting routing(ps);
  const auto& graph = ps.graph();
  g::DistanceMatrix dm(graph);
  std::vector<g::Vertex> hops;
  for (g::Vertex s = 0; s < graph.num_vertices(); ++s) {
    for (g::Vertex t = 0; t < graph.num_vertices(); ++t) {
      if (s == t) continue;
      hops.clear();
      routing.next_hops(s, t, hops);
      ASSERT_FALSE(hops.empty()) << s << "->" << t;
      std::vector<g::Vertex> expected;
      for (g::Vertex w : graph.neighbors(s)) {
        if (dm.at(w, t) + 1 == dm.at(s, t)) expected.push_back(w);
      }
      std::sort(hops.begin(), hops.end());
      ASSERT_EQ(hops, expected) << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AnalyticRoutingTest,
    ::testing::Values(PsParam{3, 3, SupernodeKind::kInductiveQuad},
                      PsParam{4, 3, SupernodeKind::kInductiveQuad},
                      PsParam{5, 4, SupernodeKind::kInductiveQuad},
                      PsParam{4, 7, SupernodeKind::kInductiveQuad},
                      PsParam{3, 2, SupernodeKind::kPaley},
                      PsParam{4, 4, SupernodeKind::kPaley},
                      PsParam{5, 2, SupernodeKind::kPaley},
                      PsParam{5, 6, SupernodeKind::kPaley}));

// Table 3 PS-Pal (949 routers), which the benchmark simulates.
// sim::Network builds its route table from BFS rows, which is only the
// analytic routing's table if analytic distance equals BFS on every pair
// at this scale too. Next hops follow from distance()
// (NextHopsAreExactlyMinimal above), so distances are what is pinned here.
// Table 3 PS-IQ gets the same pin, pair by pair against its BFS-row
// table, from PerfEquivalence.FlatNetworkTablesMatchVirtualRouting.
TEST(AnalyticRoutingTable3, PsPalDistanceMatchesBfsEverywhere) {
  expect_distance_matches_bfs({8, 6, SupernodeKind::kPaley});
}

TEST(AnalyticRoutingStorage, FarSmallerThanFullTables) {
  auto ps = PolarStar::build({7, 4, SupernodeKind::kInductiveQuad, 0});
  PolarStarRouting analytic(ps);
  g::DistanceMatrix dm(ps.graph());
  g::MinimalNextHops table(ps.graph(), dm);
  // The §9.5 claim: analytic routing state is orders of magnitude below
  // all-minpath tables.
  EXPECT_LT(analytic.storage_entries() * 50, table.storage_entries());
}
