// Collective subsystem suite (`ctest -L collective`): the star-product
// EDST construction and its verifier, and the closed-loop collective
// engine. The load-bearing guarantees:
//
//  - verify_edsts is a real proof: it rejects shared edges, cycles,
//    wrong-size trees and edges outside the graph (property tests on
//    hand-built counterexamples).
//  - polarstar_edsts produces verified pairwise-edge-disjoint spanning
//    trees on a seed sweep of small PolarStar configs AND on every Table 3
//    PolarStar config, with at least the s + t - 2 composition guarantee.
//  - The CollectiveEngine completes broadcast / reduce / allreduce with
//    exactly the expected delivery count on every algorithm, and is
//    bit-identical to reference_impl (the perf suite extends this to the
//    engine's JSON report).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/spanning_trees.h"
#include "collective/edst.h"
#include "collective/engine.h"
#include "core/polarstar.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace analysis = polarstar::analysis;
namespace collective = polarstar::collective;
namespace core = polarstar::core;
namespace g = polarstar::graph;
namespace routing = polarstar::routing;
namespace runlab = polarstar::runlab;
namespace sim = polarstar::sim;
namespace workload = polarstar::workload;

using collective::Algorithm;
using collective::CollectiveEngine;
using collective::CollectiveSpec;
using collective::Op;

namespace {

struct Instance {
  std::shared_ptr<const core::PolarStar> ps;
  std::shared_ptr<const sim::Network> net;
  std::shared_ptr<const collective::EdstSet> trees;
};

Instance make_instance(core::PolarStarConfig cfg) {
  Instance inst;
  inst.ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  inst.net = std::make_shared<sim::Network>(
      core::shared_topology(inst.ps),
      routing::make_polarstar_routing(inst.ps));
  inst.trees = std::make_shared<const collective::EdstSet>(
      collective::polarstar_edsts(*inst.ps));
  return inst;
}

sim::SimParams app_params() {
  sim::SimParams prm;
  prm.seed = 7;
  return prm;
}

constexpr std::uint64_t kCap = 2'000'000;

sim::SimResult run_engine(const Instance& inst, const CollectiveSpec& spec,
                          std::uint32_t chunks, sim::SimParams prm,
                          std::uint64_t* deliveries = nullptr,
                          std::uint64_t* expected = nullptr) {
  CollectiveEngine eng(inst.net->topology(), spec, chunks,
                       spec.algorithm == Algorithm::kEdst ? inst.trees
                                                          : nullptr);
  sim::Simulation s(*inst.net, prm, eng);
  auto res = s.run_app(kCap);
  if (deliveries != nullptr) *deliveries = eng.deliveries();
  if (expected != nullptr) *expected = eng.expected_deliveries();
  return res;
}

void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.source.collective_json, b.source.collective_json);
}

}  // namespace

// ------------------------------------------------ verifier property tests

TEST(EdstVerifier, AcceptsGreedyPacking) {
  std::vector<g::Edge> e;
  for (g::Vertex u = 0; u < 8; ++u) {
    for (g::Vertex v = u + 1; v < 8; ++v) e.push_back({u, v});
  }
  auto graph = g::Graph::from_edges(8, e);
  auto packing = analysis::pack_spanning_trees(graph);
  ASSERT_GE(packing.trees.size(), 3u);
  auto check = collective::verify_edsts(graph, packing.trees);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(EdstVerifier, RejectsTreePairSharingAnEdge) {
  std::vector<g::Edge> e;
  for (g::Vertex u = 0; u < 4; ++u) {
    for (g::Vertex v = u + 1; v < 4; ++v) e.push_back({u, v});
  }
  auto k4 = g::Graph::from_edges(4, e);
  const collective::TreeEdges t1{{0, 1}, {1, 2}, {2, 3}};
  const collective::TreeEdges t2{{0, 1}, {0, 2}, {0, 3}};  // shares (0,1)
  auto check = collective::verify_edsts(k4, {t1, t2});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("appears in two trees"), std::string::npos)
      << check.error;
}

TEST(EdstVerifier, RejectsNonSpanningTree) {
  auto path = g::Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  auto check = collective::verify_edsts(path, {{{0, 1}, {1, 2}}});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("want 3"), std::string::npos) << check.error;
}

TEST(EdstVerifier, RejectsCyclicTree) {
  auto graph = g::Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  // Right edge count for n = 4, but a triangle + isolated vertex.
  auto check = collective::verify_edsts(graph, {{{0, 1}, {1, 2}, {0, 2}}});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("cycle"), std::string::npos) << check.error;
}

TEST(EdstVerifier, RejectsEdgeOutsideGraph) {
  auto path = g::Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  auto check = collective::verify_edsts(path, {{{0, 1}, {1, 2}, {1, 3}}});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("not in the graph"), std::string::npos)
      << check.error;
}

// ------------------------------------------- star-product EDST composition

TEST(PolarStarEdsts, SeedSweepOnSmallConfigs) {
  const std::vector<core::PolarStarConfig> configs = {
      {3, 3, core::SupernodeKind::kInductiveQuad, 0},
      {4, 3, core::SupernodeKind::kInductiveQuad, 0},
      {5, 3, core::SupernodeKind::kInductiveQuad, 0},
      {4, 4, core::SupernodeKind::kPaley, 0},
  };
  for (const auto& cfg : configs) {
    auto ps = core::PolarStar::build(cfg);
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      auto set = collective::polarstar_edsts(ps, true, seed);
      auto check = collective::verify_edsts(ps.graph(), set.trees);
      EXPECT_TRUE(check.ok)
          << "q=" << cfg.q << " seed=" << seed << ": " << check.error;
      EXPECT_GE(set.trees.size(), set.guaranteed);
      EXPECT_GE(set.guaranteed,
                set.structure_trees + set.supernode_trees - 2);
      EXPECT_EQ(set.composed_trees + set.augmented_trees, set.trees.size());
    }
  }
}

TEST(PolarStarEdsts, Table3ConfigsVerifyAndMeetTheBound) {
  // The acceptance gate: all Table 3 PolarStar configs (both paper scales)
  // carry verified pairwise-edge-disjoint spanning trees, at least the
  // composition's s + t - 2.
  const std::vector<core::PolarStarConfig> configs = {
      {5, 3, core::SupernodeKind::kInductiveQuad, 3},   // reduced PS-IQ
      {4, 4, core::SupernodeKind::kPaley, 3},           // reduced PS-Pal
      {11, 3, core::SupernodeKind::kInductiveQuad, 5},  // Table 3 PS-IQ
      {8, 6, core::SupernodeKind::kPaley, 5},           // Table 3 PS-Pal
  };
  for (const auto& cfg : configs) {
    auto ps = core::PolarStar::build(cfg);
    auto set = collective::polarstar_edsts(ps);
    auto check = collective::verify_edsts(ps.graph(), set.trees);
    EXPECT_TRUE(check.ok) << "q=" << cfg.q << ": " << check.error;
    EXPECT_GE(set.guaranteed,
              set.structure_trees + set.supernode_trees - 2);
    EXPECT_GE(set.trees.size(), set.guaranteed);
  }
}

TEST(PolarStarEdsts, DeterministicPerSeed) {
  auto ps = core::PolarStar::build(
      {4, 3, core::SupernodeKind::kInductiveQuad, 0});
  auto a = collective::polarstar_edsts(ps, true, 9);
  auto b = collective::polarstar_edsts(ps, true, 9);
  EXPECT_EQ(a.trees, b.trees);
}

TEST(RootedTree, ShapeAndErrors) {
  // Path 0-1-2-3 rooted at 1.
  auto rt = collective::root_tree({{0, 1}, {1, 2}, {2, 3}}, 4, 1);
  EXPECT_EQ(rt.parent[1], 1u);
  EXPECT_EQ(rt.parent[0], 1u);
  EXPECT_EQ(rt.parent[2], 1u);
  EXPECT_EQ(rt.parent[3], 2u);
  EXPECT_EQ(rt.depth, 2u);
  EXPECT_EQ(rt.max_fanout, 2u);
  EXPECT_THROW(collective::root_tree({{0, 1}, {2, 3}, {0, 1}}, 4, 0),
               std::invalid_argument);
  EXPECT_THROW(collective::root_tree({{0, 1}}, 4, 0), std::invalid_argument);
}

// --------------------------------------------------------------- engine

TEST(CollectiveEngine, EdstBroadcastDeliversEveryChunkEverywhere) {
  auto inst = make_instance({4, 3, core::SupernodeKind::kInductiveQuad, 1});
  const std::uint32_t n = inst.net->topology().num_routers();
  std::uint64_t got = 0, want = 0;
  auto res = run_engine(inst, {Op::kBroadcast, Algorithm::kEdst, 0}, 5,
                        app_params(), &got, &want);
  EXPECT_TRUE(res.stable);
  EXPECT_EQ(want, 5ull * (n - 1));
  EXPECT_EQ(got, want);
  EXPECT_EQ(res.packets_delivered, want);
}

TEST(CollectiveEngine, EdstReduceAndAllreduce) {
  auto inst = make_instance({4, 3, core::SupernodeKind::kInductiveQuad, 1});
  const std::uint32_t n = inst.net->topology().num_routers();
  std::uint64_t got = 0, want = 0;
  auto res = run_engine(inst, {Op::kReduce, Algorithm::kEdst, 3}, 4,
                        app_params(), &got, &want);
  EXPECT_TRUE(res.stable);
  EXPECT_EQ(want, 4ull * (n - 1));
  EXPECT_EQ(got, want);
  res = run_engine(inst, {Op::kAllreduce, Algorithm::kEdst, 0}, 4,
                   app_params(), &got, &want);
  EXPECT_TRUE(res.stable);
  EXPECT_EQ(want, 2ull * 4ull * (n - 1));
  EXPECT_EQ(got, want);
  EXPECT_NE(res.source.collective_json.find("\"reduce_done_cycle\""),
            std::string::npos);
}

TEST(CollectiveEngine, UnicastAlgorithmsComplete) {
  auto inst = make_instance({4, 3, core::SupernodeKind::kInductiveQuad, 1});
  const std::uint32_t n = inst.net->topology().num_routers();
  for (auto alg : {Algorithm::kBinomial, Algorithm::kRing}) {
    for (auto op : {Op::kBroadcast, Op::kReduce, Op::kAllreduce}) {
      std::uint64_t got = 0, want = 0;
      auto res = run_engine(inst, {op, alg, 2}, 3, app_params(), &got, &want);
      EXPECT_TRUE(res.stable)
          << collective::to_string(op) << "/" << collective::to_string(alg);
      const std::uint64_t per_phase = 3ull * (n - 1);
      EXPECT_EQ(want, op == Op::kAllreduce ? 2 * per_phase : per_phase);
      EXPECT_EQ(got, want);
    }
  }
  // Recursive doubling (allreduce-only): R = n ranks, p2 = pow2 floor.
  std::uint64_t got = 0, want = 0;
  auto res = run_engine(inst, {Op::kAllreduce, Algorithm::kRecursiveDoubling, 0},
                        3, app_params(), &got, &want);
  EXPECT_TRUE(res.stable);
  std::uint32_t p2 = 1, rounds = 0;
  while (p2 * 2 <= n) { p2 *= 2; ++rounds; }
  EXPECT_EQ(want, 3ull * (2ull * (n - p2) + std::uint64_t(p2) * rounds));
  EXPECT_EQ(got, want);
}

TEST(CollectiveEngine, InvalidSpecsThrow) {
  auto inst = make_instance({3, 3, core::SupernodeKind::kInductiveQuad, 1});
  const auto& topo = inst.net->topology();
  // Recursive doubling is allreduce-only.
  EXPECT_THROW(CollectiveEngine(
                   topo, {Op::kBroadcast, Algorithm::kRecursiveDoubling, 0}, 1),
               std::invalid_argument);
  // kEdst needs trees...
  EXPECT_THROW(CollectiveEngine(topo, {Op::kBroadcast, Algorithm::kEdst, 0}, 1),
               std::invalid_argument);
  // ...and endpoints on every router.
  polarstar::topo::Topology holey = topo;
  holey.conc[0] = 0;
  holey.finalize();
  EXPECT_THROW(
      CollectiveEngine(holey, {Op::kBroadcast, Algorithm::kEdst, 0}, 1,
                       inst.trees),
      std::invalid_argument);
  // Root out of range.
  EXPECT_THROW(
      CollectiveEngine(topo, {Op::kBroadcast, Algorithm::kBinomial,
                              topo.num_routers()}, 1),
      std::invalid_argument);
}

TEST(CollectiveEngine, BitIdenticalVsReference) {
  auto inst = make_instance({4, 3, core::SupernodeKind::kInductiveQuad, 1});
  for (auto alg : {Algorithm::kEdst, Algorithm::kBinomial}) {
    const CollectiveSpec spec{Op::kAllreduce, alg, 0};
    auto prm = app_params();
    const auto base = run_engine(inst, spec, 4, prm);
    prm.reference_impl = true;
    expect_identical(base, run_engine(inst, spec, 4, prm));
  }
}

// ------------------------------------------------------- workload/runlab

TEST(CollectiveScenario, RunsClosedLoopThroughRunPoint) {
  auto inst = make_instance({4, 3, core::SupernodeKind::kInductiveQuad, 1});
  auto wl = std::make_shared<collective::CollectiveScenario>(
      CollectiveSpec{Op::kAllreduce, Algorithm::kEdst, 0}, inst.trees);
  EXPECT_EQ(wl->name(), "collective-edst");
  EXPECT_NE(wl->describe().find("op=allreduce"), std::string::npos);
  sim::SimParams prm = app_params();
  auto res = runlab::run_point({.net = inst.net.get(),
                                .workload = wl.get(),
                                .load = 4.0,
                                .params = prm,
                                .collector = nullptr,
                                .trace = {}});
  EXPECT_TRUE(res.stable);
  // Closed-loop: the run ended at completion, not at a measure window.
  EXPECT_LT(res.cycles, prm.warmup_cycles + prm.measure_cycles);
  ASSERT_FALSE(res.source.collective_json.empty());
  EXPECT_NE(res.source.collective_json.find("\"algorithm\": \"edst\""),
            std::string::npos);
  EXPECT_NE(res.source.collective_json.find("\"completion_cycle\""),
            std::string::npos);
  // Phase marks for the Perfetto export.
  ASSERT_GE(res.source.marks.size(), 2u);
  EXPECT_EQ(res.source.marks.front().label, "collective:start");
  EXPECT_EQ(res.source.marks.back().label, "collective:done");
}

TEST(CollectiveScenario, UnicastNeedsNoTreesAndRespectsLoadAsChunks) {
  auto inst = make_instance({3, 3, core::SupernodeKind::kInductiveQuad, 1});
  collective::CollectiveScenario wl(
      CollectiveSpec{Op::kBroadcast, Algorithm::kRing, 0});
  workload::Context ctx{.topo = &inst.net->topology(),
                        .load = 2.4,
                        .packet_flits = 4,
                        .seed = 1};
  EXPECT_GT(wl.app_cycle_cap(ctx), 0u);
  auto src = wl.instantiate(ctx);
  auto* eng = dynamic_cast<CollectiveEngine*>(src.get());
  ASSERT_NE(eng, nullptr);
  // load 2.4 rounds to 2 chunks -> 2 * (R - 1) expected deliveries.
  EXPECT_EQ(eng->expected_deliveries(),
            2ull * (inst.net->topology().num_routers() - 1));
}
