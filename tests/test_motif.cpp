// Motif engine tests: step semantics (exchange vs wavefront), allreduce and
// sweep3d program shapes, message counts, and end-to-end completion on the
// simulator with scaling sanity checks.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/polarstar.h"
#include "motif/allreduce.h"
#include "motif/sweep3d.h"
#include "routing/routing.h"
#include "sim/simulation.h"
#include "topo/dragonfly.h"
#include "topo/fattree.h"

namespace motif = polarstar::motif;
namespace sim = polarstar::sim;
namespace routing = polarstar::routing;
namespace topo = polarstar::topo;
namespace g = polarstar::graph;

namespace {

sim::SimResult run_motif(std::shared_ptr<const topo::Topology> t,
                         std::shared_ptr<const routing::MinimalRouting> r,
                         motif::StepProgram& prog,
                         std::uint32_t num_vcs = 4) {
  sim::Network net(std::move(t), std::move(r));
  sim::SimParams prm;
  prm.num_vcs = num_vcs;
  sim::Simulation s(net, prm, prog);
  return s.run_app(2'000'000);
}

topo::Topology ring_topology(std::uint32_t n, std::uint32_t p) {
  std::vector<g::Edge> edges;
  for (g::Vertex v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  topo::Topology t;
  t.name = "ring";
  t.g = g::Graph::from_edges(n, edges);
  t.conc.assign(n, p);
  t.finalize();
  return t;
}

}  // namespace

TEST(Motif, Pow2Floor) {
  EXPECT_EQ(motif::pow2_floor(1), 1u);
  EXPECT_EQ(motif::pow2_floor(2), 2u);
  EXPECT_EQ(motif::pow2_floor(63), 32u);
  EXPECT_EQ(motif::pow2_floor(64), 64u);
  EXPECT_EQ(motif::pow2_floor(65), 64u);
}

TEST(Motif, AllreduceRecursiveDoublingCompletes) {
  auto t = std::make_shared<topo::Topology>(ring_topology(8, 2));  // 16 endpoints
  auto r = routing::make_table_routing(t->g);
  auto prog = motif::make_allreduce(16, 2, 3,
                                    motif::AllreduceAlgorithm::kRecursiveDoubling);
  auto res = run_motif(t, r, prog);
  EXPECT_TRUE(res.stable);
  // 16 ranks x log2(16)=4 rounds x 3 iterations, one message each.
  EXPECT_EQ(prog.messages_sent(), 16u * 4 * 3);
  EXPECT_EQ(res.packets_delivered, prog.messages_sent() * 2);
}

TEST(Motif, AllreduceRejectsNonPowerOfTwo) {
  EXPECT_THROW(motif::make_allreduce(
                   12, 1, 1, motif::AllreduceAlgorithm::kRecursiveDoubling),
               std::invalid_argument);
}

TEST(Motif, RingAllreduceCompletes) {
  auto t = std::make_shared<topo::Topology>(ring_topology(6, 2));  // 12 endpoints
  auto r = routing::make_table_routing(t->g);
  auto prog =
      motif::make_allreduce(12, 1, 2, motif::AllreduceAlgorithm::kRing);
  auto res = run_motif(t, r, prog);
  EXPECT_TRUE(res.stable);
  EXPECT_EQ(prog.messages_sent(), 12u * 22 * 2);  // 2(R-1) rounds
}

TEST(Motif, SweepWavefrontOrdering) {
  // On a 2x2 grid, the first (+,+) sweep must start only at rank 0; its
  // completion time is bounded below by the chain 0 -> {1,2} -> 3.
  auto t = std::make_shared<topo::Topology>(ring_topology(4, 1));
  auto r = routing::make_table_routing(t->g);
  auto prog = motif::make_sweep3d(2, 2, 4, 1);
  auto res = run_motif(t, r, prog);
  EXPECT_TRUE(res.stable);
  // 4 sweeps x (2 sends for corner + 1 send for each edge rank + 0 for last)
  // = 4 x (2 + 1 + 1 + 0) messages.
  EXPECT_EQ(prog.messages_sent(), 16u);
  // Each sweep is at least 2 sequential message transmissions deep.
  EXPECT_GT(res.cycles, 4u * 2 * 4);
}

TEST(Motif, SweepLargerGridMoreCycles) {
  auto t4 = std::make_shared<topo::Topology>(ring_topology(16, 1));
  auto r4 = routing::make_table_routing(t4->g);
  auto p1 = motif::make_sweep3d(4, 4, 2, 1);
  auto res4 = run_motif(t4, r4, p1);
  auto p2 = motif::make_sweep3d(4, 4, 2, 3);
  auto res4x3 = run_motif(t4, r4, p2);
  EXPECT_TRUE(res4.stable);
  EXPECT_TRUE(res4x3.stable);
  // 3 iterations take roughly 3x one iteration (sequential dependency).
  EXPECT_GT(res4x3.cycles, 2 * res4.cycles);
}

TEST(Motif, MessageSizeIncreasesCompletionTime) {
  auto t = std::make_shared<topo::Topology>(ring_topology(8, 2));
  auto r = routing::make_table_routing(t->g);
  auto small = motif::make_allreduce(16, 1, 1,
                                     motif::AllreduceAlgorithm::kRecursiveDoubling);
  auto big = motif::make_allreduce(16, 16, 1,
                                   motif::AllreduceAlgorithm::kRecursiveDoubling);
  auto rs = run_motif(t, r, small);
  auto rb = run_motif(t, r, big);
  EXPECT_TRUE(rs.stable);
  EXPECT_TRUE(rb.stable);
  EXPECT_GT(rb.cycles, rs.cycles * 2);
}

TEST(Motif, AllreduceOnPolarStarAndDragonfly) {
  // End-to-end smoke: the Fig 11 comparison machinery works on real
  // topologies and adaptive routing completes too.
  auto ps = std::make_shared<const polarstar::core::PolarStar>(
      polarstar::core::PolarStar::build(
          {3, 3, polarstar::core::SupernodeKind::kInductiveQuad, 2}));
  auto rps = routing::make_polarstar_routing(ps);
  auto prog = motif::make_allreduce(
      128, 4, 2, motif::AllreduceAlgorithm::kRecursiveDoubling);
  auto res_ps = run_motif(polarstar::core::shared_topology(ps), rps, prog);
  EXPECT_TRUE(res_ps.stable);

  auto df = std::make_shared<topo::Topology>(topo::dragonfly::build({4, 2, 2}));
  auto rdf = routing::make_table_routing(df->g);
  auto prog2 = motif::make_allreduce(
      64, 4, 2, motif::AllreduceAlgorithm::kRecursiveDoubling);
  auto res_df = run_motif(df, rdf, prog2);
  EXPECT_TRUE(res_df.stable);
  EXPECT_GT(res_df.cycles, 0u);
}

TEST(Motif, BinomialTreeAllreduceCompletes) {
  auto t = std::make_shared<topo::Topology>(ring_topology(8, 2));
  auto r = routing::make_table_routing(t->g);
  auto prog = motif::make_allreduce(16, 2, 2,
                                    motif::AllreduceAlgorithm::kBinomialTree);
  auto res = run_motif(t, r, prog);
  EXPECT_TRUE(res.stable);
  // Reduce + broadcast each move R-1 messages per iteration.
  EXPECT_EQ(prog.messages_sent(), 2u * 15 * 2);
}

TEST(Motif, BinomialTreeVsRecursiveDoublingMessageCounts) {
  // Recursive doubling moves R*log2(R) messages per iteration, the
  // binomial tree only 2(R-1): tree allreduce is bandwidth-lean but pays
  // 2x the phase latency. Completion-time ordering is topology- and
  // congestion-dependent, so assert the structural counts.
  auto t = std::make_shared<topo::Topology>(ring_topology(16, 2));
  auto r = routing::make_table_routing(t->g);
  auto rd = motif::make_allreduce(
      32, 4, 3, motif::AllreduceAlgorithm::kRecursiveDoubling);
  auto bt = motif::make_allreduce(32, 4, 3,
                                  motif::AllreduceAlgorithm::kBinomialTree);
  auto res_rd = run_motif(t, r, rd);
  auto res_bt = run_motif(t, r, bt);
  EXPECT_TRUE(res_rd.stable);
  EXPECT_TRUE(res_bt.stable);
  EXPECT_EQ(rd.messages_sent(), 32u * 5 * 3);
  EXPECT_EQ(bt.messages_sent(), 2u * 31 * 3);
  EXPECT_GT(rd.messages_sent(), bt.messages_sent());
}

TEST(Motif, UniformStepCountEnforced) {
  motif::StepProgram prog(2, 1);
  prog.set_program(0, {{{1}, 1}});
  EXPECT_THROW(prog.set_program(1, {{{0}, 1}, {{0}, 1}}),
               std::invalid_argument);
}

TEST(Motif, MoreRanksThanEndpointsRejected) {
  // 64 ranks on 16 endpoints: rank i = endpoint i would write past the
  // simulator's per-endpoint queues.
  auto t = std::make_shared<topo::Topology>(ring_topology(8, 2));
  auto r = routing::make_table_routing(t->g);
  auto prog = motif::make_allreduce(
      64, 1, 1, motif::AllreduceAlgorithm::kRecursiveDoubling);
  EXPECT_THROW(run_motif(t, r, prog), std::invalid_argument);
}
