// Simulator edge cases: link latency, packet sizes, tiny buffers, VC
// counts, indirect-topology endpoints, and phase/window accounting.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <tuple>

#include "routing/routing.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "telemetry/collectors.h"
#include "topo/fattree.h"
#include "topo/megafly.h"

namespace sim = polarstar::sim;
namespace routing = polarstar::routing;
namespace topo = polarstar::topo;
namespace g = polarstar::graph;

namespace {

class ScriptedSource final : public sim::TrafficSource {
 public:
  explicit ScriptedSource(
      std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> s)
      : sends_(std::move(s)) {}
  void tick(sim::Simulation& s) override {
    while (next_ < sends_.size() && std::get<0>(sends_[next_]) <= s.cycle()) {
      s.enqueue_packet(std::get<1>(sends_[next_]), std::get<2>(sends_[next_]));
      ++next_;
    }
  }
  void on_delivered(sim::Simulation&, const sim::PacketRecord& p) override {
    delivered.push_back(p);
  }
  bool finished(const sim::Simulation&) const override {
    return next_ >= sends_.size();
  }
  std::vector<sim::PacketRecord> delivered;

 private:
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> sends_;
  std::size_t next_ = 0;
};

topo::Topology path_topology(std::uint32_t n) {
  std::vector<g::Edge> edges;
  for (g::Vertex v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  topo::Topology t;
  t.name = "path";
  t.g = g::Graph::from_edges(n, edges);
  t.conc.assign(n, 1);
  t.finalize();
  return t;
}

}  // namespace

TEST(SimEdge, LinkLatencyAddsPerHop) {
  auto t = std::make_shared<topo::Topology>(path_topology(5));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  std::uint64_t cycles_l1 = 0;
  for (std::uint32_t latency : {1u, 3u}) {
    ScriptedSource src({{0, 0, 4}});  // 4 hops along the path
    sim::SimParams prm;
    prm.link_latency = latency;
    sim::Simulation s(net, prm, src);
    auto res = s.run_app(1000);
    ASSERT_TRUE(res.stable);
    if (latency == 1) {
      cycles_l1 = res.cycles;
    } else {
      // 4 hops x 2 extra cycles each.
      EXPECT_EQ(res.cycles, cycles_l1 + 4 * 2);
    }
  }
}

TEST(SimEdge, SingleFlitPackets) {
  auto t = std::make_shared<topo::Topology>(path_topology(4));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  ScriptedSource src({{0, 0, 3}, {0, 1, 2}, {1, 3, 0}});
  sim::SimParams prm;
  prm.packet_flits = 1;
  sim::Simulation s(net, prm, src);
  auto res = s.run_app(1000);
  EXPECT_TRUE(res.stable);
  EXPECT_EQ(src.delivered.size(), 3u);
}

TEST(SimEdge, TinyBuffersStillDeliver) {
  auto t = std::make_shared<topo::Topology>(path_topology(6));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> sends;
  for (std::uint64_t i = 0; i < 100; ++i) sends.push_back({0, i % 6, 5 - i % 6});
  ScriptedSource src(sends);
  sim::SimParams prm;
  prm.vc_buffer_flits = 4;  // exactly one packet per VC buffer
  sim::Simulation s(net, prm, src);
  auto res = s.run_app(50000);
  EXPECT_TRUE(res.stable);
  EXPECT_EQ(src.delivered.size(), 100u);
}

TEST(SimEdge, BufferSmallerThanPacketStillMoves) {
  // Wormhole: a packet larger than one buffer must stream through.
  auto t = std::make_shared<topo::Topology>(path_topology(4));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  ScriptedSource src({{0, 0, 3}});
  sim::SimParams prm;
  prm.packet_flits = 8;
  prm.vc_buffer_flits = 2;
  sim::Simulation s(net, prm, src);
  auto res = s.run_app(5000);
  EXPECT_TRUE(res.stable);
  ASSERT_EQ(src.delivered.size(), 1u);
}

TEST(SimEdge, IndirectTopologyCarriersOnly) {
  auto t = std::make_shared<topo::Topology>(topo::megafly::build({3, 2, 2}));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 600;
  sim::PatternSource src(*t, sim::Pattern::kUniform, 0.15, prm.packet_flits, 5);
  sim::Simulation s(net, prm, src);
  auto res = s.run();
  EXPECT_TRUE(res.stable);
  EXPECT_GT(res.measured_packets, 50u);
  // Worst endpoint-to-endpoint route: 3 router hops.
  EXPECT_LE(res.avg_hops, 3.0);
}

TEST(SimEdge, MeasurementWindowOnlyCountsItsPackets) {
  auto t = std::make_shared<topo::Topology>(path_topology(4));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  // One packet during warmup, one during measurement.
  ScriptedSource src({{10, 0, 3}, {600, 0, 3}});
  sim::SimParams prm;
  prm.warmup_cycles = 500;
  prm.measure_cycles = 500;
  sim::Simulation s(net, prm, src);
  auto res = s.run();
  EXPECT_EQ(res.packets_delivered, 2u);
  EXPECT_EQ(res.measured_packets, 1u);
}

TEST(SimEdge, RejectsHugeLatencies) {
  // The link and credit pipelines hold one slot per cycle of latency: a
  // latency past 65535 is rejected before any ring is sized (at 2^32 - 1
  // the ring depth latency + 1 would wrap to 0).
  auto t = std::make_shared<topo::Topology>(path_topology(3));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  ScriptedSource src({});
  for (std::uint32_t latency : {65536u, 4294967295u}) {
    sim::SimParams link;
    link.link_latency = latency;
    EXPECT_THROW(sim::Simulation(net, link, src), std::invalid_argument);
    sim::SimParams credit;
    credit.credit_latency = latency;
    EXPECT_THROW(sim::Simulation(net, credit, src), std::invalid_argument);
  }
  sim::SimParams edge;
  edge.link_latency = 65535;
  edge.credit_latency = 65535;
  EXPECT_NO_THROW(sim::Simulation(net, edge, src));
}

TEST(SimEdge, RejectsOverflowingRunWindow) {
  // The run ends at warmup + measure + drain cycles; a sum that wraps past
  // 2^64 - 1 would end before measuring anything, so it is rejected.
  auto t = std::make_shared<topo::Topology>(path_topology(3));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  ScriptedSource src({});
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (int which = 0; which < 3; ++which) {
    sim::SimParams prm;
    prm.warmup_cycles = which == 0 ? kMax : 100;
    prm.measure_cycles = which == 1 ? kMax - 99 : 100;
    prm.drain_cycles = which == 2 ? kMax - 199 : 100;
    EXPECT_THROW(sim::Simulation(net, prm, src), std::invalid_argument)
        << which;
  }
  sim::SimParams edge;
  edge.warmup_cycles = 100;
  edge.measure_cycles = 100;
  edge.drain_cycles = kMax - 200;
  EXPECT_NO_THROW(sim::Simulation(net, edge, src));
}

TEST(SimEdge, CreditLatencySlowsTightBuffers) {
  // With one-packet buffers, delayed credits throttle the pipeline; with
  // roomy buffers the effect at low load is negligible.
  auto t = std::make_shared<topo::Topology>(path_topology(6));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  auto run_once = [&](std::uint32_t credit_latency,
                      std::uint32_t buf) -> std::uint64_t {
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> sends;
    for (std::uint64_t i = 0; i < 50; ++i) sends.push_back({0, 0, 5});
    ScriptedSource src(sends);
    sim::SimParams prm;
    prm.credit_latency = credit_latency;
    prm.vc_buffer_flits = buf;
    sim::Simulation s(net, prm, src);
    auto res = s.run_app(100000);
    EXPECT_TRUE(res.stable);
    return res.cycles;
  };
  EXPECT_GT(run_once(6, 4), run_once(0, 4));
  // All flits queue behind each other regardless when buffers are large.
  EXPECT_LE(run_once(6, 64), run_once(6, 4));
}

TEST(SimEdge, LinkUtilizationTelemetry) {
  auto t = std::make_shared<topo::Topology>(path_topology(4));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  sim::SimParams prm;
  prm.warmup_cycles = 0;
  prm.measure_cycles = 2000;
  prm.drain_cycles = 100;
  polarstar::telemetry::LinkHistogramCollector links;
  sim::PatternSource src(*t, sim::Pattern::kUniform, 0.1, prm.packet_flits, 3);
  sim::Simulation s(net, prm, src, &links);
  s.run();
  ASSERT_EQ(links.totals().size(), net.total_link_ports());
  std::uint64_t total = 0;
  for (auto f : links.totals()) total += f;
  EXPECT_GT(total, 0u);
  // The middle links carry the most transit traffic on a path graph.
  const auto mid = links.totals()[net.link_index(1, net.port_toward(1, 2))];
  const auto edge = links.totals()[net.link_index(0, net.port_toward(0, 1))];
  EXPECT_GE(mid + 50, edge);
}

TEST(SimEdge, ParanoidInvariantsHoldUnderLoad) {
  // Credit conservation, wormhole contiguity and VC exclusivity verified
  // every cycle across a saturating run with delayed credits and links.
  auto t = std::make_shared<topo::Topology>(topo::megafly::build({3, 2, 2}));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 600;
  prm.drain_cycles = 1500;
  prm.paranoid_checks = true;
  prm.credit_latency = 2;
  prm.link_latency = 2;
  prm.vc_buffer_flits = 8;
  sim::PatternSource src(*t, sim::Pattern::kUniform, 0.8, prm.packet_flits, 3);
  sim::Simulation s(net, prm, src);
  EXPECT_NO_THROW({ auto res = s.run(); (void)res; });
}

TEST(SimEdge, ParanoidInvariantsHoldWithUgal) {
  auto t = std::make_shared<topo::Topology>(topo::fattree::build({4}));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 500;
  prm.paranoid_checks = true;
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 10;
  sim::PatternSource src(*t, sim::Pattern::kUniform, 0.3, prm.packet_flits, 5);
  sim::Simulation s(net, prm, src);
  EXPECT_NO_THROW({ auto res = s.run(); (void)res; });
}

TEST(SimEdge, TwoVcsSufficeForTwoHopPaths) {
  auto t = std::make_shared<topo::Topology>(path_topology(3));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  sim::SimParams prm;
  prm.num_vcs = 2;
  prm.warmup_cycles = 100;
  prm.measure_cycles = 400;
  sim::PatternSource src(*t, sim::Pattern::kUniform, 0.2, prm.packet_flits, 3);
  sim::Simulation s(net, prm, src);
  auto res = s.run();
  EXPECT_TRUE(res.stable);
  EXPECT_FALSE(res.deadlock);
}
