// Microbenchmarks (google-benchmark) for the library's hot primitives:
// field arithmetic, topology construction, BFS sweeps, analytic routing
// decisions, partitioner, simulator cycle throughput, sim::Network
// construction (analytic and table-routed) and route lookup, and the fault
// layer's per-epoch survivor-table update.
#include <benchmark/benchmark.h>

#include "core/polarstar.h"
#include "core/polarstar_routing.h"
#include "fault/degrade.h"
#include "fault/fault_routing.h"
#include "gf/gf.h"
#include "graph/algorithms.h"
#include "partition/partitioner.h"
#include "routing/routing.h"
#include "sim/arrivals.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "topo/hyperx.h"

using namespace polarstar;

static void BM_FieldMul(benchmark::State& state) {
  gf::Field F(static_cast<std::uint32_t>(state.range(0)));
  std::uint32_t a = 1, acc = 0;
  for (auto _ : state) {
    a = a % (F.q() - 1) + 1;
    acc ^= F.mul(a, F.primitive_element());
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_FieldMul)->Arg(7)->Arg(64)->Arg(121);

static void BM_BuildEr(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto er = topo::ErGraph::build(q);
    benchmark::DoNotOptimize(er.g.num_edges());
  }
}
BENCHMARK(BM_BuildEr)->Arg(7)->Arg(11)->Arg(19);

static void BM_BuildPolarStar(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto ps = core::PolarStar::build(
        {q, 3, core::SupernodeKind::kInductiveQuad, 0});
    benchmark::DoNotOptimize(ps.graph().num_edges());
  }
}
BENCHMARK(BM_BuildPolarStar)->Arg(5)->Arg(7)->Arg(11);

static void BM_PathStats(benchmark::State& state) {
  auto ps = core::PolarStar::build(
      {static_cast<std::uint32_t>(state.range(0)), 3,
       core::SupernodeKind::kInductiveQuad, 0});
  for (auto _ : state) {
    auto stats = graph::path_stats(ps.graph());
    benchmark::DoNotOptimize(stats.diameter);
  }
}
BENCHMARK(BM_PathStats)->Arg(5)->Arg(7)->Arg(11);

static void BM_AnalyticRouteDecision(benchmark::State& state) {
  auto ps = core::PolarStar::build(
      {7, 4, core::SupernodeKind::kInductiveQuad, 0});
  core::PolarStarRouting routing(ps);
  const auto n = ps.graph().num_vertices();
  std::vector<graph::Vertex> hops;
  std::uint64_t i = 0;
  for (auto _ : state) {
    hops.clear();
    const graph::Vertex s = static_cast<graph::Vertex>(i * 37 % n);
    const graph::Vertex d = static_cast<graph::Vertex>((i * 61 + 13) % n);
    if (s != d) routing.next_hops(s, d, hops);
    benchmark::DoNotOptimize(hops.size());
    ++i;
  }
}
BENCHMARK(BM_AnalyticRouteDecision);

static void BM_Bisection(benchmark::State& state) {
  auto ps = core::PolarStar::build(
      {static_cast<std::uint32_t>(state.range(0)), 3,
       core::SupernodeKind::kInductiveQuad, 0});
  for (auto _ : state) {
    auto r = partition::bisect(ps.graph());
    benchmark::DoNotOptimize(r.cut_edges);
  }
}
BENCHMARK(BM_Bisection)->Arg(5)->Arg(7);

static void BM_SimulatorCycles(benchmark::State& state) {
  auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(
      {5, 4, core::SupernodeKind::kInductiveQuad, 3}));
  sim::Network net(core::shared_topology(ps),
                   routing::make_polarstar_routing(ps));
  for (auto _ : state) {
    sim::SimParams prm;
    prm.warmup_cycles = 0;
    prm.measure_cycles = 300;
    prm.drain_cycles = 0;
    auto src = sim::make_pattern_source(ps->topology(), sim::Pattern::kUniform,
                                        0.3, 4, 1);
    sim::Simulation s(net, prm, *src);
    auto res = s.run();
    benchmark::DoNotOptimize(res.packets_delivered);
  }
  state.SetItemsProcessed(state.iterations() * 300);
}
BENCHMARK(BM_SimulatorCycles)->Unit(benchmark::kMillisecond);

// Injection clocks for the full Table 3 PS-IQ endpoint count, per
// endpoint-cycle, at per-cycle packet probability 1/arg (80 = load 0.05
// with 4-flit packets).
static void BM_InjectionSkipAhead(benchmark::State& state) {
  constexpr std::uint64_t kEndpoints = 5320;
  sim::BernoulliArrivals clocks(kEndpoints, 1.0 / state.range(0), 1);
  clocks.start(0, [](std::uint64_t) { return true; });
  std::uint64_t cycle = 0, fired = 0;
  for (auto _ : state) {
    clocks.fire(cycle++, [&](std::uint64_t e, sim::EventDraws& draws) {
      fired += (draws() % kEndpoints) != e;
    });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * kEndpoints);
}
BENCHMARK(BM_InjectionSkipAhead)->Arg(80)->Arg(13);

// One link-down apply() + commit() on the full Table 3 PS-IQ (1064
// routers) after a first degraded epoch: the incremental survivor-distance
// update. The link is repaired again untimed, so every iteration starts
// from the same one-link-down state.
static void BM_FaultCommit(benchmark::State& state) {
  auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(
      {11, 3, core::SupernodeKind::kInductiveQuad, 5}));
  const auto topo = core::shared_topology(ps);
  fault::FaultAwareRouting far(topo, routing::make_polarstar_routing(ps));
  const auto order = fault::shuffled_edges(topo->g, 1);
  far.apply({0, fault::EventKind::kLinkDown, order[0].first, order[0].second});
  far.commit();
  std::size_t i = 1;
  for (auto _ : state) {
    const auto [u, v] = order[i];
    far.apply({0, fault::EventKind::kLinkDown, u, v});
    far.commit();
    state.PauseTiming();
    far.apply({0, fault::EventKind::kLinkUp, u, v});
    far.commit();
    i = i + 1 < order.size() ? i + 1 : 1;
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(far.epoch());
}
BENCHMARK(BM_FaultCommit)->Unit(benchmark::kMicrosecond);

// sim::Network construction over the analytic PolarStar routing at
// PS-IQ q (11 = full Table 3, 1064 routers): the BFS distance matrix plus
// the route table derived from its rows.
static void BM_NetworkBuild(benchmark::State& state) {
  auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(
      {static_cast<std::uint32_t>(state.range(0)), 3,
       core::SupernodeKind::kInductiveQuad, 5}));
  const auto topo = core::shared_topology(ps);
  const auto route = routing::make_polarstar_routing(ps);
  for (auto _ : state) {
    sim::Network net(topo, route);
    benchmark::DoNotOptimize(net.total_link_ports());
  }
}
BENCHMARK(BM_NetworkBuild)->Arg(5)->Arg(7)->Arg(11)->Unit(
    benchmark::kMillisecond);

// A table-routed family's whole setup on the full Table 3 HyperX
// ({9, 9, 8} x 8, 648 routers): TableRouting's BFS distance matrix and
// all-minpath next-hop table, then the sim::Network route table derived
// from the matrix rows.
static void BM_TableNetworkBuild(benchmark::State& state) {
  const auto topo = std::make_shared<const topo::Topology>(
      topo::hyperx::build({{9, 9, 8}, 8}));
  for (auto _ : state) {
    sim::Network net(topo, routing::make_table_routing(topo->g));
    benchmark::DoNotOptimize(net.total_link_ports());
  }
}
BENCHMARK(BM_TableNetworkBuild)->Unit(benchmark::kMillisecond);

// One route_ports + distance lookup on full Table 3 PS-IQ at a pseudo-random
// (s, d) pair: the per-hop query of the engine's dominant switch-allocation
// phase.
static void BM_RoutePortsLookup(benchmark::State& state) {
  auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(
      {11, 3, core::SupernodeKind::kInductiveQuad, 5}));
  const sim::Network net(core::shared_topology(ps),
                         routing::make_polarstar_routing(ps));
  const std::uint64_t n = net.num_routers();
  std::uint64_t x = 1, acc = 0;
  for (auto _ : state) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG
    const auto s = static_cast<graph::Vertex>((x >> 33) % n);
    const auto d = static_cast<graph::Vertex>((x >> 11) % n);
    const auto ports = net.route_ports(s, d);
    acc += net.distance(s, d) + (ports.empty() ? 0 : ports.front());
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RoutePortsLookup);

BENCHMARK_MAIN();
