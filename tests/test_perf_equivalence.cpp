// Differential tests for the simulator hot-loop optimizations (`ctest -L
// perf`): the flattened routing/distance tables, the pooled injection
// queues, the VC occupancy masks + busy-input/busy-router bitsets, and the
// UGAL / fault-filter fast paths must be *bit-identical* to the generic
// reference implementations. SimParams::reference_impl selects the preserved
// pre-optimization code paths (routing::UgalSelector, virtual
// FaultAwareRouting::next_hops, the full-scan step loop); every test here
// runs the same workload both ways and diffs the entire SimResult, the
// telemetry Summary, or the exported trace bytes. paranoid_checks is on
// wherever affordable so the occupancy-index invariants are validated
// every cycle in both modes.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "collective/edst.h"
#include "collective/engine.h"
#include "core/polarstar.h"
#include "fault/schedule.h"
#include "io/trace_export.h"
#include "routing/routing.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "telemetry/collectors.h"
#include "telemetry/packet_trace.h"
#include "topo/dragonfly.h"

namespace collective = polarstar::collective;
namespace core = polarstar::core;
namespace fault = polarstar::fault;
namespace io = polarstar::io;
namespace routing = polarstar::routing;
namespace sim = polarstar::sim;
namespace telemetry = polarstar::telemetry;
namespace topo = polarstar::topo;
namespace g = polarstar::graph;

namespace {

std::shared_ptr<const sim::Network> polarstar_net(core::PolarStarConfig cfg) {
  auto ps =
      std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  return std::make_shared<sim::Network>(core::shared_topology(ps),
                                        routing::make_polarstar_routing(ps));
}

std::shared_ptr<const sim::Network> dragonfly_net() {
  auto t = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({4, 2, 2}));
  return std::make_shared<sim::Network>(t, routing::make_table_routing(t->g));
}

sim::SimParams base_params() {
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 500;
  prm.drain_cycles = 20000;
  prm.seed = 17;
  prm.paranoid_checks = true;  // validates the occupancy index every cycle
  return prm;
}

sim::SimResult run_pattern(const sim::Network& net, sim::SimParams prm,
                           bool reference, double rate,
                           telemetry::Collector* col = nullptr) {
  prm.reference_impl = reference;
  sim::PatternSource src(net.topology(), sim::Pattern::kUniform, rate,
                         prm.packet_flits, prm.seed);
  sim::Simulation s(net, prm, src, col);
  return s.run();
}

// Exact comparison, doubles included: the optimizations must not perturb a
// single bit of any aggregate.
void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.measured_packets, b.measured_packets);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.p50_packet_latency, b.p50_packet_latency);
  EXPECT_EQ(a.p99_packet_latency, b.p99_packet_latency);
  EXPECT_EQ(a.p999_packet_latency, b.p999_packet_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.accepted_flit_rate, b.accepted_flit_rate);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.deadlock, b.deadlock);
  EXPECT_EQ(a.max_source_queue, b.max_source_queue);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.measured_lost, b.measured_lost);
  EXPECT_EQ(a.delivered_fraction, b.delivered_fraction);
  EXPECT_EQ(a.max_recovery_latency, b.max_recovery_latency);
}

void expect_identical(const telemetry::Summary& a,
                      const telemetry::Summary& b) {
  EXPECT_EQ(a.has_link, b.has_link);
  EXPECT_EQ(a.link.total_flits, b.link.total_flits);
  EXPECT_EQ(a.link.num_links, b.link.num_links);
  EXPECT_EQ(a.link.avg_load, b.link.avg_load);
  EXPECT_EQ(a.link.max_load, b.link.max_load);
  EXPECT_EQ(a.link.max_avg_ratio, b.link.max_avg_ratio);
  EXPECT_EQ(a.has_stall, b.has_stall);
  EXPECT_EQ(a.stall.busy, b.stall.busy);
  EXPECT_EQ(a.stall.credit_starved, b.stall.credit_starved);
  EXPECT_EQ(a.stall.vc_blocked, b.stall.vc_blocked);
  EXPECT_EQ(a.stall.arbitration_lost, b.stall.arbitration_lost);
  EXPECT_EQ(a.stall.idle, b.stall.idle);
  EXPECT_EQ(a.has_ugal, b.has_ugal);
  EXPECT_EQ(a.ugal.decisions, b.ugal.decisions);
  EXPECT_EQ(a.ugal.valiant, b.ugal.valiant);
  EXPECT_EQ(a.ugal.minimal_no_better, b.ugal.minimal_no_better);
  EXPECT_EQ(a.ugal.minimal_no_candidate, b.ugal.minimal_no_candidate);
  EXPECT_EQ(a.ugal.avg_valiant_extra_hops, b.ugal.avg_valiant_extra_hops);
  EXPECT_EQ(a.has_occupancy, b.has_occupancy);
  EXPECT_EQ(a.occupancy.samples, b.occupancy.samples);
  EXPECT_EQ(a.occupancy.peak_router_flits, b.occupancy.peak_router_flits);
  EXPECT_EQ(a.occupancy.avg_router_flits, b.occupancy.avg_router_flits);
  EXPECT_EQ(a.has_latency, b.has_latency);
  EXPECT_EQ(a.latency.packets, b.latency.packets);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
  EXPECT_EQ(a.latency.p90, b.latency.p90);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.latency.p999, b.latency.p999);
  EXPECT_EQ(a.has_fault, b.has_fault);
  EXPECT_EQ(a.fault.events, b.fault.events);
  EXPECT_EQ(a.fault.link_down, b.fault.link_down);
  EXPECT_EQ(a.fault.router_down, b.fault.router_down);
  EXPECT_EQ(a.fault.repairs, b.fault.repairs);
  EXPECT_EQ(a.fault.dropped_packets, b.fault.dropped_packets);
  EXPECT_EQ(a.fault.retransmits, b.fault.retransmits);
  EXPECT_EQ(a.fault.lost_packets, b.fault.lost_packets);
}

}  // namespace

// The Network's flattened distance matrix and route-port tables must agree
// with the wrapped MinimalRouting on every pair (the simulator consults
// only the flat tables on the hot path).
TEST(PerfEquivalence, FlatNetworkTablesMatchVirtualRouting) {
  for (const auto& net :
       {polarstar_net({4, 4, core::SupernodeKind::kPaley, 3}),
        dragonfly_net()}) {
    const auto& routing = net->routing();
    const std::uint32_t n = net->num_routers();
    std::vector<g::Vertex> hops;
    std::size_t overflow_lists = 0;  // longer than the inline two ports
    for (g::Vertex s = 0; s < n; ++s) {
      for (g::Vertex d = 0; d < n; ++d) {
        ASSERT_EQ(net->distance(s, d), routing.distance(s, d));
        hops.clear();
        routing.next_hops(s, d, hops);
        const auto ports = net->route_ports(s, d);
        ASSERT_EQ(ports.size(), hops.size());
        overflow_lists += ports.size() > 2;
        for (std::size_t i = 0; i < hops.size(); ++i) {
          ASSERT_EQ(ports[i], net->port_toward(s, hops[i]));
          ASSERT_EQ(net->link_neighbor(net->port_base(s) + ports[i]), hops[i]);
        }
      }
    }
    EXPECT_GT(overflow_lists, 0u);
  }
}

// Per-directed-link inverses: peer_port is the far end's input-port index.
TEST(PerfEquivalence, LinkInversesConsistent) {
  const auto net = dragonfly_net();
  for (g::Vertex r = 0; r < net->num_routers(); ++r) {
    for (std::uint32_t p = 0; p < net->num_link_ports(r); ++p) {
      const std::size_t link = net->link_index(r, p);
      ASSERT_EQ(net->link_router(link), r);
      const g::Vertex nbr = net->neighbor_at(r, p);
      ASSERT_EQ(net->link_neighbor(link), nbr);
      ASSERT_EQ(net->peer_port(link),
                net->link_index(nbr, net->reverse_port(r, p)));
    }
  }
}

TEST(PerfEquivalence, MinimalSingleHash) {
  const auto net = polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto prm = base_params();
  const auto ref = run_pattern(*net, prm, /*reference=*/true, 0.2);
  const auto fast = run_pattern(*net, prm, /*reference=*/false, 0.2);
  expect_identical(ref, fast);
  EXPECT_GT(fast.packets_delivered, 0u);
}

TEST(PerfEquivalence, MinimalAdaptive) {
  const auto net = dragonfly_net();
  auto prm = base_params();
  prm.min_select = sim::MinSelect::kAdaptive;
  const auto ref = run_pattern(*net, prm, true, 0.3);
  const auto fast = run_pattern(*net, prm, false, 0.3);
  expect_identical(ref, fast);
  EXPECT_GT(fast.packets_delivered, 0u);
}

// Routers wider than one 64-bit word: the allocator's busy-input and
// output-request bitsets span several words per router (K_70 gives 69
// link ports; router 0 also carries 70 endpoints), and the busy-router
// bitset spans two words. Paranoid checks verify the bitsets against the
// buffers every cycle.
TEST(PerfEquivalence, WideRoutersSpanSeveralWorkWords) {
  auto t = std::make_shared<topo::Topology>();
  std::vector<g::Edge> edges;
  for (g::Vertex u = 0; u < 70; ++u) {
    for (g::Vertex v = u + 1; v < 70; ++v) edges.push_back({u, v});
  }
  t->g = g::Graph::from_edges(70, edges);
  t->conc.assign(70, 1);
  t->conc[0] = 70;
  t->finalize();
  const sim::Network net(t, routing::make_table_routing(t->g));
  auto prm = base_params();
  prm.measure_cycles = 300;
  prm.min_select = sim::MinSelect::kAdaptive;
  const auto ref = run_pattern(net, prm, true, 0.4);
  const auto fast = run_pattern(net, prm, false, 0.4);
  expect_identical(ref, fast);
  EXPECT_GT(fast.packets_delivered, 0u);
}

// UGAL consumes RNG draws and compares double-valued path costs; the fast
// selector must replicate routing::UgalSelector decision-for-decision.
TEST(PerfEquivalence, UgalSelection) {
  const auto net = polarstar_net({4, 4, core::SupernodeKind::kPaley, 3});
  auto prm = base_params();
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 8;  // UGAL/Valiant path length bound
  const auto ref = run_pattern(*net, prm, true, 0.25);
  const auto fast = run_pattern(*net, prm, false, 0.25);
  expect_identical(ref, fast);
  EXPECT_GT(fast.packets_delivered, 0u);
}

// Live faults: the flattened strict-distance-decrease filter and the
// survivor-table fallback must match FaultAwareRouting::next_hops, and the
// purge/rebuild of the occupancy index must leave identical state.
TEST(PerfEquivalence, FaultedRun) {
  const auto net = polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.08;
  spec.begin_cycle = 300;
  spec.end_cycle = 301;
  const auto sched =
      fault::FaultSchedule::random(net->topology(), spec, /*seed=*/5);
  prm.faults = &sched;
  const auto ref = run_pattern(*net, prm, true, 0.2);
  const auto fast = run_pattern(*net, prm, false, 0.2);
  expect_identical(ref, fast);
  EXPECT_GT(fast.fault_events, 0u);
}

// Full telemetry attached (link histograms, stalls, occupancy, UGAL,
// latency): every collector aggregate must come out identical, which
// pins the hook *sequences*, not just the end-of-run totals.
TEST(PerfEquivalence, TelemetrySummaries) {
  const auto net = polarstar_net({4, 4, core::SupernodeKind::kPaley, 3});
  auto prm = base_params();
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 8;
  prm.paranoid_checks = false;  // collector run; invariants covered above
  telemetry::FullCollector ref_col, fast_col;
  const auto ref = run_pattern(*net, prm, true, 0.25, &ref_col);
  const auto fast = run_pattern(*net, prm, false, 0.25, &fast_col);
  expect_identical(ref, fast);
  expect_identical(ref.telemetry, fast.telemetry);
  EXPECT_TRUE(fast.telemetry.has_link);
  EXPECT_TRUE(fast.telemetry.has_ugal);
}

// Flight recorder under faults: the exported Chrome-trace documents (hop
// spans, fault marks, per-packet lifecycles) must be byte-identical.
TEST(PerfEquivalence, TraceBytes) {
  const auto net = polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  prm.paranoid_checks = false;
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.begin_cycle = 300;
  spec.end_cycle = 301;
  const auto sched =
      fault::FaultSchedule::random(net->topology(), spec, /*seed=*/9);
  prm.faults = &sched;
  const auto render = [&](bool reference) {
    telemetry::PacketFilter filter;
    filter.sample_period = 16;
    telemetry::PacketTraceCollector col(filter);
    const auto res = run_pattern(*net, prm, reference, 0.2, &col);
    io::PacketTraceGroup group;
    group.label = "perf-equivalence";
    group.run_cycles = res.cycles;
    group.traces = col.take_traces();
    group.faults = col.take_fault_marks();
    std::ostringstream os;
    io::write_chrome_trace(os, {&group, 1});
    return os.str();
  };
  const std::string ref_bytes = render(true);
  const std::string fast_bytes = render(false);
  EXPECT_FALSE(ref_bytes.empty());
  EXPECT_EQ(ref_bytes, fast_bytes);
}

// The hardest combination for the trace: UGAL (RNG draws, Valiant legs a
// failure can break) under live faults with the flight recorder on. Hop
// sequences, retransmit timing and fault drops must all produce the same
// exported Chrome-trace bytes.
TEST(PerfEquivalence, UgalFaultTraceBytes) {
  const auto net = polarstar_net({4, 4, core::SupernodeKind::kPaley, 3});
  auto prm = base_params();
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 8;
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.begin_cycle = 300;
  spec.end_cycle = 301;
  const auto sched =
      fault::FaultSchedule::random(net->topology(), spec, /*seed=*/11);
  prm.faults = &sched;
  const auto render = [&](bool reference) {
    telemetry::PacketFilter filter;
    filter.sample_period = 16;
    telemetry::PacketTraceCollector col(filter);
    const auto res = run_pattern(*net, prm, reference, 0.2, &col);
    EXPECT_GT(res.fault_events, 0u);
    EXPECT_GT(res.packets_dropped, 0u);
    io::PacketTraceGroup group;
    group.label = "perf-equivalence-ugal";
    group.run_cycles = res.cycles;
    group.traces = col.take_traces();
    group.faults = col.take_fault_marks();
    std::ostringstream os;
    io::write_chrome_trace(os, {&group, 1});
    return os.str();
  };
  const std::string ref_bytes = render(true);
  EXPECT_FALSE(ref_bytes.empty());
  EXPECT_EQ(ref_bytes, render(false));
}

// Collective engine runs are closed-loop (every send reacts to a prior
// delivery), so the exact delivery *order* feeds back into the workload:
// any divergence between the optimized step loop and the reference one
// compounds. Both an EDST-tree and a unicast collective must come out
// bit-identical, JSON report included.
TEST(PerfEquivalence, CollectiveEngineRuns) {
  const core::PolarStarConfig cfg{4, 3, core::SupernodeKind::kInductiveQuad, 1};
  auto ps =
      std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  const auto net = std::make_shared<sim::Network>(
      core::shared_topology(ps), routing::make_polarstar_routing(ps));
  const auto trees = std::make_shared<const collective::EdstSet>(
      collective::polarstar_edsts(*ps));
  const auto run = [&](collective::Algorithm algo, bool reference) {
    collective::CollectiveSpec spec;
    spec.op = collective::Op::kAllreduce;
    spec.algorithm = algo;
    auto prm = base_params();
    prm.reference_impl = reference;
    collective::CollectiveEngine src(
        net->topology(), spec, /*chunks=*/5,
        algo == collective::Algorithm::kEdst ? trees : nullptr);
    sim::Simulation s(*net, prm, src);
    auto res = s.run_app(2'000'000);
    EXPECT_EQ(src.deliveries(), src.expected_deliveries());
    return res;
  };
  for (const auto algo :
       {collective::Algorithm::kEdst, collective::Algorithm::kBinomial}) {
    const auto ref = run(algo, true);
    const auto fast = run(algo, false);
    expect_identical(ref, fast);
    EXPECT_EQ(ref.source.collective_json, fast.source.collective_json);
    EXPECT_FALSE(fast.source.collective_json.empty());
    EXPECT_TRUE(fast.stable);
  }
}

// The VC occupancy index is one 32-bit mask per link port.
TEST(PerfEquivalence, RejectsTooManyVcs) {
  const auto net = dragonfly_net();
  sim::SimParams prm;
  prm.num_vcs = 33;
  sim::PatternSource src(net->topology(), sim::Pattern::kUniform, 0.1,
                         prm.packet_flits, 1);
  EXPECT_THROW(sim::Simulation(*net, prm, src), std::invalid_argument);
}
