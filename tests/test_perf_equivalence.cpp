// Differential tests for the simulator hot-loop optimizations (`ctest -L
// perf`): the flattened routing/distance tables, the pooled injection
// queues and the VC occupancy masks + busy-input/busy-router bitsets must
// be *bit-identical* to the generic reference implementations, and the one
// UGAL-L body and the one fault-filter body must decide identically over
// the engine's data views and the reference views. SimParams::reference_impl
// selects the reference side (routing::UgalSelector and
// FaultAwareRouting::next_hops over the virtual MinimalRouting, the
// full-scan step loop); every test here
// runs the same workload both ways and diffs the entire SimResult, the
// telemetry Summary, or the exported trace bytes. paranoid_checks is on
// wherever affordable so the occupancy-index invariants are validated
// every cycle in both modes. sim::Network's two route-table builds (from
// distance rows, and from per-pair virtual queries) must agree too, and
// attaching every collector must leave a run's SimResult untouched.
//
// The same label carries the simulator-core counter gate
// (SimcoreCounters/PerfCounters.*): six fixed-seed reduced-scale rows whose
// cycles, delivered packets and flit-hops are pinned exactly. Any change
// to the engine's outputs moves one of them; wall-clock throughput is
// tracked by benchmark/, not here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/topology_zoo.h"
#include "collective/edst.h"
#include "collective/engine.h"
#include "core/bundlefly.h"
#include "core/polarstar.h"
#include "fault/schedule.h"
#include "io/trace_export.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "telemetry/collectors.h"
#include "telemetry/packet_trace.h"
#include "topo/dragonfly.h"
#include "topo/fattree.h"
#include "topo/hyperx.h"
#include "topo/lps.h"
#include "topo/megafly.h"

namespace collective = polarstar::collective;
namespace core = polarstar::core;
namespace fault = polarstar::fault;
namespace io = polarstar::io;
namespace routing = polarstar::routing;
namespace runlab = polarstar::runlab;
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
  EXPECT_EQ(a.p90_packet_latency, b.p90_packet_latency);
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
}

// Forwards the two routing queries and inherits minimal_distances()'
// nullptr, so a Network built over it takes the per-pair path.
class PerPairRouting final : public routing::MinimalRouting {
 public:
  explicit PerPairRouting(std::shared_ptr<const routing::MinimalRouting> base)
      : base_(std::move(base)) {}
  std::uint32_t distance(g::Vertex src, g::Vertex dst) const override {
    return base_->distance(src, dst);
  }
  void next_hops(g::Vertex cur, g::Vertex dst,
                 std::vector<g::Vertex>& out) const override {
    base_->next_hops(cur, dst, out);
  }
  std::size_t storage_entries() const override {
    return base_->storage_entries();
  }
  std::string name() const override { return base_->name(); }

 private:
  std::shared_ptr<const routing::MinimalRouting> base_;
};

struct RouteCase {
  const char* name;
  std::shared_ptr<const topo::Topology> topo;
  std::shared_ptr<const routing::MinimalRouting> routing;
};

RouteCase polarstar_case(const char* name, core::PolarStarConfig cfg) {
  auto ps =
      std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  return {name, core::shared_topology(ps), routing::make_polarstar_routing(ps)};
}

RouteCase table_case(const char* name, topo::Topology t) {
  auto topo = std::make_shared<const topo::Topology>(std::move(t));
  return {name, topo, routing::make_table_routing(topo->g)};
}

// A topology of one endpoint per router over the given edges.
topo::Topology edge_topology(g::Vertex n, const std::vector<g::Edge>& edges) {
  topo::Topology t;
  t.g = g::Graph::from_edges(n, edges);
  t.conc.assign(n, 1);
  t.finalize();
  return t;
}

// A cycle over routers [first, first + n).
void add_ring(std::vector<g::Edge>& edges, g::Vertex first, g::Vertex n) {
  for (g::Vertex i = 0; i < n; ++i) {
    edges.push_back({first + i, first + (i + 1) % n});
  }
}

// Minimal routing on the path 0 - 1 - ... - n-1, answered pair by pair
// without any table (minimal_distances() is nullptr).
class PathRouting final : public routing::MinimalRouting {
 public:
  std::uint32_t distance(g::Vertex src, g::Vertex dst) const override {
    return src < dst ? dst - src : src - dst;
  }
  void next_hops(g::Vertex cur, g::Vertex dst,
                 std::vector<g::Vertex>& out) const override {
    if (cur != dst) out.push_back(cur < dst ? cur + 1 : cur - 1);
  }
  std::size_t storage_entries() const override { return 0; }
  std::string name() const override { return "path"; }
};

}  // namespace

// The Network's flattened distance and route-port tables must agree with
// the wrapped MinimalRouting on every pair (the simulator consults only
// the flat tables on the hot path): each distance equals the routing's,
// and each port list leads to the routing's next hops in its order. A
// graph-minimal routing's table is built from distance rows; it must also
// equal the one built from per-pair virtual queries, port for port, on
// every simulated family: the reduced Fig 9 suite, Jellyfish and full
// Table 3 PS-IQ. On PS-IQ the row table comes from BFS while the routing
// answers from the analytic case analysis, so this also pins analytic
// distance = BFS on every pair at Table 3 scale. Dragonfly's hierarchical
// routing keeps the per-pair path, so its graph-minimal table is the
// row-path case here. Two more graphs pin the row-local route ids: a
// 600-router ring, whose rows hold 600 distinct routes each, and a
// disconnected graph, whose unreachable pairs read graph::kUnreachable with
// no ports. The smallest cases pin the split of rows into parallel build
// blocks: 1, 2 and 3 routers, and a 32-router hypercube (fewer routers
// than blocks, with port lists past the inline two).
TEST(PerfEquivalence, FlatNetworkTablesMatchVirtualRouting) {
  auto jellyfish = polarstar::analysis::build_largest(
      polarstar::analysis::Family::kJellyfish, 8, 400);
  ASSERT_TRUE(jellyfish.has_value());
  // Ring: each row has 600 distinct (distance, port) routes, more than a
  // one-byte route id holds. Split: a triangle and a 5-ring, so pairs
  // across them are unreachable.
  std::vector<g::Edge> ring, split, cube;
  add_ring(ring, 0, 600);
  add_ring(split, 0, 3);
  add_ring(split, 3, 5);
  for (g::Vertex v = 0; v < 32; ++v) {
    for (g::Vertex bit = 1; bit < 32; bit <<= 1) {
      if ((v & bit) == 0) cube.push_back({v, v | bit});
    }
  }
  const std::vector<RouteCase> cases = {
      polarstar_case("PS-IQ", {5, 3, core::SupernodeKind::kInductiveQuad, 3}),
      polarstar_case("PS-Pal", {4, 4, core::SupernodeKind::kPaley, 3}),
      table_case("BF", core::bundlefly::build({5, 5, 3})),
      table_case("HX", topo::hyperx::build({{4, 4, 5}, 3})),
      table_case("DF", topo::dragonfly::build({7, 3, 3})),
      table_case("SF", topo::lps::build({11, 5, 4})),
      table_case("MF", topo::megafly::build({4, 4, 4})),
      table_case("FT", topo::fattree::build({6})),
      table_case("Jellyfish", std::move(*jellyfish)),
      polarstar_case("PS-IQ full",
                     {11, 3, core::SupernodeKind::kInductiveQuad, 5}),
      table_case("ring 600", edge_topology(600, ring)),
      table_case("split", edge_topology(8, split)),
      table_case("1 router", edge_topology(1, {})),
      table_case("2 routers", edge_topology(2, {{0, 1}})),
      table_case("3 routers", edge_topology(3, {{0, 1}, {1, 2}})),
      table_case("5-cube", edge_topology(32, cube)),
  };
  std::vector<g::Vertex> hops;
  std::size_t overflow_lists = 0;  // longer than the inline two ports
  std::size_t unreachable = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_NE(c.routing->minimal_distances(), nullptr);
    const sim::Network rows(c.topo, c.routing);
    const sim::Network pairs(c.topo,
                             std::make_shared<PerPairRouting>(c.routing));
    for (g::Vertex s = 0; s < rows.num_routers(); ++s) {
      for (g::Vertex d = 0; d < rows.num_routers(); ++d) {
        ASSERT_EQ(rows.distance(s, d), c.routing->distance(s, d));
        if (rows.distance(s, d) == g::kUnreachable) {
          ++unreachable;
          ASSERT_TRUE(rows.route_ports(s, d).empty()) << s << " -> " << d;
        }
        hops.clear();
        c.routing->next_hops(s, d, hops);
        const auto ports = rows.route_ports(s, d);
        ASSERT_EQ(ports.size(), hops.size()) << s << " -> " << d;
        overflow_lists += ports.size() > 2;
        for (std::size_t i = 0; i < hops.size(); ++i) {
          ASSERT_EQ(ports[i], rows.port_toward(s, hops[i]));
          ASSERT_EQ(rows.link_neighbor(rows.port_base(s) + ports[i]), hops[i]);
        }
        ASSERT_EQ(pairs.distance(s, d), rows.distance(s, d));
        ASSERT_TRUE(std::ranges::equal(pairs.route_ports(s, d), ports))
            << s << " -> " << d;
      }
    }
  }
  EXPECT_GT(overflow_lists, 0u);
  EXPECT_EQ(unreachable, 2u * 3 * 5);  // the split case's cross pairs
  const auto df = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({4, 2, 2}));
  EXPECT_EQ(routing::DragonflyRouting(df).minimal_distances(), nullptr);
}

// Route ids are 16-bit, so a Network of more than 0xFFFF routers is
// rejected before its n x n id table (8.6 GB at 65,536 routers) is allocated,
// on the per-pair path too, where no DistanceMatrix refuses it first.
TEST(PerfEquivalence, NetworkRejectsMoreThan65535Routers) {
  std::vector<g::Edge> path;
  for (g::Vertex v = 0; v + 1 < 65536; ++v) path.push_back({v, v + 1});
  const auto t =
      std::make_shared<const topo::Topology>(edge_topology(65536, path));
  EXPECT_THROW(sim::Network(t, std::make_shared<PathRouting>()),
               std::length_error);
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

// UGAL consumes RNG draws and compares double-valued path costs;
// routing::ugal_select must decide identically over the engine's view and
// routing::UgalSelector's.
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

// Live faults: FaultAwareRouting::survivor_filter over the engine's route
// ports and link_down_ mask must match FaultAwareRouting::next_hops, and the
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

// VC buffers at their capacity edges: one-flit buffers, buffers shorter
// than a packet, packets that do not divide the buffer and one-flit
// packets, each at a load that fills the buffers, plus UGAL and a 5% link
// failure on 5-flit buffers of 4-flit packets. paranoid_checks checks the
// wormhole order of every buffer every cycle; the optimized engine must
// equal reference_impl, and each case's counters are pinned.
TEST(PerfEquivalence, RunBuffersAtCapacityEdges) {
  struct EdgeCase {
    const char* name;
    std::uint32_t buffer_flits, packet_flits;
    sim::PathMode mode;
    bool faults;
    std::uint64_t cycles, delivered, flit_hops;
  };
  const auto net = polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto min = sim::PathMode::kMinimal;
  const EdgeCase cases[] = {
      {"b1_p1", 1, 1, min, false, 700, 178152, 470544},
      {"b1_p4", 1, 4, min, false, 700, 31874, 336304},
      {"b2_p4", 2, 4, min, false, 700, 44486, 469812},
      {"b3_p4", 3, 4, min, false, 700, 48644, 513784},
      {"b5_p4", 5, 4, min, false, 698, 54346, 573808},
      {"b7_p3", 7, 3, min, false, 614, 67846, 537399},
      {"b32_p1", 32, 1, min, false, 434, 152853, 403656},
      {"b32_p4", 32, 4, min, false, 575, 47513, 501284},
      {"b5_p4_ugal", 5, 4, sim::PathMode::kUgal, false, 700, 49304, 664772},
      {"b5_p4_faults", 5, 4, min, true, 700, 53012, 572840},
  };
  for (const EdgeCase& c : cases) {
    SCOPED_TRACE(c.name);
    auto prm = base_params();
    prm.warmup_cycles = 100;
    prm.measure_cycles = 200;
    prm.drain_cycles = 400;
    prm.vc_buffer_flits = c.buffer_flits;
    prm.packet_flits = c.packet_flits;
    prm.path_mode = c.mode;
    if (c.mode == sim::PathMode::kUgal) prm.num_vcs = 8;
    fault::FaultSchedule sched;
    if (c.faults) {
      fault::ScheduleSpec spec;
      spec.link_fail_fraction = 0.05;
      spec.begin_cycle = 200;
      spec.end_cycle = 201;
      sched = fault::FaultSchedule::random(net->topology(), spec, /*seed=*/5);
      prm.faults = &sched;
    }
    const auto ref = run_pattern(*net, prm, /*reference=*/true, 0.9);
    const auto fast = run_pattern(*net, prm, /*reference=*/false, 0.9);
    expect_identical(ref, fast);
    const auto hop_sum = static_cast<std::uint64_t>(std::llround(
        fast.avg_hops * static_cast<double>(fast.packets_delivered)));
    EXPECT_EQ(fast.cycles, c.cycles);
    EXPECT_EQ(fast.packets_delivered, c.delivered);
    EXPECT_EQ(hop_sum * c.packet_flits, c.flit_hops);
    if (c.faults) {
      EXPECT_GT(fast.packets_dropped, 0u);
    }
  }
}

// Full telemetry attached (link histograms, stalls, occupancy, UGAL):
// every collector aggregate must come out identical, which pins the hook
// *sequences*, not just the end-of-run totals.
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

// Collectors only observe: one UGAL point under a link-down/up schedule,
// run bare and run with every observer attached (FullCollector, the flight
// recorder and the metrics time series), must give the same SimResult.
TEST(PerfEquivalence, CollectorsNeverChangeResults) {
  const auto net = polarstar_net({4, 4, core::SupernodeKind::kPaley, 3});
  auto prm = base_params();
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 8;
  prm.paranoid_checks = false;
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.begin_cycle = 300;
  spec.end_cycle = 301;
  spec.repair_after = 200;
  const auto sched =
      fault::FaultSchedule::random(net->topology(), spec, /*seed=*/13);
  ASSERT_TRUE(std::any_of(
      sched.events().begin(), sched.events().end(),
      [](const fault::FaultEvent& e) {
        return e.kind == fault::EventKind::kLinkUp;
      }));
  const runlab::PointSpec bare{
      .net = net.get(), .load = 0.25, .params = prm, .faults = &sched};
  telemetry::FullCollector full;
  runlab::PointSpec observed = bare;
  observed.collector = &full;
  observed.trace.sample_period = 16;
  observed.metrics_interval = 100;
  const auto plain = runlab::run_point(bare);
  const auto traced = runlab::run_point(observed);
  expect_identical(plain, traced);
  EXPECT_EQ(plain.fault_events, sched.size());
  EXPECT_GT(plain.packets_dropped, 0u);
  EXPECT_FALSE(plain.telemetry.any());
  EXPECT_TRUE(traced.telemetry.has_link);
  EXPECT_TRUE(traced.telemetry.has_ugal);
  EXPECT_TRUE(traced.telemetry.has_trace);
  EXPECT_TRUE(traced.telemetry.has_timeseries);
  EXPECT_FALSE(traced.packet_traces.empty());
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

// The VC occupancy index is one 32-bit mask per link port; buffer state and
// PacketRecord::flits are 16-bit, so a zero or over-wide buffer or packet
// size is rejected too.
TEST(PerfEquivalence, RejectsTooManyVcs) {
  const auto net = dragonfly_net();
  sim::SimParams vcs, buffers0, buffers_wide, flits0, flits_wide;
  vcs.num_vcs = 33;
  buffers0.vc_buffer_flits = 0;
  buffers_wide.vc_buffer_flits = 65536;
  flits0.packet_flits = 0;
  flits_wide.packet_flits = 65536;
  sim::PatternSource src(net->topology(), sim::Pattern::kUniform, 0.1,
                         vcs.packet_flits, 1);
  for (const auto& prm : {vcs, buffers0, buffers_wide, flits0, flits_wide}) {
    EXPECT_THROW(sim::Simulation(*net, prm, src), std::invalid_argument);
  }
}

namespace {

enum class CounterTopo { kPsIq, kPsPal, kDf };

// One pinned row: the workload and the three counters it must reproduce.
struct CounterRow {
  const char* name;
  CounterTopo topo;
  sim::Pattern pattern;
  sim::PathMode mode;
  double load;
  bool faults;  // 5% of links fail at once, mid-measurement
  std::uint64_t cycles, delivered, flit_hops;
};

std::shared_ptr<const sim::Network> counter_net(CounterTopo topo) {
  switch (topo) {
    case CounterTopo::kPsIq:
      return polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 3});
    case CounterTopo::kPsPal:
      return polarstar_net({4, 4, core::SupernodeKind::kPaley, 3});
    case CounterTopo::kDf:
      break;
  }
  auto t = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({7, 3, 3}));
  return std::make_shared<sim::Network>(
      t, std::make_shared<routing::DragonflyRouting>(t));
}

// Names the row in gtest's failure messages.
void PrintTo(const CounterRow& row, std::ostream* os) { *os << row.name; }

class PerfCounters : public ::testing::TestWithParam<CounterRow> {};

}  // namespace

// Long windows on the reduced-scale suite, the sweep benches' SimParams
// (8 VCs under UGAL, adaptive minpath pick on PolarStar, one hashed
// minpath on Dragonfly), no collector. Flit-hops are
// round(avg_hops * delivered) * packet_flits.
TEST_P(PerfCounters, MatchPinnedValues) {
  const CounterRow& row = GetParam();
  const auto net = counter_net(row.topo);
  sim::SimParams prm;
  prm.warmup_cycles = 1000;
  prm.measure_cycles = 8000;
  prm.drain_cycles = 20000;
  prm.seed = 7;
  prm.path_mode = row.mode;
  prm.num_vcs = row.mode == sim::PathMode::kUgal ? 8 : 4;
  prm.min_select = row.topo == CounterTopo::kDf ? sim::MinSelect::kSingleHash
                                                : sim::MinSelect::kAdaptive;
  fault::FaultSchedule sched;
  if (row.faults) {
    fault::ScheduleSpec spec;
    spec.link_fail_fraction = 0.05;
    spec.begin_cycle = prm.warmup_cycles + prm.measure_cycles / 2;
    spec.end_cycle = spec.begin_cycle;
    sched = fault::FaultSchedule::random(net->topology(), spec, 99);
    prm.faults = &sched;
  }
  const auto src = sim::make_pattern_source(
      net->topology(), row.pattern, row.load, prm.packet_flits, prm.seed);
  sim::Simulation s(*net, prm, *src);
  const sim::SimResult res = s.run();
  const auto hop_sum = static_cast<std::uint64_t>(
      std::llround(res.avg_hops * static_cast<double>(res.packets_delivered)));
  EXPECT_EQ(res.cycles, row.cycles);
  EXPECT_EQ(res.packets_delivered, row.delivered);
  EXPECT_EQ(hop_sum * prm.packet_flits, row.flit_hops);
}

INSTANTIATE_TEST_SUITE_P(
    SimcoreCounters, PerfCounters,
    ::testing::Values(
        CounterRow{"ps_iq_uniform_min", CounterTopo::kPsIq,
                   sim::Pattern::kUniform, sim::PathMode::kMinimal, 0.30,
                   false, 9033, 504008, 5325576},
        CounterRow{"ps_iq_uniform_ugal", CounterTopo::kPsIq,
                   sim::Pattern::kUniform, sim::PathMode::kUgal, 0.30, false,
                   9046, 504684, 5940568},
        CounterRow{"ps_iq_adversarial_min", CounterTopo::kPsIq,
                   sim::Pattern::kAdversarial, sim::PathMode::kMinimal, 0.20,
                   false, 9100, 337905, 3923552},
        CounterRow{"ps_pal_uniform_min", CounterTopo::kPsPal,
                   sim::Pattern::kUniform, sim::PathMode::kMinimal, 0.30,
                   false, 9040, 383930, 3977204},
        CounterRow{"df_uniform_min", CounterTopo::kDf, sim::Pattern::kUniform,
                   sim::PathMode::kMinimal, 0.30, false, 9039, 312845,
                   3298764},
        CounterRow{"ps_iq_uniform_min_faults", CounterTopo::kPsIq,
                   sim::Pattern::kUniform, sim::PathMode::kMinimal, 0.30,
                   true, 9039, 504326, 5410780}),
    [](const ::testing::TestParamInfo<CounterRow>& info) {
      return std::string(info.param.name);
    });
