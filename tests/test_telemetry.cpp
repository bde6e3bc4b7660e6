// Telemetry collectors: conservation invariants (link histograms vs. hop
// traffic, stall causes partitioning port-cycles), UGAL decision counters,
// occupancy sampling, CollectorSet fan-out, and bit-identical telemetry
// across runner thread counts.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>

#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "telemetry/collectors.h"
#include "topo/dragonfly.h"
#include "topo/megafly.h"

namespace sim = polarstar::sim;
namespace routing = polarstar::routing;
namespace topo = polarstar::topo;
namespace telemetry = polarstar::telemetry;
namespace runlab = polarstar::runlab;
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

sim::Network megafly_net() {
  auto t = std::make_shared<topo::Topology>(topo::megafly::build({3, 2, 2}));
  return sim::Network(t, routing::make_table_routing(t->g));
}

bool same_summary(const telemetry::Summary& a, const telemetry::Summary& b) {
  return a.has_link == b.has_link && a.has_stall == b.has_stall &&
         a.has_ugal == b.has_ugal && a.has_occupancy == b.has_occupancy &&
         a.link.total_flits == b.link.total_flits &&
         a.link.num_links == b.link.num_links &&
         a.link.avg_load == b.link.avg_load &&
         a.link.max_load == b.link.max_load &&
         a.link.max_avg_ratio == b.link.max_avg_ratio &&
         a.stall.busy == b.stall.busy &&
         a.stall.credit_starved == b.stall.credit_starved &&
         a.stall.vc_blocked == b.stall.vc_blocked &&
         a.stall.arbitration_lost == b.stall.arbitration_lost &&
         a.stall.idle == b.stall.idle &&
         a.ugal.decisions == b.ugal.decisions &&
         a.ugal.valiant == b.ugal.valiant &&
         a.ugal.minimal_no_better == b.ugal.minimal_no_better &&
         a.ugal.minimal_no_candidate == b.ugal.minimal_no_candidate &&
         a.ugal.avg_valiant_extra_hops == b.ugal.avg_valiant_extra_hops &&
         a.occupancy.samples == b.occupancy.samples &&
         a.occupancy.peak_router_flits == b.occupancy.peak_router_flits &&
         a.occupancy.avg_router_flits == b.occupancy.avg_router_flits;
}

}  // namespace

TEST(Telemetry, NoCollectorMeansEmptySummary) {
  auto net = megafly_net();
  sim::SimParams prm;
  prm.warmup_cycles = 100;
  prm.measure_cycles = 300;
  sim::PatternSource src(net.topology(), sim::Pattern::kUniform, 0.1,
                         prm.packet_flits, 3);
  sim::Simulation s(net, prm, src);
  auto res = s.run();
  EXPECT_FALSE(res.telemetry.any());
}

TEST(Telemetry, LinkHistogramConservesFlits) {
  // Closed-loop run with an open-ended window: every flit of every packet
  // crosses `hops` directed links exactly once, so the histogram total must
  // equal sum over delivered packets of hops x flits.
  auto t = std::make_shared<topo::Topology>(path_topology(6));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> sends;
  for (std::uint64_t i = 0; i < 40; ++i) {
    sends.push_back({i * 3, i % 6, (i + 3) % 6});
  }
  ScriptedSource src(sends);
  sim::SimParams prm;
  telemetry::LinkHistogramCollector links;
  sim::Simulation s(net, prm, src, &links);
  auto res = s.run_app(100000);
  ASSERT_TRUE(res.stable);
  ASSERT_EQ(src.delivered.size(), sends.size());

  std::uint64_t expected = 0;
  for (const auto& p : src.delivered) {
    expected += static_cast<std::uint64_t>(p.hops) * p.flits;
  }
  std::uint64_t histogram_total = 0;
  for (auto f : links.totals()) histogram_total += f;
  EXPECT_EQ(histogram_total, expected);
  EXPECT_TRUE(res.telemetry.has_link);
  EXPECT_EQ(res.telemetry.link.total_flits, expected);
  EXPECT_EQ(res.telemetry.link.num_links, net.total_link_ports());
}

TEST(Telemetry, StallCausesPartitionPortCycles) {
  // On every directed link: busy + credit-starved + vc-blocked +
  // arbitration-lost + idle == the measurement window, cycle for cycle.
  auto net = megafly_net();
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 600;
  prm.drain_cycles = 1500;
  prm.credit_latency = 2;
  prm.vc_buffer_flits = 8;  // tight buffers force credit stalls
  telemetry::StallCollector stalls;
  sim::PatternSource src(net.topology(), sim::Pattern::kUniform, 0.8,
                         prm.packet_flits, 3);
  sim::Simulation s(net, prm, src, &stalls);
  auto res = s.run();
  ASSERT_EQ(stalls.window_cycles(), prm.measure_cycles);
  std::uint64_t any_stall = 0;
  for (std::size_t i = 0; i < net.total_link_ports(); ++i) {
    const std::uint64_t sum = stalls.busy()[i] + stalls.credit_starved()[i] +
                              stalls.vc_blocked()[i] +
                              stalls.arbitration_lost()[i] + stalls.idle(i);
    ASSERT_EQ(sum, prm.measure_cycles) << "link " << i;
    any_stall += stalls.credit_starved()[i] + stalls.vc_blocked()[i] +
                 stalls.arbitration_lost()[i];
  }
  EXPECT_GT(any_stall, 0u);  // 0.8 load on tight buffers must stall somewhere
  EXPECT_TRUE(res.telemetry.has_stall);
  const auto& st = res.telemetry.stall;
  EXPECT_EQ(st.busy + st.credit_starved + st.vc_blocked +
                st.arbitration_lost + st.idle,
            static_cast<std::uint64_t>(net.total_link_ports()) *
                prm.measure_cycles);
}

TEST(Telemetry, BusyCountsMatchLinkHistogram) {
  // The StallCollector's per-link busy counts and the histogram collector's
  // totals are the same quantity, observed through one CollectorSet.
  auto net = megafly_net();
  sim::SimParams prm;
  prm.warmup_cycles = 150;
  prm.measure_cycles = 400;
  telemetry::LinkHistogramCollector links;
  telemetry::StallCollector stalls;
  telemetry::CollectorSet set({&links, &stalls});
  sim::PatternSource src(net.topology(), sim::Pattern::kUniform, 0.4,
                         prm.packet_flits, 7);
  sim::Simulation s(net, prm, src, &set);
  auto res = s.run();
  ASSERT_EQ(links.totals().size(), stalls.busy().size());
  for (std::size_t i = 0; i < links.totals().size(); ++i) {
    ASSERT_EQ(links.totals()[i], stalls.busy()[i]) << "link " << i;
  }
  // The set folded both blocks into one summary.
  EXPECT_TRUE(res.telemetry.has_link);
  EXPECT_TRUE(res.telemetry.has_stall);
}

TEST(Telemetry, UgalCountersPartitionDecisions) {
  auto net = megafly_net();
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 500;
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 8;
  telemetry::UgalCollector ugal;
  sim::PatternSource src(net.topology(), sim::Pattern::kUniform, 0.3,
                         prm.packet_flits, 5);
  sim::Simulation s(net, prm, src, &ugal);
  auto res = s.run();
  const auto& c = ugal.counters();
  EXPECT_GT(c.decisions, 0u);
  EXPECT_EQ(c.decisions,
            c.valiant + c.minimal_no_better + c.minimal_no_candidate);
  EXPECT_TRUE(res.telemetry.has_ugal);
  EXPECT_EQ(res.telemetry.ugal.decisions, c.decisions);
  if (c.valiant == 0) {
    EXPECT_EQ(res.telemetry.ugal.avg_valiant_extra_hops, 0.0);
  }
}

TEST(Telemetry, OccupancySamplesOnItsPeriodGrid) {
  auto net = megafly_net();
  sim::SimParams prm;
  prm.warmup_cycles = 100;
  prm.measure_cycles = 400;
  telemetry::OccupancyCollector occ(/*period=*/16);
  sim::PatternSource src(net.topology(), sim::Pattern::kUniform, 0.5,
                         prm.packet_flits, 3);
  sim::Simulation s(net, prm, src, &occ);
  auto res = s.run();
  ASSERT_GT(occ.num_samples(), 0u);
  for (auto c : occ.sample_cycles()) EXPECT_EQ(c % 16, 0u);
  EXPECT_EQ(occ.num_routers(), net.topology().num_routers());
  EXPECT_EQ(occ.num_vcs(), prm.num_vcs);
  // Per-VC and per-router series aggregate the same buffers.
  for (std::size_t smp = 0; smp < occ.num_samples(); ++smp) {
    std::uint64_t by_router = 0, by_vc = 0;
    for (std::uint32_t r = 0; r < occ.num_routers(); ++r) {
      by_router += occ.router_flits(smp, r);
    }
    for (std::uint32_t v = 0; v < occ.num_vcs(); ++v) {
      by_vc += occ.vc_flits(smp, v);
    }
    ASSERT_EQ(by_router, by_vc) << "sample " << smp;
  }
  EXPECT_TRUE(res.telemetry.has_occupancy);
  EXPECT_EQ(res.telemetry.occupancy.samples, occ.num_samples());
  EXPECT_GE(res.telemetry.occupancy.peak_router_flits,
            res.telemetry.occupancy.avg_router_flits);
}

TEST(Telemetry, FullCollectorFillsEveryBlock) {
  auto net = megafly_net();
  sim::SimParams prm;
  prm.warmup_cycles = 150;
  prm.measure_cycles = 400;
  prm.path_mode = sim::PathMode::kUgal;
  prm.num_vcs = 8;
  telemetry::FullCollector full;
  sim::PatternSource src(net.topology(), sim::Pattern::kUniform, 0.3,
                         prm.packet_flits, 5);
  sim::Simulation s(net, prm, src, &full);
  auto res = s.run();
  EXPECT_TRUE(res.telemetry.has_link);
  EXPECT_TRUE(res.telemetry.has_stall);
  EXPECT_TRUE(res.telemetry.has_ugal);
  EXPECT_TRUE(res.telemetry.has_occupancy);
  EXPECT_GT(res.telemetry.link.total_flits, 0u);
}

TEST(Telemetry, RunnerTelemetryIdenticalAcrossThreadCounts) {
  // The headline determinism bar: identical telemetry summaries whether the
  // sweep runs on one worker or four (collectors are per-point, created on
  // the worker thread).
  auto t = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({4, 2, 2}));
  auto net = std::make_shared<sim::Network>(t,
                                            routing::make_table_routing(t->g));
  auto make_cases = [&net] {
    std::vector<runlab::SweepCase> cases;
    runlab::SweepCase a;
    a.name = "DF-ugal";
    a.net = net;
    a.params.warmup_cycles = 200;
    a.params.measure_cycles = 400;
    a.params.drain_cycles = 2000;
    a.params.seed = 11;
    a.params.path_mode = sim::PathMode::kUgal;
    a.params.num_vcs = 8;
    a.loads = {0.1, 0.3};
    a.make_collector = [](std::size_t) {
      return std::make_unique<telemetry::FullCollector>();
    };
    cases.push_back(a);

    runlab::SweepCase b = a;
    b.name = "DF-adv";
    b.pattern = sim::Pattern::kAdversarial;
    b.params.path_mode = sim::PathMode::kMinimal;
    b.params.num_vcs = 4;
    cases.push_back(b);
    return cases;
  };

  runlab::ExperimentRunner serial(1);
  runlab::ExperimentRunner parallel(4);
  auto rs = serial.run("telemetry-determinism", make_cases());
  auto rp = parallel.run("telemetry-determinism", make_cases());
  ASSERT_EQ(rs.size(), rp.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    ASSERT_EQ(rs[i].points.size(), rp[i].points.size());
    for (std::size_t j = 0; j < rs[i].points.size(); ++j) {
      if (!rs[i].points[j].ran) continue;
      const auto& ts = rs[i].points[j].result.telemetry;
      const auto& tp = rp[i].points[j].result.telemetry;
      EXPECT_TRUE(ts.any());
      EXPECT_TRUE(same_summary(ts, tp)) << "case " << i << " point " << j;
    }
  }
}

// run_point is the runner's serial primitive: a pattern spec must give the
// result of the Simulation it stands for, pattern seeded from params.seed.
TEST(Telemetry, PointSpecMatchesDirectSimulation) {
  auto t = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({4, 2, 2}));
  auto net = std::make_shared<sim::Network>(t,
                                            routing::make_table_routing(t->g));
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 400;
  prm.seed = 11;
  sim::PatternSource src(*t, sim::Pattern::kUniform, 0.2, prm.packet_flits,
                         prm.seed);
  auto a = sim::Simulation(*net, prm, src).run();
  auto b = runlab::run_point(
      {.net = net.get(), .pattern = sim::Pattern::kUniform, .load = 0.2,
       .params = prm, .pattern_seed = runlab::kSameSeed,
       .collector = nullptr, .trace = {}});
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.measured_packets, b.measured_packets);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.accepted_flit_rate, b.accepted_flit_rate);
}

TEST(Telemetry, ModeStringsAreCanonical) {
  EXPECT_STREQ(sim::to_string(sim::PathMode::kMinimal,
                              sim::MinSelect::kSingleHash),
               "min");
  EXPECT_STREQ(sim::to_string(sim::PathMode::kMinimal,
                              sim::MinSelect::kAdaptive),
               "min-adaptive");
  EXPECT_STREQ(sim::to_string(sim::PathMode::kUgal,
                              sim::MinSelect::kSingleHash),
               "ugal");
  EXPECT_STREQ(sim::to_string(sim::PathMode::kUgal,
                              sim::MinSelect::kAdaptive),
               "ugal");
}
