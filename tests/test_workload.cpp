// Workload subsystem suite (`ctest -L workload`): the scenario generators
// of src/workload/ and the trace record/replay loop. The load-bearing
// guarantees:
//
//  - A trace recorded from one run replays to the *bit-identical*
//    SimResult, on the reference engine too, under faults, and through the
//    runlab runner at 1 vs 4 threads (JSON bytes modulo wall clock).
//  - The trace text format round-trips exactly and rejects malformed input.
//  - Every generator targets the endpoints its scenario promises (victims,
//    tenant blocks, hot set, collective partners), verified on the recorded
//    injection streams rather than on internals.
//  - Workload cases flow through the runner: "workload" JSON
//    blocks, scenario marks in the exported Perfetto trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/polarstar.h"
#include "fault/schedule.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace core = polarstar::core;
namespace fault = polarstar::fault;
namespace routing = polarstar::routing;
namespace runlab = polarstar::runlab;
namespace sim = polarstar::sim;
namespace workload = polarstar::workload;

namespace {

std::shared_ptr<const sim::Network> polarstar_net(core::PolarStarConfig cfg) {
  auto ps =
      std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  return std::make_shared<sim::Network>(core::shared_topology(ps),
                                        routing::make_polarstar_routing(ps));
}

sim::SimParams base_params() {
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 500;
  prm.drain_cycles = 20000;
  prm.seed = 23;
  return prm;
}

workload::Context make_ctx(const sim::Network& net, double load,
                           const sim::SimParams& prm) {
  return workload::Context{.topo = &net.topology(),
                           .load = load,
                           .packet_flits = prm.packet_flits,
                           .seed = prm.seed};
}

// Exact comparison, doubles included: replay must not perturb a single bit of any aggregate.
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

/// Runs the workload once with a TraceRecorder attached and returns
/// {result, trace}.
std::pair<sim::SimResult, workload::Trace> record_run(
    const sim::Network& net, const workload::Workload& wl, double load,
    const sim::SimParams& prm) {
  workload::TraceRecorder rec;
  auto src = wl.instantiate(make_ctx(net, load, prm));
  sim::Simulation s(net, prm, *src, &rec);
  auto res = s.run();
  return {std::move(res), rec.take_trace()};
}

sim::SimResult replay_run(const sim::Network& net, const workload::Trace& t,
                          double load, const sim::SimParams& prm) {
  const workload::TraceReplay replay(t);
  auto src = replay.instantiate(make_ctx(net, load, prm));
  sim::Simulation s(net, prm, *src);
  return s.run();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// wall_seconds is wall clock: the only JSON field allowed to differ
// between runs of identical work.
std::string strip_wall_seconds(std::string body) {
  for (std::size_t pos = body.find("\"wall_seconds\": ");
       pos != std::string::npos; pos = body.find("\"wall_seconds\": ", pos)) {
    std::size_t end = pos;
    while (end < body.size() && body[end] != ',' && body[end] != '}') ++end;
    body.erase(pos, end - pos);
  }
  return body;
}

}  // namespace

// ---- trace format ---------------------------------------------------------

TEST(WorkloadTrace, TextFormatRoundTrips) {
  workload::Trace t;
  t.num_endpoints = 100;
  t.packet_flits = 4;
  t.events = {{0, 3, 7, 4}, {0, 9, 3, 4}, {2, 0, 99, 4}, {17, 99, 0, 4}};
  std::ostringstream os;
  workload::write_trace(os, t);
  std::istringstream is(os.str());
  EXPECT_EQ(workload::read_trace(is), t);
}

TEST(WorkloadTrace, ReaderRejectsMalformedInput) {
  const auto parse = [](const std::string& body) {
    std::istringstream is(body);
    return workload::read_trace(is);
  };
  EXPECT_THROW(parse("not a trace\n"), std::runtime_error);
  // Event count mismatch.
  EXPECT_THROW(parse("# polarstar workload trace v1\nendpoints 4\n"
                     "packet_flits 4\nevents 2\n0 0 1 4\n"),
               std::runtime_error);
  // Endpoint out of range.
  EXPECT_THROW(parse("# polarstar workload trace v1\nendpoints 4\n"
                     "packet_flits 4\nevents 1\n0 0 9 4\n"),
               std::runtime_error);
  // Cycles must be monotone (within-cycle order is load-bearing).
  EXPECT_THROW(parse("# polarstar workload trace v1\nendpoints 4\n"
                     "packet_flits 4\nevents 2\n5 0 1 4\n3 1 0 4\n"),
               std::runtime_error);
  // Header values are untrusted: a negative or huge event count, a flit
  // count that is zero or does not fit 32 bits, and trailing tokens all end
  // in the reader's error, never in a wrapped value or an allocation
  // failure. A short file behind a huge count is an unexpected EOF.
  const std::string head = "# polarstar workload trace v1\nendpoints 4\n";
  for (const std::string& bad : {
           head + "packet_flits 4\nevents -1\n",
           head + "packet_flits 4\nevents 1000000000000\n0 0 1 4\n",
           head + "packet_flits 4294967300\nevents 0\n",
           head + "packet_flits 0\nevents 0\n",
           head + "packet_flits -4\nevents 0\n",
           std::string("# polarstar workload trace v1\nendpoints 4 junk\n"
                       "packet_flits 4\nevents 0\n"),
           head + "packet_flits 4\nevents 1\n0 1 2 4 extra\n",
           head + "packet_flits 4\nevents 1\n0 1 2 4294967300\n",
           head + "packet_flits 4\nevents 1\n-1 1 2 4\n",
       }) {
    try {
      parse(bad);
      ADD_FAILURE() << "accepted:\n" << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("workload trace line "),
                std::string::npos)
          << e.what();
    }
  }
  try {
    parse(head + "packet_flits 4\nevents 1000000000000\n0 0 1 4\n");
    ADD_FAILURE() << "accepted a short file behind a huge event count";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected EOF"), std::string::npos)
        << e.what();
  }
  // Well-formed input still parses, including tab separators.
  EXPECT_EQ(parse(head + "packet_flits\t4\nevents 1\n0 1 2 4\n").events,
            (std::vector<workload::TraceEvent>{{0, 1, 2, 4}}));
}

TEST(WorkloadTrace, ReplayValidatesContext) {
  workload::Trace t;
  t.num_endpoints = 1000000;  // more endpoints than any test topology
  t.packet_flits = 4;
  const workload::TraceReplay replay(t);
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  EXPECT_THROW(replay.instantiate(make_ctx(*net, 0.1, prm)),
               std::invalid_argument);
  workload::Trace wrong_flits;
  wrong_flits.num_endpoints = 4;
  wrong_flits.packet_flits = 8;  // prm.packet_flits is 4
  EXPECT_THROW(workload::TraceReplay(std::move(wrong_flits))
                   .instantiate(make_ctx(*net, 0.1, prm)),
               std::invalid_argument);
}

// ---- record -> replay identity --------------------------------------------

// The headline guarantee: a replayed trace reproduces the recorded run's
// SimResult bit for bit, and so does a replay on the reference engine.
TEST(WorkloadReplay, ReproducesSimResultAndMatchesReference) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto prm = base_params();
  const workload::IncastWorkload incast;
  const auto [recorded, trace] = record_run(*net, incast, 0.1, prm);
  EXPECT_GT(trace.events.size(), 0u);
  EXPECT_EQ(trace.num_endpoints, net->topology().num_endpoints());
  expect_identical(recorded, replay_run(*net, trace, 0.1, prm));
  auto ref_prm = prm;
  ref_prm.reference_impl = true;
  expect_identical(recorded, replay_run(*net, trace, 0.1, ref_prm));
}

// A trace survives the text format: write -> read -> replay is still
// bit-identical (no precision or ordering loss in the file).
TEST(WorkloadReplay, SurvivesFileRoundTrip) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto prm = base_params();
  const workload::TransientHotspotWorkload hotspot(
      {.begin = 250, .end = 500, .hot_fraction = 0.4, .hot_endpoints = 3});
  const auto [recorded, trace] = record_run(*net, hotspot, 0.1, prm);
  const std::string path = ::testing::TempDir() + "workload_roundtrip.wl";
  workload::write_trace_file(path, trace);
  const workload::Trace back = workload::read_trace_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(back, trace);
  expect_identical(recorded, replay_run(*net, back, 0.1, prm));
}

// The stress scenario end to end: adversarial + incast mix under a live
// fault schedule. Recording rides along the fault-aware run; the replay
// (same schedule) reproduces drops, retransmits and delivered_fraction
// exactly. Retransmits re-inject *recorded* packets, so the injection
// stream stays replayable under faults.
TEST(WorkloadReplay, StressMixUnderFaultsReplaysExactly) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  prm.num_vcs = 8;  // fault detours stretch paths past the healthy diameter
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.router_failures = 1;
  spec.begin_cycle = 250;
  spec.end_cycle = 600;
  const auto sched =
      fault::FaultSchedule::random(net->topology(), spec, /*seed=*/7);
  prm.faults = &sched;

  const auto stress = workload::make_stress_workload(
      {.victims = 8, .period = 128, .burst = 16, .burst_fraction = 0.3});
  const auto [recorded, trace] = record_run(*net, *stress, 0.1, prm);
  EXPECT_GT(recorded.fault_events, 0u);
  EXPECT_GT(trace.events.size(), 0u);
  expect_identical(recorded, replay_run(*net, trace, 0.1, prm));
  auto ref_prm = prm;
  ref_prm.reference_impl = true;
  expect_identical(recorded, replay_run(*net, trace, 0.1, ref_prm));
}

// ---- generator shapes -----------------------------------------------------

// Shape checks run on the *recorded* injection stream: what the scenario
// promises about (cycle, src, dst) is exactly what lands in the simulator.
TEST(WorkloadGenerators, IncastConvergesOnVictimsDuringBursts) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  const workload::IncastConfig cfg{
      .victims = 4, .period = 100, .burst = 10, .burst_fraction = 0.5};
  const workload::IncastWorkload incast(cfg);
  const auto [res, trace] = record_run(*net, incast, 0.1, prm);
  (void)res;
  ASSERT_GT(trace.events.size(), 0u);

  const std::uint64_t eps = net->topology().num_endpoints();
  std::vector<std::uint64_t> victims;
  for (std::uint32_t v = 0; v < cfg.victims; ++v) {
    victims.push_back(v * eps / cfg.victims);
  }
  std::uint64_t burst_total = 0, burst_victim = 0, quiet_victim = 0,
                quiet_total = 0;
  for (const auto& e : trace.events) {
    const bool in_burst = e.cycle % cfg.period < cfg.burst;
    const bool to_victim =
        std::find(victims.begin(), victims.end(), e.dst) != victims.end();
    (in_burst ? burst_total : quiet_total) += 1;
    if (to_victim) (in_burst ? burst_victim : quiet_victim) += 1;
  }
  ASSERT_GT(burst_total, 0u);
  ASSERT_GT(quiet_total, 0u);
  // Burst windows are dominated by victim traffic (duty-cycle scaling makes
  // the incast share ~5x the background inside the window)...
  EXPECT_GT(static_cast<double>(burst_victim) / burst_total, 0.5);
  // ...while quiet cycles see victims only as ordinary uniform targets.
  EXPECT_LT(static_cast<double>(quiet_victim) / quiet_total, 0.05);
}

// Scenario traffic offers the load it is asked for: injected packets per
// sending endpoint-cycle within 4 sigma of the target, the way
// Traffic.SkipAheadOfferedLoadMatchesTarget pins the patterns. Incast is
// checked per window, since its bursts run above the average rate.
TEST(WorkloadGenerators, ScenarioSourcesOfferTheirLoad) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  prm.warmup_cycles = 0;
  prm.measure_cycles = 6000;
  prm.drain_cycles = 0;
  const double load = 0.05;
  const double p = load / prm.packet_flits;
  const std::uint64_t eps = net->topology().num_endpoints();

  // Injections by `senders` in the cycles `window` accepts, against rate q.
  const auto expect_rate = [&](const workload::Trace& trace,
                               const std::vector<bool>& senders,
                               const auto& window, double q,
                               const std::string& what) {
    std::uint64_t injected = 0, sending = 0, cycles = 0;
    for (const auto& e : trace.events) {
      if (senders[e.src] && window(e.cycle)) ++injected;
    }
    for (bool s : senders) sending += s;
    for (std::uint64_t c = 0; c < prm.measure_cycles; ++c) cycles += window(c);
    const double trials = static_cast<double>(sending * cycles);
    EXPECT_NEAR(static_cast<double>(injected) / trials, q,
                4 * std::sqrt(q * (1 - q) / trials))
        << what;
  };
  const auto always = [](std::uint64_t) { return true; };

  // Incast: a victim declines the arrivals it would send to itself.
  const workload::IncastConfig icfg{
      .victims = 4, .period = 100, .burst = 10, .burst_fraction = 0.5};
  std::vector<bool> not_victim(eps, true);
  for (std::uint32_t v = 0; v < icfg.victims; ++v) {
    not_victim[v * eps / icfg.victims] = false;
  }
  const auto [ires, itrace] =
      record_run(*net, workload::IncastWorkload(icfg), load, prm);
  ASSERT_EQ(ires.cycles, prm.measure_cycles);
  const auto in_burst = [&](std::uint64_t c) {
    return c % icfg.period < icfg.burst;
  };
  const double background = p * (1 - icfg.burst_fraction);
  expect_rate(itrace, not_victim, always, p, "incast");
  expect_rate(itrace, not_victim, in_burst,
              background + p * icfg.burst_fraction * icfg.period / icfg.burst,
              "incast, burst windows");
  expect_rate(
      itrace, not_victim, [&](std::uint64_t c) { return !in_burst(c); },
      background, "incast, quiet windows");

  // Multi-tenant: every member of a uniform or tornado block sends.
  const auto [mres, mtrace] = record_run(
      *net,
      workload::MultiTenantWorkload({workload::TenantPattern::kUniform,
                                     workload::TenantPattern::kTornado}),
      load, prm);
  ASSERT_EQ(mres.cycles, prm.measure_cycles);
  expect_rate(mtrace, std::vector<bool>(eps, true), always, p,
              "multi-tenant");

  // Transient hotspot: a hot endpoint declines hot arrivals to itself.
  const workload::HotspotConfig hcfg{
      .begin = 1000, .end = 4000, .hot_fraction = 0.5, .hot_endpoints = 4};
  std::vector<bool> not_hot(eps, true);
  for (std::uint32_t h = 0; h < hcfg.hot_endpoints; ++h) {
    not_hot[h * eps / hcfg.hot_endpoints] = false;
  }
  const auto [hres, htrace] =
      record_run(*net, workload::TransientHotspotWorkload(hcfg), load, prm);
  ASSERT_EQ(hres.cycles, prm.measure_cycles);
  expect_rate(htrace, not_hot, always, p, "transient hotspot");

  // Collective: only the 2^b ranks send.
  std::uint64_t ranks = 1;
  while (ranks * 2 <= eps) ranks *= 2;
  std::vector<bool> is_rank(eps, false);
  for (std::uint64_t r = 0; r < ranks; ++r) is_rank[r] = true;
  const auto [cres, ctrace] =
      record_run(*net, workload::CollectiveWorkload(), load, prm);
  ASSERT_EQ(cres.cycles, prm.measure_cycles);
  expect_rate(ctrace, is_rank, always, p, "collective");
}

// A topology with one endpoint has nobody to send to: every scenario, and
// the stress mix, runs there without injecting anything.
TEST(WorkloadGenerators, OneEndpointTopologyInjectsNothing) {
  auto t = std::make_shared<polarstar::topo::Topology>();
  t->name = "one-endpoint path";
  t->g = polarstar::graph::Graph::from_edges(2, {{0, 1}});
  t->conc = {1, 0};
  t->group_of = {0, 1};  // the adversarial member needs groups
  t->finalize();
  const sim::Network net(t, routing::make_table_routing(t->g));
  const auto prm = base_params();
  const std::vector<std::shared_ptr<const workload::Workload>> scenarios = {
      std::make_shared<workload::IncastWorkload>(),
      std::make_shared<workload::MultiTenantWorkload>(
          std::vector<workload::TenantPattern>{
              workload::TenantPattern::kUniform}),
      std::make_shared<workload::TransientHotspotWorkload>(
          workload::HotspotConfig{.begin = 0, .end = 1000}),
      std::make_shared<workload::CollectiveWorkload>(),
      std::make_shared<workload::PatternWorkload>(sim::Pattern::kUniform)};
  for (const auto& wl : scenarios) {
    const auto [res, trace] = record_run(net, *wl, 0.5, prm);
    EXPECT_TRUE(trace.events.empty()) << wl->name();
    EXPECT_TRUE(res.stable) << wl->name();
  }
  // The stress mix's adversarial member pairs the lone router with itself;
  // what matters is that its incast member does not crash the run.
  const auto [res, trace] =
      record_run(net, *workload::make_stress_workload(), 0.5, prm);
  EXPECT_TRUE(res.stable);
  EXPECT_FALSE(res.deadlock);
}

TEST(WorkloadGenerators, IncastRejectsConfigsThatBreakTheTimeAverage) {
  using workload::IncastConfig;
  for (const IncastConfig& bad : {
           IncastConfig{.burst_fraction = 1.5},
           IncastConfig{.burst_fraction = -0.1},
           IncastConfig{.period = 0, .burst_fraction = 0.5},
           IncastConfig{.burst = 0, .burst_fraction = 0.5},
           IncastConfig{.period = 16, .burst = 32, .burst_fraction = 0.5},
       }) {
    EXPECT_THROW(workload::IncastWorkload{bad}, std::invalid_argument)
        << bad.period << " " << bad.burst << " " << bad.burst_fraction;
  }
  // No burst share needs no window; a window may fill the whole period.
  EXPECT_NO_THROW(
      workload::IncastWorkload(IncastConfig{.period = 0, .burst_fraction = 0}));
  EXPECT_NO_THROW(workload::IncastWorkload(
      IncastConfig{.period = 32, .burst = 32, .burst_fraction = 1}));
}

TEST(WorkloadGenerators, MultiTenantNeverCrossesTenantBlocks) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  const std::vector<workload::TenantPattern> tenants = {
      workload::TenantPattern::kUniform, workload::TenantPattern::kHotspot,
      workload::TenantPattern::kTornado};
  const workload::MultiTenantWorkload mt(tenants);
  const auto [res, trace] = record_run(*net, mt, 0.02, prm);
  (void)res;
  ASSERT_GT(trace.events.size(), 0u);

  const std::uint64_t eps = net->topology().num_endpoints();
  const std::uint64_t base = eps / tenants.size();
  const auto tenant_of = [&](std::uint64_t e) {
    const std::uint64_t t = e / base;
    return std::min<std::uint64_t>(t, tenants.size() - 1);
  };
  std::uint64_t hot_dsts = 0;
  std::uint64_t hot_packets = 0;
  std::vector<std::uint64_t> hot_seen;
  for (const auto& e : trace.events) {
    ASSERT_EQ(tenant_of(e.src), tenant_of(e.dst))
        << "cross-tenant packet " << e.src << " -> " << e.dst;
    if (tenant_of(e.src) == 1) {
      ++hot_packets;
      if (std::find(hot_seen.begin(), hot_seen.end(), e.dst) ==
          hot_seen.end()) {
        hot_seen.push_back(e.dst);
        ++hot_dsts;
      }
    }
  }
  // The hotspot tenant funnels every packet to one member.
  ASSERT_GT(hot_packets, 0u);
  EXPECT_EQ(hot_dsts, 1u);
}

TEST(WorkloadGenerators, MultiTenantRejectsImpossibleTenantCounts) {
  EXPECT_THROW(
      workload::MultiTenantWorkload(std::vector<workload::TenantPattern>{}),
      std::invalid_argument);
  // The endpoint count is unknown until instantiate(): one more tenant than
  // endpoints constructs fine and throws there.
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  const workload::MultiTenantWorkload crowded(
      std::vector<workload::TenantPattern>(
          net->topology().num_endpoints() + 1,
          workload::TenantPattern::kUniform));
  EXPECT_THROW(crowded.instantiate(make_ctx(*net, 0.05, prm)),
               std::invalid_argument);
}

TEST(WorkloadGenerators, CollectivePartnersFollowTheSchedule) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  auto prm = base_params();
  const workload::CollectiveConfig cfg{
      .schedule = workload::CollectiveSchedule::kRecursiveDoubling,
      .phase_cycles = 100};
  const workload::CollectiveWorkload coll(cfg);
  const auto [res, trace] = record_run(*net, coll, 0.05, prm);
  (void)res;
  ASSERT_GT(trace.events.size(), 0u);

  const std::uint64_t eps = net->topology().num_endpoints();
  std::uint64_t ranks = 1;
  while (ranks * 2 <= eps) ranks *= 2;
  std::uint64_t log_ranks = 0;
  while ((1ull << log_ranks) < ranks) ++log_ranks;
  for (const auto& e : trace.events) {
    ASSERT_LT(e.src, ranks);  // non-ranks stay idle
    ASSERT_LT(e.dst, ranks);
    const std::uint64_t phase =
        (e.cycle / cfg.phase_cycles) % log_ranks;
    ASSERT_EQ(e.dst, e.src ^ (1ull << phase))
        << "cycle " << e.cycle << ": " << e.src << " -> " << e.dst;
  }

  // Ring schedule: every packet goes to rank + 1.
  const workload::CollectiveWorkload ring(
      {.schedule = workload::CollectiveSchedule::kRing, .phase_cycles = 100});
  const auto [rres, rtrace] = record_run(*net, ring, 0.05, prm);
  (void)rres;
  ASSERT_GT(rtrace.events.size(), 0u);
  for (const auto& e : rtrace.events) {
    ASSERT_EQ(e.dst, (e.src + 1) % ranks);
  }
}

TEST(WorkloadGenerators, MarksDescribeTheTimeline) {
  const workload::IncastWorkload incast(
      {.victims = 2, .period = 100, .burst = 10, .burst_fraction = 0.5});
  workload::Context ctx;
  ctx.horizon = 250;
  const auto marks = incast.marks(ctx);
  ASSERT_EQ(marks.size(), 3u);  // bursts at 0, 100, 200
  EXPECT_EQ(marks[1].cycle, 100u);
  EXPECT_EQ(marks[1].label, "incast burst");

  const workload::TransientHotspotWorkload hotspot(
      {.begin = 50, .end = 150, .hot_fraction = 0.5, .hot_endpoints = 2});
  const auto hs = hotspot.marks(ctx);
  ASSERT_EQ(hs.size(), 2u);
  EXPECT_EQ(hs[0].label, "hotspot on");
  EXPECT_EQ(hs[1].label, "hotspot off");

  // Combined marks merge in cycle order.
  workload::CombinedWorkload both(
      "both",
      {{std::make_shared<workload::IncastWorkload>(workload::IncastConfig{
           .victims = 2, .period = 100, .burst = 10, .burst_fraction = 0.5}),
        0.5},
       {std::make_shared<workload::TransientHotspotWorkload>(
            workload::HotspotConfig{.begin = 50,
                                    .end = 150,
                                    .hot_fraction = 0.5,
                                    .hot_endpoints = 2}),
        0.5}});
  const auto merged = both.marks(ctx);
  ASSERT_GE(merged.size(), 5u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].cycle, merged[i].cycle);
  }
}

// ---- factory satellites ---------------------------------------------------

TEST(WorkloadFactory, PatternFromStringRoundTripsAndAliases) {
  using sim::Pattern;
  for (Pattern p : {Pattern::kUniform, Pattern::kPermutation,
                    Pattern::kBitShuffle, Pattern::kBitReverse,
                    Pattern::kAdversarial, Pattern::kTornado,
                    Pattern::kHotspot}) {
    const auto parsed = sim::pattern_from_string(sim::to_string(p));
    ASSERT_TRUE(parsed.has_value()) << sim::to_string(p);
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(sim::pattern_from_string("shuffle"), Pattern::kBitShuffle);
  EXPECT_EQ(sim::pattern_from_string("reverse"), Pattern::kBitReverse);
  EXPECT_FALSE(sim::pattern_from_string("no-such-pattern").has_value());
  // Every advertised name parses, so CLI errors can quote the list.
  std::istringstream names(sim::pattern_names());
  std::string name;
  std::size_t count = 0;
  while (std::getline(names, name, ',')) {
    if (!name.empty() && name.front() == ' ') name.erase(0, 1);
    EXPECT_TRUE(sim::pattern_from_string(name).has_value()) << name;
    ++count;
  }
  EXPECT_EQ(count, 9u);  // 7 canonical + 2 aliases
}

TEST(WorkloadFactory, PatternWorkloadMatchesDirectSource) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto prm = base_params();
  const workload::PatternWorkload wl(sim::Pattern::kUniform);
  EXPECT_EQ(wl.name(), "uniform");
  const auto [via_workload, t1] = record_run(*net, wl, 0.1, prm);
  workload::TraceRecorder rec;
  auto direct = sim::make_pattern_source(net->topology(),
                                         sim::Pattern::kUniform, 0.1,
                                         prm.packet_flits, prm.seed);
  sim::Simulation s(*net, prm, *direct, &rec);
  const auto via_factory = s.run();
  expect_identical(via_workload, via_factory);
  EXPECT_EQ(t1, rec.trace());
}

// ---- runlab integration ---------------------------------------------------

// Workload cases through the runner: results identical at 1 vs 4 worker
// threads, JSON bytes identical modulo wall clock, "workload"
// block present, and the replayed trace of a runner point still matches.
TEST(WorkloadRunlab, JsonBytesIdenticalAcrossThreads) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto stress = workload::make_stress_workload(
      {.victims = 8, .period = 128, .burst = 16, .burst_fraction = 0.3});

  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.begin_cycle = 250;
  spec.end_cycle = 251;
  auto sched = std::make_shared<const fault::FaultSchedule>(
      fault::FaultSchedule::random(net->topology(), spec, 3));

  std::vector<runlab::SweepCase> cases;
  runlab::SweepCase incast;
  incast.name = "incast";
  incast.net = net;
  incast.workload = std::make_shared<const workload::IncastWorkload>();
  incast.params = base_params();
  incast.loads = {0.05, 0.1};
  incast.stop_after_saturation = false;
  cases.push_back(incast);
  runlab::SweepCase stressed = incast;
  stressed.name = "stress";
  stressed.workload = stress;
  stressed.params.num_vcs = 8;
  stressed.faults = sched;
  cases.push_back(stressed);

  const std::string json1 = ::testing::TempDir() + "workload_t1.json";
  const std::string json4 = ::testing::TempDir() + "workload_t4.json";
  auto run_at = [&](unsigned threads, const std::string& json) {
    runlab::ExperimentRunner runner(threads);
    runner.set_json_path(json);
    return runner.run("workload-equiv", cases);
  };
  const auto r1 = run_at(1, json1);
  const auto r4 = run_at(4, json4);

  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_EQ(r1[i].points.size(), r4[i].points.size());
    for (std::size_t j = 0; j < r1[i].points.size(); ++j) {
      expect_identical(r1[i].points[j].result, r4[i].points[j].result);
    }
  }
  EXPECT_GT(r1[1].points[0].result.fault_events, 0u);

  const std::string b1 = strip_wall_seconds(read_file(json1));
  const std::string b4 = strip_wall_seconds(read_file(json4));
  EXPECT_EQ(b1, b4);
  EXPECT_NE(b1.find("\"schema\": 9"), std::string::npos);
  EXPECT_NE(b1.find("\"workload\": {\"name\": \"incast\""),
            std::string::npos);
  EXPECT_NE(b1.find("\"workload\": {\"name\": \"stress\""),
            std::string::npos);
  EXPECT_NE(b1.find("\"fault\": {"), std::string::npos);
  for (const auto& p : {json1, json4}) std::remove(p.c_str());
}

// Scenario marks land in the exported Perfetto trace as instant events.
TEST(WorkloadRunlab, MarksLandInExportedTrace) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  runlab::SweepCase c;
  c.name = "incast";
  c.net = net;
  c.workload = std::make_shared<const workload::IncastWorkload>(
      workload::IncastConfig{
          .victims = 2, .period = 100, .burst = 10, .burst_fraction = 0.5});
  c.params = base_params();
  c.loads = {0.05};
  c.trace.sample_period = 16;

  const std::string path = ::testing::TempDir() + "workload_marks.trace";
  {
    runlab::ExperimentRunner runner(1);
    runner.set_trace_path(path);
    runner.run("workload-marks", {c});
  }
  const std::string body = read_file(path);
  std::remove(path.c_str());
  EXPECT_NE(body.find("\"name\":\"incast burst\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(body.find("\"cat\":\"mark\""), std::string::npos);
}

// run_point accepts a workload directly (the PointSpec-level API).
TEST(WorkloadRunlab, RunPointTakesAWorkload) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto prm = base_params();
  const workload::CollectiveWorkload coll;
  const auto via_point =
      runlab::run_point({.net = net.get(),
                         .workload = &coll,
                         .load = 0.05,
                         .params = prm,
                         .trace = {}});
  workload::TraceRecorder rec;
  auto src = coll.instantiate(make_ctx(*net, 0.05, prm));
  sim::Simulation s(*net, prm, *src, &rec);
  expect_identical(via_point, s.run());
}
