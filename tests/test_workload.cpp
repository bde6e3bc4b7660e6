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
  EXPECT_NE(b1.find("\"schema\": 8"), std::string::npos);
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
