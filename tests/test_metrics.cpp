// Time-series metrics + engine self-profiler suite (`ctest -L metrics`).
//
// The TimeSeriesCollector's interval records must (a) tile the run and sum
// to the run's own totals (partial final interval included), (b) be
// *bit-identical* -- doubles included -- against SimParams::reference_impl,
// under faults too, (c) survive CollectorSet fan-out with heterogeneous
// periods (gcd merge + member re-bucketing), and (d) come out of the runlab
// stack as byte-identical JSON and counter-track traces at any thread
// count and on the reference engine. The self-profiler
// must never perturb a simulation result, and the POLARSTAR_PROGRESS
// heartbeat must never touch stdout.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/polarstar.h"
#include "fault/schedule.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "telemetry/collectors.h"

namespace core = polarstar::core;
namespace fault = polarstar::fault;
namespace routing = polarstar::routing;
namespace runlab = polarstar::runlab;
namespace sim = polarstar::sim;
namespace telemetry = polarstar::telemetry;

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

struct SeriesRun {
  sim::SimResult result;
  std::vector<telemetry::TimeSeriesInterval> intervals;
};

SeriesRun run_series(const sim::Network& net, const sim::SimParams& prm,
                     double rate, std::uint32_t interval) {
  sim::PatternSource src(net.topology(), sim::Pattern::kUniform, rate,
                         prm.packet_flits, prm.seed);
  telemetry::TimeSeriesCollector col(interval);
  sim::Simulation s(net, prm, src, &col);
  SeriesRun out;
  out.result = s.run();
  out.intervals = col.intervals();
  return out;
}

// Exact comparison, doubles included: the reference engine may not perturb
// a single bit of any interval field.
void expect_identical(const std::vector<telemetry::TimeSeriesInterval>& a,
                      const std::vector<telemetry::TimeSeriesInterval>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin_cycle, b[i].begin_cycle) << "interval " << i;
    EXPECT_EQ(a[i].end_cycle, b[i].end_cycle) << "interval " << i;
    EXPECT_EQ(a[i].injected, b[i].injected) << "interval " << i;
    EXPECT_EQ(a[i].ejected, b[i].ejected) << "interval " << i;
    EXPECT_EQ(a[i].offered_flits, b[i].offered_flits) << "interval " << i;
    EXPECT_EQ(a[i].accepted_flits, b[i].accepted_flits) << "interval " << i;
    EXPECT_EQ(a[i].lat_packets, b[i].lat_packets) << "interval " << i;
    EXPECT_EQ(a[i].avg_latency, b[i].avg_latency) << "interval " << i;
    EXPECT_EQ(a[i].max_latency, b[i].max_latency) << "interval " << i;
    EXPECT_EQ(a[i].buffered_flits, b[i].buffered_flits) << "interval " << i;
    EXPECT_EQ(a[i].in_flight, b[i].in_flight) << "interval " << i;
    EXPECT_EQ(a[i].dropped, b[i].dropped) << "interval " << i;
    EXPECT_EQ(a[i].retransmits, b[i].retransmits) << "interval " << i;
    EXPECT_EQ(a[i].lost, b[i].lost) << "interval " << i;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// wall_seconds / *_wall_seconds / profile seconds are wall clock: the only
// JSON content allowed to differ between runs of identical work. The
// metrics suite never emits the profile block, so stripping wall_seconds
// is sufficient.
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

// Interval records partition [0, cycles) -- contiguous, interior
// boundaries on period multiples, partial final interval included -- and
// their sums reproduce the run's own totals.
TEST(MetricsSeries, FramesTileTheRunAndSumToTotals) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const std::uint32_t interval = 128;  // never divides the run length
  const auto run = run_series(*net, base_params(), 0.2, interval);
  const auto& ivs = run.intervals;
  ASSERT_FALSE(ivs.empty());
  EXPECT_EQ(ivs.front().begin_cycle, 0u);
  EXPECT_EQ(ivs.back().end_cycle, run.result.cycles);
  std::uint64_t injected = 0, ejected = 0, accepted = 0, lat_packets = 0;
  std::uint64_t max_lat = 0;
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(ivs[i].begin_cycle, ivs[i - 1].end_cycle);
    }
    if (i + 1 < ivs.size()) {
      EXPECT_EQ(ivs[i].end_cycle % interval, 0u);
    }
    EXPECT_LT(ivs[i].begin_cycle, ivs[i].end_cycle);
    injected += ivs[i].injected;
    ejected += ivs[i].ejected;
    accepted += ivs[i].accepted_flits;
    lat_packets += ivs[i].lat_packets;
    max_lat = std::max(max_lat, ivs[i].max_latency);
    EXPECT_EQ(ivs[i].dropped, 0u);  // fault-free run
    EXPECT_EQ(ivs[i].retransmits, 0u);
    EXPECT_EQ(ivs[i].lost, 0u);
  }
  EXPECT_EQ(ejected, run.result.packets_delivered);
  EXPECT_EQ(lat_packets, run.result.packets_delivered);
  // Every delivered packet ejected all of its flits; packets still in
  // flight at run end may have ejected a head fragment on top.
  EXPECT_GE(accepted,
            run.result.packets_delivered * base_params().packet_flits);
  EXPECT_GE(injected, run.result.packets_delivered);
  EXPECT_GT(max_lat, 0u);
  // The gauges are sampled state, not diffs: in-flight packets at run end
  // equal the run's own outstanding count (sources keep injecting through
  // the drain, so a stable run need not end empty).
  ASSERT_TRUE(run.result.stable);
  EXPECT_EQ(ivs.back().in_flight, injected - ejected);
}

// The acceptance bar: the whole interval series is bit-identical against
// the generic reference implementation.
TEST(MetricsSeries, IntervalsIdenticalVsReference) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const std::uint32_t interval = 100;
  const auto fast = run_series(*net, base_params(), 0.25, interval);
  ASSERT_GT(fast.result.packets_delivered, 0u);
  auto ref_prm = base_params();
  ref_prm.reference_impl = true;
  const auto ref = run_series(*net, ref_prm, 0.25, interval);
  expect_identical(fast.intervals, ref.intervals);
}

// Under live faults the interval fault columns must sum to the run's fault
// counters and match the reference engine -- drops, retransmits and losses
// all land mid-run.
TEST(MetricsSeries, FaultColumnsSumAndStayDeterministic) {
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
  const auto s1 = run_series(*net, prm, 0.2, 200);
  ASSERT_GT(s1.result.fault_events, 0u);
  ASSERT_GT(s1.result.packets_dropped, 0u);
  std::uint64_t dropped = 0, retx = 0, lost = 0;
  for (const auto& iv : s1.intervals) {
    dropped += iv.dropped;
    retx += iv.retransmits;
    lost += iv.lost;
  }
  EXPECT_EQ(dropped, s1.result.packets_dropped);
  EXPECT_EQ(retx, s1.result.retransmits);
  EXPECT_EQ(lost, s1.result.packets_lost);
  auto ref_prm = prm;
  ref_prm.reference_impl = true;
  const auto ref = run_series(*net, ref_prm, 0.2, 200);
  expect_identical(s1.intervals, ref.intervals);
}

// CollectorSet fan-out with heterogeneous periods: the engine samples at
// the gcd and each member re-buckets to its own interval, so every member
// sees exactly what it would have seen running solo.
TEST(MetricsSeries, CollectorSetGcdMergeMatchesSoloRuns) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto prm = base_params();
  telemetry::TimeSeriesCollector c30(30), c50(50);
  telemetry::CollectorSet set;
  set.add(&c30);
  set.add(&c50);
  EXPECT_EQ(set.caps().metrics_period, 10u);  // gcd(30, 50)
  sim::PatternSource src(net->topology(), sim::Pattern::kUniform, 0.2,
                         prm.packet_flits, prm.seed);
  sim::Simulation s(*net, prm, src, &set);
  const auto res = s.run();
  ASSERT_GT(res.packets_delivered, 0u);
  const auto solo30 = run_series(*net, prm, 0.2, 30);
  const auto solo50 = run_series(*net, prm, 0.2, 50);
  expect_identical(c30.intervals(), solo30.intervals);
  expect_identical(c50.intervals(), solo50.intervals);
}

// The runlab stack end to end: JSON (timeseries and fault blocks, modulo
// wall clock) and the Perfetto trace (flights, fault marks, counter tracks)
// are byte-identical at threads 1 and 4, on the optimized and the
// reference engine alike.
TEST(MetricsSeries, RunlabBytesIdenticalAcrossThreadsAndVsReference) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.begin_cycle = 250;
  spec.end_cycle = 251;
  auto sched = std::make_shared<const fault::FaultSchedule>(
      fault::FaultSchedule::random(net->topology(), spec, 3));

  std::vector<runlab::SweepCase> cases;
  runlab::SweepCase healthy;
  healthy.name = "healthy";
  healthy.net = net;
  healthy.params = base_params();
  healthy.loads = {0.1, 0.2};
  healthy.stop_after_saturation = false;
  cases.push_back(healthy);
  runlab::SweepCase faulted = healthy;
  faulted.name = "faulted";
  faulted.faults = sched;
  cases.push_back(faulted);

  std::string ref_json, ref_trace;
  for (const unsigned threads : {1u, 4u}) {
    for (const bool reference : {false, true}) {
      const std::string tag = std::to_string(threads) +
                              (reference ? "-ref" : "-fast");
      const std::string json = ::testing::TempDir() + "metrics_" + tag +
                               ".json";
      const std::string trace = ::testing::TempDir() + "metrics_" + tag +
                                ".trace";
      {
        auto grid_cases = cases;
        for (auto& c : grid_cases) c.params.reference_impl = reference;
        runlab::ExperimentRunner runner(threads);
        runner.set_json_path(json);
        runner.set_trace_path(trace);
        runner.set_metrics_interval(250);
        runner.run("metrics-grid", grid_cases);
      }  // destructor flushes both files
      const std::string body = strip_wall_seconds(read_file(json));
      const std::string tbody = read_file(trace);
      if (ref_json.empty()) {
        ref_json = body;
        ref_trace = tbody;
        EXPECT_NE(body.find("\"schema\": 8"), std::string::npos);
        EXPECT_NE(body.find("\"timeseries\": {"), std::string::npos);
        EXPECT_NE(body.find("\"fault\": {"), std::string::npos);
        EXPECT_NE(tbody.find("\"ph\":\"C\""), std::string::npos);
        EXPECT_NE(tbody.find("\"name\":\"in_flight\""), std::string::npos);
        // The faulted case's counter set adds the dropped track.
        EXPECT_NE(tbody.find("\"name\":\"dropped\""), std::string::npos);
      } else {
        EXPECT_EQ(body, ref_json) << tag;
        EXPECT_EQ(tbody, ref_trace) << tag;
      }
      std::remove(json.c_str());
      std::remove(trace.c_str());
    }
  }
}

// An explicit per-case interval beats the runner default, and cases
// without metrics carry no timeseries block.
TEST(MetricsSeries, PerCaseIntervalOverridesRunnerDefault) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  runlab::SweepCase plain;
  plain.name = "plain";
  plain.net = net;
  plain.params = base_params();
  plain.loads = {0.2};
  runlab::SweepCase sampled = plain;
  sampled.name = "sampled";
  sampled.metrics_interval = 123;
  const std::string json = ::testing::TempDir() + "metrics_override.json";
  {
    runlab::ExperimentRunner runner(2);
    runner.set_json_path(json);
    runner.set_metrics_interval(0);  // isolate from any env default
    runner.run("override", {plain, sampled});
  }
  const std::string body = read_file(json);
  EXPECT_NE(body.find("\"timeseries\": {\"interval\": 123"),
            std::string::npos);
  // Exactly one of the two points carries the block.
  EXPECT_EQ(body.find("\"timeseries\""), body.rfind("\"timeseries\""));
  std::remove(json.c_str());
}

// The self-profiler is observational: bit-identical SimResult with it on
// or off, a populated report when on, and an inert report under
// reference_impl (the frozen twin is unwired).
TEST(EngineProfiler, ObservationalAndPopulated) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  const auto off = run_series(*net, base_params(), 0.25, 100);
  auto prof_prm = base_params();
  prof_prm.profile = true;
  const auto on = run_series(*net, prof_prm, 0.25, 100);
  expect_identical(off.intervals, on.intervals);
  EXPECT_EQ(off.result.packets_delivered, on.result.packets_delivered);
  EXPECT_EQ(off.result.avg_packet_latency, on.result.avg_packet_latency);
  EXPECT_FALSE(off.result.profile.enabled);
  ASSERT_TRUE(on.result.profile.enabled);
  EXPECT_EQ(on.result.profile.cycles, on.result.cycles);
  EXPECT_GT(on.result.profile.route_seconds, 0.0);
  EXPECT_GT(on.result.profile.deliver_seconds, 0.0);
  EXPECT_GT(on.result.profile.barrier_seconds, 0.0);
  auto ref_prm = prof_prm;
  ref_prm.reference_impl = true;
  const auto ref = run_series(*net, ref_prm, 0.25, 100);
  EXPECT_FALSE(ref.result.profile.enabled);
  EXPECT_EQ(ref.result.profile.cycles, 0u);
}

// Runner-level profiling: the report goes to the injected stream, the JSON
// gains the top-level profile block, and stdout stays untouched.
TEST(EngineProfiler, RunnerReportAndJsonBlock) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  runlab::SweepCase c;
  c.name = "prof";
  c.net = net;
  c.params = base_params();
  c.loads = {0.2};
  const std::string json = ::testing::TempDir() + "metrics_profile.json";
  std::ostringstream prof_stream;
  ::testing::internal::CaptureStdout();
  {
    runlab::ExperimentRunner runner(2);
    runner.set_json_path(json);
    runner.set_profile(true);
    runner.set_profile_stream(&prof_stream);
    runner.run("profiled", {c});
  }
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
  const std::string report = prof_stream.str();
  EXPECT_NE(report.find("[profile] profiled:"), std::string::npos);
  EXPECT_NE(report.find("switch allocation"), std::string::npos);
  EXPECT_NE(report.find("utilization"), std::string::npos);
  const std::string body = read_file(json);
  EXPECT_NE(body.find("\"schema\": 8"), std::string::npos);
  EXPECT_NE(body.find("\"profile\": {\"points\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"worker_utilization\": "), std::string::npos);
  EXPECT_NE(body.find("\"workers\": 2"), std::string::npos);
  // One simulation runs on one thread: no per-shard fields.
  EXPECT_EQ(body.find("shard"), std::string::npos);
  EXPECT_EQ(body.find("driver_wait"), std::string::npos);
  std::remove(json.c_str());
}

// POLARSTAR_PROGRESS discipline regression: the heartbeat goes to its own
// stream and stdout is byte-identical (empty here) with it on or off, as
// is the emitted JSON modulo wall clock.
TEST(ProgressHeartbeat, StdoutBytesIdenticalOnVsOff) {
  const auto net =
      polarstar_net({5, 3, core::SupernodeKind::kInductiveQuad, 2});
  runlab::SweepCase c;
  c.name = "hb";
  c.net = net;
  c.params = base_params();
  c.loads = {0.1, 0.2};
  c.stop_after_saturation = false;
  const std::string json_on = ::testing::TempDir() + "metrics_hb_on.json";
  const std::string json_off = ::testing::TempDir() + "metrics_hb_off.json";
  std::ostringstream heartbeat;

  ::testing::internal::CaptureStdout();
  {
    runlab::ExperimentRunner runner(2);
    runner.set_json_path(json_on);
    runner.set_progress_stream(&heartbeat);
    runner.run("heartbeat", {c});
  }
  const std::string stdout_on = ::testing::internal::GetCapturedStdout();

  ::testing::internal::CaptureStdout();
  {
    runlab::ExperimentRunner runner(2);
    runner.set_json_path(json_off);
    runner.set_progress_stream(nullptr);
    runner.run("heartbeat", {c});
  }
  const std::string stdout_off = ::testing::internal::GetCapturedStdout();

  EXPECT_EQ(stdout_on, "");
  EXPECT_EQ(stdout_on, stdout_off);
  EXPECT_NE(heartbeat.str().find("[runlab] heartbeat:"), std::string::npos);
  EXPECT_EQ(strip_wall_seconds(read_file(json_on)),
            strip_wall_seconds(read_file(json_off)));
  std::remove(json_on.c_str());
  std::remove(json_off.c_str());
}
