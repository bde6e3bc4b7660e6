// Flight-recorder tests: deterministic sampling, trace structure, the
// latency histogram's error bound, Chrome-trace/Perfetto export validity
// (round-tripped through the in-repo JSON parser), window normalization at
// on_run_end, the runner's heartbeat, and the POLARSTAR_JSON +
// POLARSTAR_TRACE environment path end to end. Labelled `trace` in ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.h"
#include "io/trace_export.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "telemetry/collectors.h"
#include "topo/dragonfly.h"

namespace sim = polarstar::sim;
namespace routing = polarstar::routing;
namespace topo = polarstar::topo;
namespace telemetry = polarstar::telemetry;
namespace runlab = polarstar::runlab;
namespace io = polarstar::io;
namespace json = polarstar::io::json;

namespace {

std::shared_ptr<const sim::Network> small_dragonfly() {
  auto t = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({4, 2, 2}));
  return std::make_shared<sim::Network>(t, routing::make_table_routing(t->g));
}

sim::SimParams tiny_params(std::uint64_t seed = 7) {
  sim::SimParams prm;
  prm.warmup_cycles = 200;
  prm.measure_cycles = 400;
  prm.drain_cycles = 4000;
  prm.seed = seed;
  return prm;
}

sim::SimResult traced_point(const std::shared_ptr<const sim::Network>& net,
                            const telemetry::PacketFilter& filter,
                            double load = 0.2) {
  return runlab::run_point({.net = net.get(),
                            .pattern = sim::Pattern::kUniform,
                            .load = load,
                            .params = tiny_params(),
                            .pattern_seed = runlab::kSameSeed,
                            .collector = nullptr,
                            .trace = filter});
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Records the window the simulator announces at run end.
class WindowProbe final : public telemetry::Collector {
 public:
  void on_run_end(std::uint64_t cycles, std::uint64_t measure_begin,
                  std::uint64_t measure_end) override {
    cycles_ = cycles;
    begin_ = measure_begin;
    end_ = measure_end;
  }
  std::uint64_t cycles_ = 0, begin_ = 0, end_ = 0;
};

}  // namespace

// ---------------------------------------------------------- sampling ------

TEST(PacketFilter, MergeTakesGcdOfPeriodsAndUnionOfWatches) {
  telemetry::PacketFilter a, b;
  a.sample_period = 6;
  a.watch = {{1, 2}};
  b.sample_period = 4;
  b.watch = {{3, 4}};
  const auto m = telemetry::PacketFilter::merge(a, b);
  EXPECT_EQ(m.sample_period, 2u);  // gcd: superset of both id sets
  EXPECT_EQ(m.watch.size(), 2u);

  telemetry::PacketFilter none;
  const auto n = telemetry::PacketFilter::merge(none, b);
  EXPECT_EQ(n.sample_period, 4u);  // disabled side must not widen to all
  EXPECT_FALSE(telemetry::PacketFilter{}.enabled());
  EXPECT_TRUE(m.enabled());
}

TEST(PacketTrace, SamplesExactlyTheFilteredIds) {
  auto net = small_dragonfly();
  telemetry::PacketFilter every4;
  every4.sample_period = 4;
  const auto res4 = traced_point(net, every4);
  ASSERT_FALSE(res4.packet_traces.empty());
  for (const auto& t : res4.packet_traces) {
    EXPECT_EQ(t.id % 4, 0u) << "packet " << t.id;
  }

  // Period 1 is the full population: exactly 4x denser (up to rounding of
  // which ids got injected), and a strict superset.
  telemetry::PacketFilter all;
  all.sample_period = 1;
  const auto res1 = traced_point(net, all);
  EXPECT_GT(res1.packet_traces.size(), res4.packet_traces.size());
  std::size_t multiples = 0;
  for (const auto& t : res1.packet_traces) {
    if (t.id % 4 == 0) ++multiples;
  }
  EXPECT_EQ(multiples, res4.packet_traces.size());
}

TEST(PacketTrace, WatchListCapturesEveryPacketOfThePair) {
  auto net = small_dragonfly();
  telemetry::PacketFilter all;
  all.sample_period = 1;
  const auto full = traced_point(net, all);

  // Learn a pair that actually communicated, then re-run watching only it.
  ASSERT_FALSE(full.packet_traces.empty());
  const auto pair = std::make_pair(full.packet_traces.front().src_endpoint,
                                   full.packet_traces.front().dst_endpoint);
  std::size_t expected = 0;
  for (const auto& t : full.packet_traces) {
    if (t.src_endpoint == pair.first && t.dst_endpoint == pair.second) {
      ++expected;
    }
  }

  telemetry::PacketFilter watch;
  watch.watch = {pair};
  const auto watched = traced_point(net, watch);
  EXPECT_EQ(watched.packet_traces.size(), expected);
  for (const auto& t : watched.packet_traces) {
    EXPECT_EQ(t.src_endpoint, pair.first);
    EXPECT_EQ(t.dst_endpoint, pair.second);
  }
}

// ----------------------------------------------------- trace structure ----

TEST(PacketTrace, DeliveredTracesAreInternallyConsistent) {
  auto net = small_dragonfly();
  telemetry::PacketFilter f;
  f.sample_period = 8;
  const auto res = traced_point(net, f);
  ASSERT_FALSE(res.packet_traces.empty());
  std::size_t delivered = 0;
  for (const auto& t : res.packet_traces) {
    if (!t.delivered) continue;
    ++delivered;
    ASSERT_FALSE(t.hops.empty());
    EXPECT_EQ(t.hops.front().router, t.src_router);
    EXPECT_EQ(t.hops.back().router, t.dst_router);
    EXPECT_EQ(t.hops.back().port, telemetry::kEjectPort);
    EXPECT_EQ(t.latency(), t.eject_cycle - t.birth_cycle + 1);
    std::uint64_t prev_departure = t.birth_cycle;
    for (const auto& h : t.hops) {
      EXPECT_GE(h.arrival, prev_departure);
      EXPECT_GE(h.departure, h.arrival);
      EXPECT_GE(h.routed, t.birth_cycle);
      prev_departure = h.departure;
    }
    // Only the last hop ejects.
    for (std::size_t i = 0; i + 1 < t.hops.size(); ++i) {
      EXPECT_NE(t.hops[i].port, telemetry::kEjectPort);
    }
  }
  EXPECT_GT(delivered, 0u);

  // Tracing is pure observation: the same point without the recorder is
  // bit-identical.
  const auto plain = runlab::run_point(*net, sim::Pattern::kUniform, 0.2,
                                       tiny_params());
  EXPECT_EQ(plain.cycles, res.cycles);
  EXPECT_EQ(plain.measured_packets, res.measured_packets);
  EXPECT_EQ(plain.avg_packet_latency, res.avg_packet_latency);
  EXPECT_EQ(plain.p50_packet_latency, res.p50_packet_latency);
  EXPECT_EQ(plain.p999_packet_latency, res.p999_packet_latency);
}

TEST(SimResult, PercentilesAreOrdered) {
  auto net = small_dragonfly();
  const auto res = runlab::run_point(*net, sim::Pattern::kUniform, 0.2,
                                     tiny_params());
  ASSERT_GT(res.measured_packets, 0u);
  EXPECT_GT(res.p50_packet_latency, 0.0);
  EXPECT_LE(res.p50_packet_latency, res.p99_packet_latency);
  EXPECT_LE(res.p99_packet_latency, res.p999_packet_latency);
  EXPECT_LE(res.avg_packet_latency, res.p999_packet_latency);
}

// ------------------------------------------------------------ histogram ---

TEST(LatencyHistogram, QuantilesWithinRelativeErrorBound) {
  telemetry::LatencyHistogram h;
  std::vector<std::uint64_t> exact;
  // Deterministic skewed population over ~4 octaves.
  std::uint64_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t v = 16 + (x >> 33) % 5000;
    h.add(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  ASSERT_EQ(h.count(), exact.size());
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double ref = static_cast<double>(
        exact[static_cast<std::size_t>(q * (exact.size() - 1))]);
    const double got = h.quantile(q);
    // Log-bucketed with 32 sub-buckets per octave: <= 2^-5 relative width,
    // so midpoints are within ~1.6% of any member; allow the full width.
    EXPECT_NEAR(got, ref, ref * 0.032 + 1.0) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(0.0), static_cast<double>(exact.front()));
  EXPECT_EQ(h.quantile(1.0), static_cast<double>(exact.back()));
}

TEST(LatencyHistogram, MergeEqualsPooledPopulation) {
  telemetry::LatencyHistogram a, b, pooled;
  for (std::uint64_t v = 1; v <= 3000; ++v) {
    (v % 2 ? a : b).add(v);
    pooled.add(v);
  }
  a.merge(b);
  ASSERT_EQ(a.count(), pooled.count());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), pooled.quantile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, CollectorMatchesSimResultPercentiles) {
  auto net = small_dragonfly();
  telemetry::LatencyHistogramCollector lat;
  const auto res = runlab::run_point({.net = net.get(),
                                      .pattern = sim::Pattern::kUniform,
                                      .load = 0.2,
                                      .params = tiny_params(),
                                      .pattern_seed = runlab::kSameSeed,
                                      .collector = &lat,
                                      .trace = {}});
  ASSERT_GT(res.measured_packets, 0u);
  ASSERT_EQ(lat.histogram().count(), res.measured_packets);
  EXPECT_NEAR(lat.histogram().quantile(0.99), res.p99_packet_latency,
              res.p99_packet_latency * 0.032 + 1.0);
  EXPECT_NEAR(lat.histogram().quantile(0.50), res.p50_packet_latency,
              res.p50_packet_latency * 0.032 + 1.0);
}

// ------------------------------------------------- window normalization ---

TEST(Collector, RunEndReannouncesTheClampedWindow) {
  auto net = small_dragonfly();
  sim::SimParams prm = tiny_params();

  // run(): closed window passes through unchanged.
  {
    WindowProbe probe;
    sim::PatternSource src(net->topology(), sim::Pattern::kUniform, 0.2,
                           prm.packet_flits, prm.seed);
    sim::Simulation s(*net, prm, src, &probe);
    const auto res = s.run();
    EXPECT_EQ(probe.cycles_, res.cycles);
    EXPECT_EQ(probe.begin_, prm.warmup_cycles);
    EXPECT_EQ(probe.end_, prm.warmup_cycles + prm.measure_cycles);
  }

  // run_app(): the open-ended window (~0) is clamped to the actual end.
  {
    WindowProbe probe;
    telemetry::LinkHistogramCollector links;
    telemetry::CollectorSet set({&probe, &links});
    sim::PatternSource src(net->topology(), sim::Pattern::kUniform, 0.2,
                           prm.packet_flits, prm.seed);
    sim::Simulation s(*net, prm, src, &set);
    const auto res = s.run_app(1000);
    EXPECT_EQ(probe.cycles_, res.cycles);
    EXPECT_EQ(probe.begin_, 0u);
    EXPECT_EQ(probe.end_, res.cycles);
    // Stock collectors adopt the clamp instead of special-casing ~0.
    EXPECT_EQ(links.window_cycles(), res.cycles);
  }
}

// ------------------------------------------------------- chrome export ----

TEST(TraceExport, PerfettoJsonRoundTripsWithOneSpanPerPacket) {
  auto net = small_dragonfly();
  telemetry::PacketFilter f;
  f.sample_period = 8;
  const auto res = traced_point(net, f);
  ASSERT_FALSE(res.packet_traces.empty());

  std::vector<io::PacketTraceGroup> groups(2);
  groups[0] = {"uniform @ 0.2", res.cycles, res.packet_traces};
  groups[1] = {"copy", res.cycles, res.packet_traces};
  std::ostringstream os;
  io::write_chrome_trace(os, groups);

  const auto doc = json::parse(os.str());  // throws if malformed
  const auto& events = doc.find("traceEvents")->as_array();
  std::size_t begins = 0, ends = 0, hops = 0;
  std::size_t expected_hops = 0;
  for (const auto& t : res.packet_traces) expected_hops += t.hops.size();
  for (const auto& ev : events) {
    const std::string& ph = ev.find("ph")->as_string();
    if (ph == "b") ++begins;
    if (ph == "e") ++ends;
    if (ph == "X") {
      ++hops;
      EXPECT_GE(ev.find("dur")->as_number(), 0.0);
      EXPECT_NE(ev.find("args")->find("hop"), nullptr);
    }
  }
  // One async span per sampled packet, per group; "e" always pairs "b".
  EXPECT_EQ(begins, 2 * res.packet_traces.size());
  EXPECT_EQ(ends, begins);
  EXPECT_EQ(hops, 2 * expected_hops);
}

// ------------------------------------------------- runner integration -----

TEST(Runner, TraceFileIsByteIdenticalAcrossThreadCounts) {
  const std::string p1 = ::testing::TempDir() + "trace_t1.json";
  const std::string p8 = ::testing::TempDir() + "trace_t8.json";
  for (const auto& [path, threads] : {std::pair{p1, 1u}, {p8, 8u}}) {
    runlab::ExperimentRunner r(threads);
    r.set_json_path("");  // isolate from any ambient POLARSTAR_JSON
    r.set_trace_path(path);
    std::vector<runlab::SweepCase> cases;
    for (std::uint64_t seed : {3, 4, 5}) {
      runlab::SweepCase c;
      c.name = "DF-" + std::to_string(seed);
      c.net = small_dragonfly();
      c.params = tiny_params(seed);
      c.loads = {0.1, 0.2};
      c.trace.sample_period = 16;
      cases.push_back(std::move(c));
    }
    r.run("trace-determinism", cases);
    r.flush_trace();
  }
  const std::string bytes1 = slurp(p1);
  EXPECT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, slurp(p8));
  std::remove(p1.c_str());
  std::remove(p8.c_str());
}

TEST(Runner, HeartbeatIsMonotonicAndReportsCompletion) {
  std::ostringstream progress;
  {
    runlab::ExperimentRunner r(4);
    r.set_json_path("");
    r.set_progress_stream(&progress);
    std::vector<runlab::SweepCase> cases(2);
    for (auto& c : cases) {
      c.net = small_dragonfly();
      c.params = tiny_params();
      c.loads = {0.1, 0.2};
    }
    cases[0].name = "a";
    cases[1].name = "b";
    r.run("hb", cases);
  }
  std::istringstream lines(progress.str());
  std::string line;
  std::size_t n = 0, last_cases = 0, last_points = 0;
  while (std::getline(lines, line)) {
    ++n;
    std::size_t cases_done = 0, points_done = 0;
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "[runlab] hb: cases %zu/2, points %zu/4",
                          &cases_done, &points_done),
              2)
        << line;
    EXPECT_GE(cases_done, last_cases);
    EXPECT_GE(points_done, last_points);
    last_cases = cases_done;
    last_points = points_done;
  }
  EXPECT_EQ(n, 6u);  // 4 point lines + 2 chain lines
  EXPECT_EQ(last_cases, 2u);
  EXPECT_EQ(last_points, 4u);
}

TEST(Runner, EnvironmentPathsEmitValidJsonAndTrace) {
  const std::string jpath = ::testing::TempDir() + "env_points.json";
  const std::string tpath = ::testing::TempDir() + "env_trace.json";
  ::setenv("POLARSTAR_JSON", jpath.c_str(), 1);
  ::setenv("POLARSTAR_TRACE", tpath.c_str(), 1);
  {
    runlab::ExperimentRunner r(2);  // reads both env vars
    runlab::SweepCase c;
    c.name = "DF";
    c.net = small_dragonfly();
    c.params = tiny_params();
    c.loads = {0.2};
    r.run("env-smoke", {c});
  }  // destructor flushes both files
  ::unsetenv("POLARSTAR_JSON");
  ::unsetenv("POLARSTAR_TRACE");

  const auto points_doc = json::parse_file(jpath);
  EXPECT_EQ(points_doc.find("schema")->as_number(), 8.0);
  const auto& pts = points_doc.find("points")->as_array();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_NE(pts[0].find("p50_latency"), nullptr);
  EXPECT_NE(pts[0].find("p999_latency"), nullptr);
  // The runner applied its default sampling, so the point carries trace
  // metadata...
  const auto* trace_meta = pts[0].find("telemetry")->find("trace");
  ASSERT_NE(trace_meta, nullptr);
  EXPECT_EQ(trace_meta->find("period")->as_number(),
            static_cast<double>(runlab::ExperimentRunner::kDefaultTracePeriod));

  // ...and the trace file's span count equals the sampled-packet count.
  const auto trace_doc = json::parse_file(tpath);
  std::size_t begins = 0;
  for (const auto& ev : trace_doc.find("traceEvents")->as_array()) {
    if (ev.find("ph")->as_string() == "b") ++begins;
  }
  EXPECT_EQ(begins,
            static_cast<std::size_t>(trace_meta->find("sampled")->as_number()));
  std::remove(jpath.c_str());
  std::remove(tpath.c_str());
}
