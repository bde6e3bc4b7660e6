// Experiment-runner tests: thread-pool basics, shared-ownership lifetimes,
// chain semantics (early exit, skip), determinism across worker counts, and
// JSON emission.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/polarstar.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "runlab/thread_pool.h"
#include "sim/simulation.h"
#include "topo/dragonfly.h"

namespace runlab = polarstar::runlab;
namespace routing = polarstar::routing;
namespace topo = polarstar::topo;
namespace core = polarstar::core;
namespace sim = polarstar::sim;
namespace g = polarstar::graph;

namespace {

std::shared_ptr<const sim::Network> small_dragonfly() {
  auto t = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({4, 2, 2}));
  return std::make_shared<sim::Network>(t, routing::make_table_routing(t->g));
}

std::shared_ptr<const sim::Network> small_polarstar() {
  auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(
      {3, 3, core::SupernodeKind::kInductiveQuad, 2}));
  return std::make_shared<sim::Network>(core::shared_topology(ps),
                                        routing::make_polarstar_routing(ps));
}

sim::SimParams short_params(std::uint64_t seed = 11) {
  sim::SimParams p;
  p.warmup_cycles = 200;
  p.measure_cycles = 400;
  p.drain_cycles = 2000;
  p.seed = seed;
  return p;
}

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  return a.stable == b.stable && a.deadlock == b.deadlock &&
         a.cycles == b.cycles &&
         a.packets_delivered == b.packets_delivered &&
         a.measured_packets == b.measured_packets &&
         a.avg_packet_latency == b.avg_packet_latency &&
         a.p99_packet_latency == b.p99_packet_latency &&
         a.avg_hops == b.avg_hops &&
         a.accepted_flit_rate == b.accepted_flit_rate;
}

}  // namespace

TEST(ThreadPool, RunsEveryTask) {
  runlab::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  // The pool stays usable after a barrier.
  pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    runlab::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ConfiguredThreadsReadsEnvironment) {
  ::setenv("POLARSTAR_THREADS", "3", 1);
  EXPECT_EQ(runlab::configured_threads(), 3u);
  ::setenv("POLARSTAR_THREADS", "garbage", 1);
  EXPECT_GE(runlab::configured_threads(), 1u);  // falls back, never 0
  ::unsetenv("POLARSTAR_THREADS");
  EXPECT_GE(runlab::configured_threads(), 1u);
}

TEST(Runner, NetworkOutlivesItsBuilders) {
  // The whole point of the shared-ownership stack: every builder goes out
  // of scope and the Network keeps the topology and routing alive.
  std::shared_ptr<const sim::Network> net;
  {
    auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(
        {3, 3, core::SupernodeKind::kInductiveQuad, 2}));
    net = std::make_shared<sim::Network>(core::shared_topology(ps),
                                         routing::make_polarstar_routing(ps));
  }
  auto res = runlab::run_point(
      {.net = net.get(), .load = 0.1, .params = short_params(), .trace = {}});
  EXPECT_TRUE(res.stable);
  EXPECT_GT(res.measured_packets, 0u);
}

TEST(Runner, RejectsNullNetwork) {
  runlab::ExperimentRunner r(1);
  runlab::SweepCase c;
  c.name = "null";
  c.loads = {0.1};
  EXPECT_THROW(r.run("bad", {c}), std::invalid_argument);
}

TEST(Runner, StopsChainAfterSaturation) {
  auto net = small_dragonfly();
  runlab::SweepCase c;
  c.name = "DF";
  c.net = net;
  c.pattern = sim::Pattern::kAdversarial;  // saturates early under MIN
  c.params = short_params();
  c.loads = {0.05, 0.9, 0.1};  // 0.9 saturates; 0.1 must not run
  runlab::ExperimentRunner r(2);
  auto out = r.run("early-exit", {c});
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].points.size(), 3u);
  EXPECT_TRUE(out[0].points[0].ran);
  EXPECT_TRUE(out[0].points[0].result.stable);
  EXPECT_TRUE(out[0].points[1].ran);
  EXPECT_FALSE(out[0].points[1].result.stable);
  EXPECT_FALSE(out[0].points[2].ran);
  EXPECT_GT(out[0].points[0].wall_seconds, 0.0);
  EXPECT_GT(out[0].wall_seconds, 0.0);

  // With stop_after_saturation off, the whole chain runs.
  c.stop_after_saturation = false;
  auto all = r.run("no-early-exit", {c});
  EXPECT_TRUE(all[0].points[2].ran);
}

TEST(Runner, PoolSizeIsTheThreadCount) {
  // Every worker runs whole load chains; the pool is exactly the thread
  // count asked for, or POLARSTAR_THREADS when none is given.
  EXPECT_EQ(runlab::ExperimentRunner(8).num_threads(), 8u);
  EXPECT_EQ(runlab::ExperimentRunner(1).num_threads(), 1u);
  ::setenv("POLARSTAR_THREADS", "3", 1);
  EXPECT_EQ(runlab::ExperimentRunner().num_threads(), 3u);
  ::unsetenv("POLARSTAR_THREADS");
  EXPECT_EQ(runlab::ExperimentRunner().num_threads(),
            runlab::configured_threads());
}

// POLARSTAR_METRICS_INTERVAL is read strictly, by the same rule as
// POLARSTAR_THREADS: decimal digits only and within range, else off.
TEST(Runner, MetricsIntervalParsesStrictly) {
  const auto interval_for = [](const char* v) {
    ::setenv("POLARSTAR_METRICS_INTERVAL", v, 1);
    const std::uint32_t parsed = runlab::configured_metrics_interval();
    EXPECT_EQ(runlab::ExperimentRunner(1).metrics_interval(), parsed) << v;
    return parsed;
  };
  EXPECT_EQ(interval_for("25"), 25u);
  EXPECT_EQ(interval_for("0"), 0u);
  EXPECT_EQ(interval_for("-1"), 0u);  // strtoul alone wraps to 4294967295
  EXPECT_EQ(interval_for("10x"), 0u);  // strtoul alone stops at 10
  EXPECT_EQ(interval_for("abc"), 0u);
  EXPECT_EQ(interval_for(""), 0u);
  EXPECT_EQ(interval_for("4294967295"), 4294967295u);
  EXPECT_EQ(interval_for("4294967296"), 0u);  // does not fit 32 bits
  ::unsetenv("POLARSTAR_METRICS_INTERVAL");
  EXPECT_EQ(runlab::configured_metrics_interval(), 0u);
}

TEST(Runner, SkippedCaseNeverRuns) {
  runlab::SweepCase c;
  c.name = "skipped";
  c.net = small_dragonfly();
  c.loads = {0.1, 0.2};
  c.skip = true;
  runlab::ExperimentRunner r(1);
  auto out = r.run("skip", {c});
  ASSERT_EQ(out[0].points.size(), 2u);
  EXPECT_FALSE(out[0].points[0].ran);
  EXPECT_FALSE(out[0].points[1].ran);
}

TEST(Runner, ParallelMatchesSerialBitForBit) {
  // The acceptance bar for the runner: identical SimResults whether the
  // sweep runs on one worker or four, including a UGAL case (thread_local
  // scratch) and a case with a separate pattern seed.
  auto df = small_dragonfly();
  auto ps = small_polarstar();

  std::vector<runlab::SweepCase> cases;
  runlab::SweepCase a;
  a.name = "DF-min";
  a.net = df;
  a.params = short_params(11);
  a.loads = {0.1, 0.3, 0.99};
  cases.push_back(a);

  runlab::SweepCase b;
  b.name = "DF-ugal";
  b.net = df;
  b.params = short_params(11);
  b.params.path_mode = sim::PathMode::kUgal;
  b.params.num_vcs = 8;
  b.loads = {0.1, 0.3};
  cases.push_back(b);

  runlab::SweepCase c;
  c.name = "PS-adv";
  c.net = ps;
  c.pattern = sim::Pattern::kAdversarial;
  c.params = short_params(11);
  c.pattern_seed = 17;
  c.loads = {0.1, 0.2};
  cases.push_back(c);

  runlab::ExperimentRunner serial(1);
  runlab::ExperimentRunner parallel(4);
  ASSERT_EQ(serial.num_threads(), 1u);
  ASSERT_EQ(parallel.num_threads(), 4u);
  auto rs = serial.run("determinism", cases);
  auto rp = parallel.run("determinism", cases);
  // And a repeat on the same pool: runs must not perturb each other.
  auto rp2 = parallel.run("determinism", cases);

  ASSERT_EQ(rs.size(), cases.size());
  ASSERT_EQ(rp.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(rs[i].points.size(), rp[i].points.size()) << cases[i].name;
    for (std::size_t j = 0; j < rs[i].points.size(); ++j) {
      EXPECT_EQ(rs[i].points[j].ran, rp[i].points[j].ran)
          << cases[i].name << " load " << cases[i].loads[j];
      if (!rs[i].points[j].ran) continue;
      EXPECT_TRUE(same_result(rs[i].points[j].result, rp[i].points[j].result))
          << cases[i].name << " load " << cases[i].loads[j];
      EXPECT_TRUE(same_result(rs[i].points[j].result, rp2[i].points[j].result))
          << cases[i].name << " load " << cases[i].loads[j] << " (rerun)";
    }
  }
}

TEST(Runner, PatternSeedChangesTheTraffic) {
  auto net = small_dragonfly();
  auto prm = short_params(11);
  runlab::PointSpec spec{.net = net.get(),
                         .pattern = sim::Pattern::kPermutation,
                         .load = 0.3,
                         .params = prm,
                         .trace = {}};
  auto a = runlab::run_point(spec);
  spec.pattern_seed = 17;
  auto b = runlab::run_point(spec);
  spec.pattern_seed = runlab::kSameSeed;
  auto c = runlab::run_point(spec);
  EXPECT_TRUE(same_result(a, c));
  EXPECT_FALSE(same_result(a, b));  // a different permutation was drawn
}

TEST(Runner, EmitsJsonRecords) {
  const std::string path = ::testing::TempDir() + "runlab_test.json";
  std::remove(path.c_str());
  {
    runlab::ExperimentRunner r(2);
    r.set_json_path(path);
    runlab::SweepCase c;
    c.name = "DF";
    c.net = small_dragonfly();
    c.pattern = sim::Pattern::kAdversarial;
    c.params = short_params();
    c.loads = {0.1, 0.9, 0.5};  // the 0.5 point is skipped -> not emitted
    r.run("json-sweep", {c});
  }  // destructor flushes
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  EXPECT_NE(body.find("\"sweep\": \"json-sweep\""), std::string::npos);
  EXPECT_NE(body.find("\"case\": \"DF\""), std::string::npos);
  EXPECT_NE(body.find("\"load\": 0.1"), std::string::npos);
  EXPECT_NE(body.find("\"mode\": \"min\""), std::string::npos);
  EXPECT_NE(body.find("\"wall_seconds\""), std::string::npos);
  // Exactly the two points that ran appear.
  std::size_t count = 0;
  for (std::size_t pos = body.find("\"load\""); pos != std::string::npos;
       pos = body.find("\"load\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
  std::remove(path.c_str());
}
