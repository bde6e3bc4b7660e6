// POLARSTAR_JSON validation: run a sweep with telemetry through the
// ExperimentRunner, parse the emitted file with the in-repo JSON parser,
// and check the current schema (8) plus a round-trip of the values against
// the in-memory results. Doubles as the parser's own test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "io/json.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/simulation.h"
#include "telemetry/collectors.h"
#include "topo/dragonfly.h"

namespace sim = polarstar::sim;
namespace routing = polarstar::routing;
namespace topo = polarstar::topo;
namespace telemetry = polarstar::telemetry;
namespace runlab = polarstar::runlab;
namespace json = polarstar::io::json;

namespace {

std::shared_ptr<const sim::Network> small_dragonfly() {
  auto t = std::make_shared<const topo::Topology>(
      topo::dragonfly::build({4, 2, 2}));
  return std::make_shared<sim::Network>(t, routing::make_table_routing(t->g));
}

const json::Value& require(const json::Value& obj, const std::string& key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error("missing key: " + key);
  return *v;
}

}  // namespace

TEST(JsonParser, ParsesScalarsArraysObjects) {
  auto v = json::parse(R"({"a": [1, 2.5, -3e2], "b": {"s": "x\ny"},)"
                       R"( "t": true, "f": false, "n": null})");
  ASSERT_TRUE(v.is_object());
  const auto& a = require(v, "a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].as_number(), 1.0);
  EXPECT_EQ(a[1].as_number(), 2.5);
  EXPECT_EQ(a[2].as_number(), -300.0);
  EXPECT_EQ(require(require(v, "b"), "s").as_string(), "x\ny");
  EXPECT_TRUE(require(v, "t").as_bool());
  EXPECT_FALSE(require(v, "f").as_bool());
  EXPECT_TRUE(require(v, "n").is_null());
}

TEST(JsonParser, RejectsMalformedDocuments) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(json::parse("12 34"), std::runtime_error);
  EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(json::parse("trye"), std::runtime_error);
}

// \uXXXX escapes (RFC 8259 §7): BMP code points decode to UTF-8 directly,
// supplementary-plane ones through surrogate pairs; lone or truncated
// surrogates are malformed. Regression test -- the parser used to reject
// every \u escape.
TEST(JsonParser, DecodesUnicodeEscapes) {
  EXPECT_EQ(json::parse("\"\\u0041z\"").as_string(), "Az");
  EXPECT_EQ(json::parse("\"\\u00e9\"").as_string(), "\xC3\xA9");  // e-acute
  EXPECT_EQ(json::parse("\"\\u20AC\"").as_string(),
            "\xE2\x82\xAC");  // euro sign, 3-byte UTF-8
  EXPECT_EQ(json::parse("\"\\u0000x\"").as_string(), std::string("\0x", 2));
  // Surrogate pair: U+1F600 (grinning face emoji).
  EXPECT_EQ(json::parse("\"\\uD83D\\uDE00\"").as_string(),
            "\xF0\x9F\x98\x80");
  EXPECT_EQ(json::parse("{\"\\u006bey\": 1}").find("key")->as_number(),
            1.0);  // escapes decode inside object keys too
  EXPECT_THROW(json::parse("\"\\u12\""), std::runtime_error);    // truncated
  EXPECT_THROW(json::parse("\"\\u12G4\""), std::runtime_error);  // bad hex
  EXPECT_THROW(json::parse("\"\\uD83D\""), std::runtime_error);  // lone high
  EXPECT_THROW(json::parse("\"\\uDE00\""), std::runtime_error);  // lone low
  EXPECT_THROW(json::parse("\"\\uD83Dx\""), std::runtime_error);
  EXPECT_THROW(json::parse("\"\\uD83D\\u0041\""),
               std::runtime_error);  // high chased by a non-surrogate
}

TEST(JsonSchema, V3RoundTripsThroughTheRunner) {
  const std::string path = ::testing::TempDir() + "schema_test.json";
  std::remove(path.c_str());

  std::vector<runlab::CaseResult> results;
  runlab::SweepCase c;
  {
    runlab::ExperimentRunner r(2);
    r.set_json_path(path);
    c.name = "DF";
    c.net = small_dragonfly();
    c.params.warmup_cycles = 200;
    c.params.measure_cycles = 400;
    c.params.drain_cycles = 2000;
    c.params.seed = 11;
    c.params.path_mode = sim::PathMode::kUgal;
    c.params.num_vcs = 8;
    c.loads = {0.1, 0.3};
    c.make_collector = [](std::size_t) {
      return std::make_unique<telemetry::FullCollector>();
    };
    results = r.run("schema-test", {c});
  }  // destructor flushes the file

  const auto doc = json::parse_file(path);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(require(doc, "schema").as_number(), 8.0);
  const auto& points = require(doc, "points").as_array();
  ASSERT_EQ(points.size(), 2u);

  for (std::size_t j = 0; j < points.size(); ++j) {
    const auto& p = points[j];
    ASSERT_TRUE(p.is_object()) << "point " << j;
    EXPECT_EQ(require(p, "sweep").as_string(), "schema-test");
    EXPECT_EQ(require(p, "case").as_string(), "DF");
    EXPECT_EQ(require(p, "mode").as_string(), "ugal");
    EXPECT_EQ(require(p, "pattern").as_string(), "uniform");
    EXPECT_TRUE(require(p, "stable").is_bool());
    EXPECT_TRUE(require(p, "deadlock").is_bool());
    EXPECT_GT(require(p, "wall_seconds").as_number(), 0.0);

    // Round-trip against the in-memory result of the same point.
    const auto& res = results[0].points[j].result;
    EXPECT_EQ(require(p, "load").as_number(), c.loads[j]);
    EXPECT_EQ(require(p, "cycles").as_number(),
              static_cast<double>(res.cycles));
    EXPECT_EQ(require(p, "measured_packets").as_number(),
              static_cast<double>(res.measured_packets));
    EXPECT_EQ(require(p, "stable").as_bool(), res.stable);
    // Doubles go through operator<< at default precision (6 significant
    // digits), so compare loosely.
    EXPECT_NEAR(require(p, "avg_latency").as_number(),
                res.avg_packet_latency,
                1e-4 * (1.0 + std::abs(res.avg_packet_latency)));
    // The percentile columns, ordered like any sane latency CDF.
    EXPECT_LE(require(p, "p50_latency").as_number(),
              require(p, "p99_latency").as_number());
    EXPECT_LE(require(p, "p99_latency").as_number(),
              require(p, "p999_latency").as_number());

    // The telemetry block: present (a FullCollector ran) with every
    // sub-block, values round-tripping exactly for the integer counters.
    const auto& t = require(p, "telemetry");
    ASSERT_TRUE(t.is_object());
    const auto& link = require(t, "link");
    EXPECT_EQ(require(link, "total_flits").as_number(),
              static_cast<double>(res.telemetry.link.total_flits));
    EXPECT_EQ(require(link, "num_links").as_number(),
              static_cast<double>(res.telemetry.link.num_links));
    EXPECT_GT(require(link, "max_avg_ratio").as_number(), 0.0);
    const auto& stall = require(t, "stall");
    const double port_cycles =
        require(stall, "busy").as_number() +
        require(stall, "credit_starved").as_number() +
        require(stall, "vc_blocked").as_number() +
        require(stall, "arbitration_lost").as_number() +
        require(stall, "idle").as_number();
    EXPECT_EQ(port_cycles,
              static_cast<double>(res.telemetry.link.num_links) *
                  static_cast<double>(c.params.measure_cycles));
    const auto& ugal = require(t, "ugal");
    EXPECT_EQ(require(ugal, "decisions").as_number(),
              require(ugal, "valiant").as_number() +
                  require(ugal, "minimal_no_better").as_number() +
                  require(ugal, "minimal_no_candidate").as_number());
    const auto& occ = require(t, "occupancy");
    EXPECT_GT(require(occ, "samples").as_number(), 0.0);
    // FullCollector bundles the latency histogram.
    const auto& lat = require(t, "latency");
    EXPECT_EQ(require(lat, "packets").as_number(),
              static_cast<double>(res.telemetry.latency.packets));
    EXPECT_LE(require(lat, "p50").as_number(),
              require(lat, "p999").as_number());
  }
  std::remove(path.c_str());
}

TEST(JsonSchema, PointsWithoutTelemetryOmitTheBlock) {
  const std::string path = ::testing::TempDir() + "schema_plain.json";
  std::remove(path.c_str());
  {
    runlab::ExperimentRunner r(1);
    r.set_json_path(path);
    runlab::SweepCase c;
    c.name = "DF";
    c.net = small_dragonfly();
    c.params.warmup_cycles = 200;
    c.params.measure_cycles = 400;
    c.params.drain_cycles = 2000;
    c.loads = {0.1};
    r.run("plain", {c});
  }
  const auto doc = json::parse_file(path);
  EXPECT_EQ(require(doc, "schema").as_number(), 8.0);
  const auto& points = require(doc, "points").as_array();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].find("telemetry"), nullptr);
  EXPECT_EQ(require(points[0], "mode").as_string(), "min");
  std::remove(path.c_str());
}
