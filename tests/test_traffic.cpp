// Traffic pattern tests: destination functions, domain restrictions,
// injection-rate accounting, and the adversarial group pairing.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <set>

#include "core/polarstar.h"
#include "routing/routing.h"
#include "sim/arrivals.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "topo/dragonfly.h"

namespace sim = polarstar::sim;
namespace routing = polarstar::routing;
namespace topo = polarstar::topo;
namespace g = polarstar::graph;

namespace {

// A sim shell so destination() (which may need routing distances) works.
struct Shell {
  std::shared_ptr<const topo::Topology> t;
  std::shared_ptr<const sim::Network> net;
  std::unique_ptr<sim::Simulation> s;

  explicit Shell(topo::Topology topo_in, sim::TrafficSource& src)
      : t(std::make_shared<const topo::Topology>(std::move(topo_in))) {
    net = std::make_shared<sim::Network>(t, routing::make_table_routing(t->g));
    s = std::make_unique<sim::Simulation>(*net, sim::SimParams{}, src);
  }
};

struct NullSource final : sim::TrafficSource {
  void tick(sim::Simulation&) override {}
};

}  // namespace

TEST(Traffic, UniformNeverSelf) {
  auto t = topo::dragonfly::build({4, 2, 2});
  sim::PatternSource p(t, sim::Pattern::kUniform, 0.1, 4, 1);
  NullSource null;
  Shell shell(t, null);
  for (std::uint64_t e = 0; e < t.num_endpoints(); e += 7) {
    for (int i = 0; i < 50; ++i) {
      auto d = p.destination(e, *shell.s);
      EXPECT_NE(d, e);
      EXPECT_LT(d, t.num_endpoints());
    }
  }
}

TEST(Traffic, PermutationIsFixedAndConsistent) {
  auto t = topo::dragonfly::build({4, 2, 2});
  sim::PatternSource p(t, sim::Pattern::kPermutation, 0.1, 4, 5);
  NullSource null;
  Shell shell(t, null);
  std::map<g::Vertex, g::Vertex> router_map;
  for (std::uint64_t e = 0; e < t.num_endpoints(); ++e) {
    auto d1 = p.destination(e, *shell.s);
    auto d2 = p.destination(e, *shell.s);
    EXPECT_EQ(d1, d2);  // fixed mapping
    if (d1 == sim::PatternSource::kNoTraffic) continue;
    const auto sr = t.router_of_endpoint(e), dr = t.router_of_endpoint(d1);
    auto [it, fresh] = router_map.emplace(sr, dr);
    EXPECT_EQ(it->second, dr);  // all slots of a router go to tau(router)
  }
  // tau is injective on senders.
  std::set<g::Vertex> images;
  for (auto [s, d] : router_map) images.insert(d);
  EXPECT_EQ(images.size(), router_map.size());
}

TEST(Traffic, BitPatternsStayInPowerOfTwoDomain) {
  auto t = topo::dragonfly::build({4, 2, 2});  // 72 endpoints -> domain 64
  NullSource null;
  Shell shell(t, null);
  sim::PatternSource shuffle(t, sim::Pattern::kBitShuffle, 0.1, 4, 1);
  sim::PatternSource reverse(t, sim::Pattern::kBitReverse, 0.1, 4, 1);
  for (std::uint64_t e = 0; e < t.num_endpoints(); ++e) {
    auto ds = shuffle.destination(e, *shell.s);
    auto dr = reverse.destination(e, *shell.s);
    if (e >= 64) {
      EXPECT_EQ(ds, sim::PatternSource::kNoTraffic);
      EXPECT_EQ(dr, sim::PatternSource::kNoTraffic);
      continue;
    }
    if (ds != sim::PatternSource::kNoTraffic) {
      EXPECT_LT(ds, 64u);
    }
    if (dr != sim::PatternSource::kNoTraffic) {
      EXPECT_LT(dr, 64u);
    }
  }
  // Spot-check the definitions: shuffle(1) = 2 in 6 bits; reverse(1) = 32.
  EXPECT_EQ(shuffle.destination(1, *shell.s), 2u);
  EXPECT_EQ(reverse.destination(1, *shell.s), 32u);
  // Rotation wraps the top bit: shuffle(32) = 1.
  EXPECT_EQ(shuffle.destination(32, *shell.s), 1u);
}

TEST(Traffic, AdversarialPairsNeighborGroups) {
  auto t = topo::dragonfly::build({4, 2, 2});
  sim::PatternSource p(t, sim::Pattern::kAdversarial, 0.1, 4, 1);
  NullSource null;
  Shell shell(t, null);
  for (std::uint64_t e = 0; e < t.num_endpoints(); ++e) {
    auto d = p.destination(e, *shell.s);
    ASSERT_NE(d, sim::PatternSource::kNoTraffic);
    const auto sg = t.group_of[t.router_of_endpoint(e)];
    const auto dg = t.group_of[t.router_of_endpoint(d)];
    EXPECT_EQ(dg, (sg + 1) % 9);  // 9 groups in this config
  }
}

TEST(Traffic, AdversarialIsBijectiveBetweenPairedGroups) {
  auto ps = polarstar::core::PolarStar::build(
      {3, 3, polarstar::core::SupernodeKind::kInductiveQuad, 2});
  const auto& t = ps.topology();
  sim::PatternSource p(t, sim::Pattern::kAdversarial, 0.1, 4, 1);
  NullSource null;
  Shell shell(t, null);
  // Router-level mapping must be a bijection within the paired group, so
  // no destination router (or endpoint) gets more than its share.
  std::map<g::Vertex, g::Vertex> rmap;
  std::set<std::uint64_t> dst_eps;
  for (std::uint64_t e = 0; e < t.num_endpoints(); ++e) {
    auto d = p.destination(e, *shell.s);
    ASSERT_NE(d, sim::PatternSource::kNoTraffic);
    EXPECT_TRUE(dst_eps.insert(d).second) << "endpoint " << d << " reused";
    const auto sr = t.router_of_endpoint(e);
    const auto dr = t.router_of_endpoint(d);
    auto [it, fresh] = rmap.emplace(sr, dr);
    EXPECT_EQ(it->second, dr);
  }
  std::set<g::Vertex> images;
  for (auto [s, d] : rmap) images.insert(d);
  EXPECT_EQ(images.size(), rmap.size());
}

TEST(Traffic, AdversarialForcesLongPaths) {
  // The chosen shift maximizes total distance; on PolarStar the average
  // router-pair distance under the pattern must be close to the diameter.
  auto ps = polarstar::core::PolarStar::build(
      {4, 3, polarstar::core::SupernodeKind::kInductiveQuad, 2});
  const auto& t = ps.topology();
  sim::PatternSource p(t, sim::Pattern::kAdversarial, 0.1, 4, 1);
  NullSource null;
  Shell shell(t, null);
  double total = 0;
  std::uint64_t count = 0;
  for (std::uint64_t e = 0; e < t.num_endpoints(); e += t.conc[0]) {
    auto d = p.destination(e, *shell.s);
    total += shell.net->distance(t.router_of_endpoint(e),
                                 t.router_of_endpoint(d));
    ++count;
  }
  EXPECT_GT(total / static_cast<double>(count), 2.2);
}

TEST(Traffic, TornadoPairsAntipodalGroups) {
  auto t = topo::dragonfly::build({4, 2, 2});  // 9 groups
  sim::PatternSource p(t, sim::Pattern::kTornado, 0.1, 4, 1);
  NullSource null;
  Shell shell(t, null);
  for (std::uint64_t e = 0; e < t.num_endpoints(); ++e) {
    auto d = p.destination(e, *shell.s);
    ASSERT_NE(d, sim::PatternSource::kNoTraffic);
    const auto sg = t.group_of[t.router_of_endpoint(e)];
    const auto dg = t.group_of[t.router_of_endpoint(d)];
    EXPECT_EQ(dg, (sg + 4) % 9);
  }
}

TEST(Traffic, TornadoUngroupedFallsBackToEndpointShift) {
  topo::Topology t;
  std::vector<g::Edge> edges;
  for (g::Vertex v = 0; v < 8; ++v) edges.push_back({v, (v + 1) % 8});
  t.g = g::Graph::from_edges(8, edges);
  t.conc.assign(8, 1);
  t.finalize();
  sim::PatternSource p(t, sim::Pattern::kTornado, 0.1, 4, 1);
  NullSource null;
  Shell shell(t, null);
  EXPECT_EQ(p.destination(1, *shell.s), 5u);
  EXPECT_EQ(p.destination(6, *shell.s), 2u);
}

TEST(Traffic, HotspotConcentratesSomeTraffic) {
  auto t = topo::dragonfly::build({4, 2, 2});
  sim::PatternSource p(t, sim::Pattern::kHotspot, 0.1, 4, 7);
  NullSource null;
  Shell shell(t, null);
  std::map<std::uint64_t, int> histogram;
  for (int i = 0; i < 8000; ++i) {
    auto d = p.destination(i % t.num_endpoints(), *shell.s);
    ASSERT_NE(d, sim::PatternSource::kNoTraffic);
    histogram[d]++;
  }
  // The hottest endpoint must receive far more than the uniform share.
  int hottest = 0;
  for (auto [ep, c] : histogram) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, 3 * 8000 / static_cast<int>(t.num_endpoints()));
}

// Known-answer vectors of the reference Philox4x32-10 implementation
// (Random123's kat_vectors).
TEST(Traffic, PhiloxKnownAnswers) {
  using A4 = std::array<std::uint32_t, 4>;
  EXPECT_EQ(sim::philox4x32({0, 0, 0, 0}, {0, 0}),
            (A4{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}));
  EXPECT_EQ(sim::philox4x32({0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
                            {0xffffffff, 0xffffffff}),
            (A4{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}));
  EXPECT_EQ(sim::philox4x32({0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                            {0xa4093822, 0x299f31d0}),
            (A4{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}));
}

// Draw i of (stream, event) is a pure function of the key and the three
// indices: regenerating it in any order gives the same words.
TEST(Traffic, EventDrawsAreCounterBased) {
  const std::array<std::uint32_t, 2> key{7, 9};
  std::vector<std::uint64_t> first;
  sim::EventDraws a(key, 3, 11);
  for (int i = 0; i < 5; ++i) first.push_back(a());
  sim::EventDraws other(key, 4, 11);  // interleaved work on another stream
  other();
  sim::EventDraws b(key, 3, 11);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(b(), first[i]);
  EXPECT_NE(sim::EventDraws(key, 3, 12)(), first[0]);
}

// One endpoint's arrival gaps are Geometric(p) on {1, 2, ...}: the tail
// P(gap > k) = (1-p)^k, the memoryless law of a per-cycle Bernoulli coin.
TEST(Traffic, SkipAheadGapsAreGeometric) {
  const double p = 0.2;
  sim::BernoulliArrivals clock(1, p, 5);
  clock.start(0, [](std::uint64_t) { return true; });
  std::vector<std::uint64_t> arrivals;
  const std::uint64_t cycles = 200000;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    clock.fire(c, [&](std::uint64_t e, sim::EventDraws&) {
      EXPECT_EQ(e, 0u);
      arrivals.push_back(c);
    });
  }
  const double n = static_cast<double>(arrivals.size());
  EXPECT_NEAR(n / cycles, p, 4 * std::sqrt(p * (1 - p) / cycles));
  std::vector<std::uint64_t> tail(6, 0);  // tail[k] = #gaps > k
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    const std::uint64_t gap = arrivals[i] - arrivals[i - 1];
    ASSERT_GE(gap, 1u);
    for (std::uint64_t k = 0; k < tail.size(); ++k) tail[k] += gap > k;
  }
  for (std::uint64_t k = 1; k < tail.size(); ++k) {
    const double expect = std::pow(1 - p, static_cast<double>(k));
    const double got = static_cast<double>(tail[k]) / (n - 1);
    EXPECT_NEAR(got, expect, 4 * std::sqrt(expect * (1 - expect) / n))
        << "k=" << k;
  }
}

// Probability 1 fires every cycle; probability 0 (or an endpoint start()
// rejects) never fires.
TEST(Traffic, SkipAheadEdgeProbabilities) {
  for (const double p : {0.0, 1.0, 2.5}) {
    sim::BernoulliArrivals clock(3, p, 1);
    clock.start(10, [](std::uint64_t e) { return e != 1; });
    std::uint64_t fired = 0;
    for (std::uint64_t c = 10; c < 110; ++c) {
      clock.fire(c, [&](std::uint64_t e, sim::EventDraws&) {
        EXPECT_NE(e, 1u);
        ++fired;
      });
    }
    EXPECT_EQ(fired, p > 0 ? 200u : 0u) << "p=" << p;
  }
}

namespace {
// Counts the packets a source enqueues (the simulator delivers nothing
// while a source ticks, so the outstanding-count delta is the injections).
struct CountingSource final : sim::TrafficSource {
  explicit CountingSource(sim::TrafficSource& inner) : inner(&inner) {}
  void tick(sim::Simulation& s) override {
    const std::uint64_t before = s.outstanding_packets();
    inner->tick(s);
    injected += s.outstanding_packets() - before;
  }
  sim::TrafficSource* inner;
  std::uint64_t injected = 0;
};
}  // namespace

// The offered packet rate is the Bernoulli target within sampling error,
// at a low load where an endpoint injects about once in 80 cycles.
TEST(Traffic, SkipAheadOfferedLoadMatchesTarget) {
  auto t = std::make_shared<topo::Topology>(topo::dragonfly::build({4, 2, 2}));
  sim::Network net(t, routing::make_table_routing(t->g));
  sim::SimParams prm;
  prm.warmup_cycles = 0;
  prm.measure_cycles = 20000;
  prm.drain_cycles = 2000;
  const double rate = 0.05;
  auto src = sim::make_pattern_source(*t, sim::Pattern::kUniform, rate,
                                      prm.packet_flits, 3);
  CountingSource counting(*src);
  sim::Simulation s(net, prm, counting);
  const auto res = s.run();
  const double trials =
      static_cast<double>(t->num_endpoints()) * static_cast<double>(res.cycles);
  const double p = rate / prm.packet_flits;
  EXPECT_NEAR(static_cast<double>(counting.injected) / trials, p,
              4 * std::sqrt(p * (1 - p) / trials));
}

TEST(Traffic, InjectionRateMatchesBernoulli) {
  auto t = std::make_shared<topo::Topology>(topo::dragonfly::build({4, 2, 2}));
  auto r = routing::make_table_routing(t->g);
  sim::Network net(t, r);
  sim::SimParams prm;
  prm.warmup_cycles = 0;
  prm.measure_cycles = 2000;
  const double rate = 0.2;
  sim::PatternSource src(*t, sim::Pattern::kUniform, rate, prm.packet_flits, 3);
  sim::Simulation s(net, prm, src);
  auto res = s.run();
  // Offered 0.2 flits/cycle/endpoint; network must accept nearly all.
  EXPECT_NEAR(res.accepted_flit_rate, rate, 0.03);
}
