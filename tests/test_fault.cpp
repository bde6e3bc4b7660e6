// Live fault-injection tests (`ctest -L fault`): schedule determinism,
// fault-aware routing masking/fallback/repair, static-degradation
// equivalence, the union-find disconnection threshold, and the simulator's
// drop / retransmit / loss machinery incl. cross-thread determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fault_tolerance.h"
#include "core/polarstar.h"
#include "fault/degrade.h"
#include "fault/fault_routing.h"
#include "fault/schedule.h"
#include "graph/algorithms.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "topo/dragonfly.h"
#include "topo/hyperx.h"
#include "topo/jellyfish.h"

namespace fault = polarstar::fault;
namespace core = polarstar::core;
namespace analysis = polarstar::analysis;
namespace routing = polarstar::routing;
namespace runlab = polarstar::runlab;
namespace sim = polarstar::sim;
namespace topo = polarstar::topo;
namespace g = polarstar::graph;

namespace {

topo::Topology small_df() { return topo::dragonfly::build({4, 2, 2}); }

std::shared_ptr<const sim::Network> small_net() {
  auto t = std::make_shared<const topo::Topology>(small_df());
  return std::make_shared<sim::Network>(t, routing::make_table_routing(t->g));
}

sim::SimParams short_params(std::uint64_t seed = 11) {
  sim::SimParams p;
  p.warmup_cycles = 200;
  p.measure_cycles = 400;
  p.drain_cycles = 4000;
  p.seed = seed;
  return p;
}

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  return a.stable == b.stable && a.cycles == b.cycles &&
         a.packets_delivered == b.packets_delivered &&
         a.measured_packets == b.measured_packets &&
         a.avg_packet_latency == b.avg_packet_latency &&
         a.avg_hops == b.avg_hops &&
         a.accepted_flit_rate == b.accepted_flit_rate &&
         a.fault_events == b.fault_events &&
         a.packets_dropped == b.packets_dropped &&
         a.retransmits == b.retransmits &&
         a.packets_lost == b.packets_lost &&
         a.delivered_fraction == b.delivered_fraction;
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

TEST(FaultSchedule, RandomIsDeterministicAndSorted) {
  const auto t = small_df();
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.1;
  spec.router_failures = 2;
  spec.begin_cycle = 100;
  spec.end_cycle = 500;
  spec.repair_after = 50;
  const auto a = fault::FaultSchedule::random(t, spec, 7);
  const auto b = fault::FaultSchedule::random(t, spec, 7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].cycle, b.events()[i].cycle);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].a, b.events()[i].a);
    EXPECT_EQ(a.events()[i].b, b.events()[i].b);
  }
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a.events()[i - 1].cycle, a.events()[i].cycle);
  }
  // A different seed reorders the canonical failure prefix.
  const auto c = fault::FaultSchedule::random(t, spec, 8);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].a != c.events()[i].a ||
              a.events()[i].b != c.events()[i].b;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, RandomFailsTheCanonicalLinkPrefix) {
  const auto t = small_df();
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.2;
  const auto sched = fault::FaultSchedule::random(t, spec, 42);
  const auto order = fault::shuffled_edges(t.g, 42);
  const auto expected =
      static_cast<std::size_t>(0.2 * static_cast<double>(order.size()));
  std::size_t links = 0;
  for (const auto& ev : sched.events()) {
    if (ev.kind != fault::EventKind::kLinkDown) continue;
    const auto [u, v] = order[links];
    EXPECT_TRUE((ev.a == u && ev.b == v) || (ev.a == v && ev.b == u));
    ++links;
  }
  EXPECT_EQ(links, expected);
}

TEST(FaultSchedule, RandomRejectsFractionsOutsideUnitInterval) {
  const auto t = small_df();
  for (const double frac : {-0.1, 1.5, std::nan("")}) {
    fault::ScheduleSpec spec;
    spec.link_fail_fraction = frac;
    EXPECT_THROW(fault::FaultSchedule::random(t, spec, 1),
                 std::invalid_argument)
        << frac;
  }
  fault::ScheduleSpec all;
  all.link_fail_fraction = 1.0;
  EXPECT_EQ(fault::FaultSchedule::random(t, all, 1).size(), t.g.num_edges());
}

TEST(FaultSchedule, FromEventsStableSortsByCycle) {
  const auto s = fault::FaultSchedule::from_events(
      {{300, fault::EventKind::kLinkDown, 0, 1},
       {100, fault::EventKind::kLinkDown, 2, 3},
       {300, fault::EventKind::kLinkUp, 0, 1}});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0].cycle, 100u);
  // Same-cycle events keep their given order (down before up).
  EXPECT_EQ(s.events()[1].kind, fault::EventKind::kLinkDown);
  EXPECT_EQ(s.events()[2].kind, fault::EventKind::kLinkUp);
}

TEST(FaultAwareRouting, MasksDeadLinksAndRepairs) {
  // A 6-cycle: killing link (0,1) forces 0 -> 1 the long way round.
  topo::Topology t;
  t.g = g::Graph::from_edges(6,
                             {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  t.conc.assign(6, 1);
  t.finalize();
  auto tp = std::make_shared<const topo::Topology>(t);
  auto far = fault::make_fault_aware_routing(
      tp, routing::make_table_routing(tp->g));
  EXPECT_FALSE(far->degraded());
  EXPECT_EQ(far->distance(0, 1), 1u);

  far->apply({0, fault::EventKind::kLinkDown, 0, 1});
  // Uncommitted events stay invisible.
  EXPECT_EQ(far->distance(0, 1), 1u);
  far->commit();
  EXPECT_TRUE(far->degraded());
  EXPECT_FALSE(far->link_alive(0, 1));
  EXPECT_FALSE(far->link_alive(1, 0));
  EXPECT_EQ(far->distance(0, 1), 5u);
  std::vector<g::Vertex> hops;
  far->next_hops(0, 1, hops);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], 5u);

  far->apply({0, fault::EventKind::kLinkUp, 0, 1});
  far->commit();
  EXPECT_FALSE(far->degraded());
  EXPECT_EQ(far->distance(0, 1), 1u);
}

TEST(FaultAwareRouting, KeepsOnlyHopsStrictlyCloserOnSurvivorGraph) {
  // A 4-cycle 0-1-2-3 with link (1,2) down. From 0 toward 2 the base
  // scheme offers hops 1 and 3. Hop 1's link is alive and 1 still reaches
  // 2, but only the long way (survivor distance 3 vs 2 from 0): it is not
  // strictly closer, so only 3 survives the filter.
  topo::Topology t;
  t.g = g::Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  t.conc.assign(4, 1);
  t.finalize();
  auto tp = std::make_shared<const topo::Topology>(t);
  auto far = fault::make_fault_aware_routing(
      tp, routing::make_table_routing(tp->g));
  std::vector<g::Vertex> hops;
  far->next_hops(0, 2, hops);
  ASSERT_EQ(hops.size(), 2u);  // pristine: both ways round are minimal

  far->apply({0, fault::EventKind::kLinkDown, 1, 2});
  far->commit();
  ASSERT_TRUE(far->link_alive(0, 1));
  EXPECT_EQ(far->distance(1, 2), 3u);
  EXPECT_EQ(far->distance(0, 2), 2u);
  hops.clear();
  far->next_hops(0, 2, hops);
  EXPECT_EQ(hops, std::vector<g::Vertex>{3});
}

TEST(FaultAwareRouting, RouterDownKillsIncidentLinksAndPartitions) {
  // A path 0-1-2: killing router 1 partitions 0 from 2.
  topo::Topology t;
  t.g = g::Graph::from_edges(3, {{0, 1}, {1, 2}});
  t.conc.assign(3, 1);
  t.finalize();
  auto tp = std::make_shared<const topo::Topology>(t);
  auto far = fault::make_fault_aware_routing(
      tp, routing::make_table_routing(tp->g));
  far->apply({0, fault::EventKind::kRouterDown, 1, 0});
  far->commit();
  EXPECT_FALSE(far->router_alive(1));
  EXPECT_FALSE(far->link_alive(0, 1));
  EXPECT_EQ(far->distance(0, 2), g::kUnreachable);
  std::vector<g::Vertex> hops;
  far->next_hops(0, 2, hops);
  EXPECT_TRUE(hops.empty());

  far->apply({0, fault::EventKind::kRouterUp, 1, 0});
  far->commit();
  EXPECT_FALSE(far->degraded());
  EXPECT_EQ(far->distance(0, 2), 2u);
}

TEST(FaultAwareRouting, RejectsEventsThatDoNotFitTheTopology) {
  const auto t = std::make_shared<const topo::Topology>(small_df());
  const g::Vertex n = t->num_routers();
  g::Vertex far_away = 1;  // some router not adjacent to router 0
  while (t->g.has_edge(0, far_away)) ++far_away;
  const std::vector<fault::FaultEvent> bad = {
      {5, fault::EventKind::kRouterDown, n, 0},
      {5, fault::EventKind::kLinkDown, 0, n + 3},
      {5, fault::EventKind::kLinkUp, n, 0},
      {5, fault::EventKind::kLinkDown, 0, far_away},
      {5, fault::EventKind::kLinkDown, 2, 2},
  };
  auto far = fault::make_fault_aware_routing(
      t, routing::make_table_routing(t->g));
  for (const auto& ev : bad) {
    EXPECT_THROW(far->apply(ev), std::invalid_argument);
    EXPECT_THROW(fault::check_event(*t, ev), std::invalid_argument);
  }
  // Nothing was folded in: the next commit is a no-op.
  far->commit();
  EXPECT_EQ(far->epoch(), 0u);
  EXPECT_FALSE(far->degraded());
  try {
    far->apply(bad[3]);
    ADD_FAILURE() << "non-adjacent link event accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("link-down 0-" + std::to_string(far_away)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("not adjacent"), std::string::npos) << what;
  }
}

TEST(SimFault, ConstructorRejectsAMalformedSchedule) {
  auto net = small_net();
  const auto sched = fault::FaultSchedule::from_events(
      {{100, fault::EventKind::kLinkDown, 0, 1},
       {1u << 30, fault::EventKind::kRouterDown, net->num_routers(), 0}});
  auto prm = short_params();
  prm.faults = &sched;
  auto src = sim::make_pattern_source(net->topology(), sim::Pattern::kUniform,
                                      0.1, prm.packet_flits, 3);
  EXPECT_THROW(sim::Simulation(*net, prm, *src).run(), std::invalid_argument);
}

// The survivor tables against a from-scratch oracle. Both engines share one
// FaultAwareRouting, so reference_impl cannot catch a wrong incremental
// update: this test is the oracle. Every commit of a random mix of link and
// router failures and repairs (multi-event batches, returns to pristine, a
// partition) must leave distance(), the fallback hops and storage_entries()
// equal to a fresh DistanceMatrix / MinimalNextHops of the survivor graph,
// and DistanceMatrix::update fed the same edge diff must equal a fresh build.
TEST(FaultAwareRouting, SurvivorTablesMatchAFreshBuildUnderRandomBatches) {
  struct Family {
    std::string name;
    std::shared_ptr<const topo::Topology> topo;
    std::shared_ptr<const routing::MinimalRouting> base;
  };
  std::vector<Family> families;
  {
    auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(
        {3, 3, core::SupernodeKind::kInductiveQuad, 1}));
    families.push_back({"PS-IQ", core::shared_topology(ps),
                        routing::make_polarstar_routing(ps)});
    auto df = std::make_shared<const topo::Topology>(small_df());
    families.push_back(
        {"DF", df, std::make_shared<routing::DragonflyRouting>(df)});
    for (auto t : {topo::hyperx::build({{3, 3, 4}, 1}),
                   topo::jellyfish::build({40, 5, 1, 3})}) {
      auto tp = std::make_shared<const topo::Topology>(std::move(t));
      families.push_back({tp->name, tp, routing::make_table_routing(tp->g)});
    }
  }
  std::mt19937_64 rng(2024);
  for (const auto& fam : families) {
    SCOPED_TRACE(fam.name);
    const auto& tg = fam.topo->g;
    const g::Vertex n = tg.num_vertices();
    const auto edges = tg.edge_list();
    auto far = fault::make_fault_aware_routing(fam.topo, fam.base);
    std::set<g::Edge> failed;
    std::set<g::Vertex> dead;
    std::set<g::Edge> prev_dead_edges;
    g::DistanceMatrix incremental;  // empty: the first update is a sweep
    const auto pick = [&](std::size_t k) {
      return static_cast<std::size_t>(rng() % k);
    };
    for (int batch = 0; batch < 50; ++batch) {
      std::vector<fault::FaultEvent> evs;
      if (batch % 12 == 11) {
        // Repair everything back to pristine.
        for (const auto& [u, v] : failed) {
          evs.push_back({0, fault::EventKind::kLinkUp, u, v});
        }
        for (const g::Vertex r : dead) {
          evs.push_back({0, fault::EventKind::kRouterUp, r, 0});
        }
      } else if (batch == 5) {
        // Cut every link of one router: a partition of live routers.
        const g::Vertex r = static_cast<g::Vertex>(pick(n));
        for (const g::Vertex w : tg.neighbors(r)) {
          evs.push_back({0, fault::EventKind::kLinkDown, r, w});
        }
      } else {
        const std::size_t k = 1 + pick(4);
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t what = pick(10);
          if (what < 5) {
            const auto [u, v] = edges[pick(edges.size())];
            evs.push_back({0, fault::EventKind::kLinkDown, v, u});
          } else if (what < 7 && !failed.empty()) {
            auto it = failed.begin();
            std::advance(it, pick(failed.size()));
            evs.push_back({0, fault::EventKind::kLinkUp, it->first,
                           it->second});
          } else if (what < 8) {
            evs.push_back({0, fault::EventKind::kRouterDown,
                           static_cast<g::Vertex>(pick(n)), 0});
          } else if (what < 9 && !dead.empty()) {
            auto it = dead.begin();
            std::advance(it, pick(dead.size()));
            evs.push_back({0, fault::EventKind::kRouterUp, *it, 0});
          } else {
            // Down and up within one batch: no net change for that link.
            const auto [u, v] = edges[pick(edges.size())];
            if (failed.count({u, v}) == 0) {
              evs.push_back({0, fault::EventKind::kLinkDown, u, v});
              evs.push_back({0, fault::EventKind::kLinkUp, u, v});
            }
          }
        }
      }
      for (const auto& ev : evs) {
        far->apply(ev);
        const g::Edge e{std::min(ev.a, ev.b), std::max(ev.a, ev.b)};
        switch (ev.kind) {
          case fault::EventKind::kLinkDown: failed.insert(e); break;
          case fault::EventKind::kLinkUp: failed.erase(e); break;
          case fault::EventKind::kRouterDown: dead.insert(ev.a); break;
          case fault::EventKind::kRouterUp: dead.erase(ev.a); break;
        }
      }
      far->commit();
      SCOPED_TRACE("batch " + std::to_string(batch));

      std::set<g::Edge> dead_edges = failed;
      for (const auto& [u, v] : edges) {
        if (dead.count(u) != 0 || dead.count(v) != 0) dead_edges.insert({u, v});
      }
      const g::Graph surv = tg.remove_edges(
          std::vector<g::Edge>(dead_edges.begin(), dead_edges.end()));
      const g::DistanceMatrix fresh(surv, 1);
      const g::MinimalNextHops hops(surv, fresh);

      std::vector<g::Edge> removed, added;
      std::set_difference(dead_edges.begin(), dead_edges.end(),
                          prev_dead_edges.begin(), prev_dead_edges.end(),
                          std::back_inserter(removed));
      std::set_difference(prev_dead_edges.begin(), prev_dead_edges.end(),
                          dead_edges.begin(), dead_edges.end(),
                          std::back_inserter(added));
      incremental.update(surv, removed, added, 1);
      prev_dead_edges = dead_edges;

      ASSERT_EQ(far->degraded(), !dead_edges.empty() || !dead.empty());
      if (!far->degraded()) {
        EXPECT_EQ(far->storage_entries(), fam.base->storage_entries());
      } else {
        EXPECT_EQ(far->storage_entries(),
                  fam.base->storage_entries() + hops.storage_entries());
      }
      struct NoCandidates {
        std::span<const g::Vertex> candidates() const { return {}; }
        g::Vertex neighbor(g::Vertex h) const { return h; }
        bool alive(g::Vertex) const { return true; }
        void keep(g::Vertex) {}
      } none;
      // One assertion per commit (per-pair gtest macros are slow in Debug).
      std::size_t mismatches = 0;
      std::string first;
      const auto check = [&](bool ok, const char* what, g::Vertex s,
                             g::Vertex d) {
        if (ok || mismatches++ > 0) return;
        first = std::string(what) + " " + std::to_string(s) + "->" +
                std::to_string(d);
      };
      std::vector<g::Vertex> fallback;
      for (g::Vertex s = 0; s < n; ++s) {
        for (g::Vertex d = 0; d < n; ++d) {
          check(incremental.at(s, d) == fresh.at(s, d), "update", s, d);
          if (!far->degraded()) continue;
          const bool down = dead.count(s) != 0 || dead.count(d) != 0;
          check(far->distance(s, d) ==
                    (down ? g::kUnreachable : fresh.distance(s, d)),
                "distance", s, d);
          fallback.clear();
          far->survivor_filter(s, d, none, fallback);
          const auto want = hops.next_hops(s, d);
          check(std::equal(fallback.begin(), fallback.end(), want.begin(),
                           want.end()),
                "fallback", s, d);
        }
      }
      ASSERT_EQ(mismatches, 0u) << "first: " << first;
    }
    EXPECT_EQ(far->epoch(), 50u);
  }
}

TEST(Degrade, RemovesTheShuffledPrefix) {
  const auto t = small_df();
  const std::uint64_t seed = 77;
  const double frac = 0.15;
  const auto order = fault::shuffled_edges(t.g, seed);
  auto removed = order;
  removed.resize(static_cast<std::size_t>(frac *
                                          static_cast<double>(order.size())));
  const auto expected = t.g.remove_edges(removed);
  const auto degraded = fault::degrade(t, frac, seed);
  EXPECT_EQ(degraded.g.edge_list(), expected.edge_list());
  // frac = 0 is the identity.
  EXPECT_EQ(fault::degrade(t, 0.0, seed).g.num_edges(), t.g.num_edges());
}

TEST(Analysis, DisconnectionRatioMatchesBruteForce) {
  // fault_tolerance's union-find threshold must equal the smallest
  // disconnecting prefix found by exhaustive BFS probing.
  const auto t = small_df();
  const auto edges = t.g.edge_list();
  const std::size_t m = edges.size();
  const std::uint64_t seed = 5;
  const std::uint32_t scenarios = 4;

  std::vector<double> expected;
  for (std::uint32_t s = 0; s < scenarios; ++s) {
    const auto order = fault::shuffled_edges(t.g, seed + s);
    std::size_t threshold = m;
    for (std::size_t k = 1; k <= m; ++k) {
      std::vector<g::Edge> removed(order.begin(),
                                   order.begin() +
                                       static_cast<std::ptrdiff_t>(k));
      const auto survivor = t.g.remove_edges(removed);
      const auto d = g::bfs_distances(survivor, 0);
      bool connected = true;
      for (g::Vertex v = 0; v < survivor.num_vertices(); ++v) {
        if (t.conc[v] > 0 && d[v] == g::kUnreachable) connected = false;
      }
      if (!connected) {
        threshold = k;
        break;
      }
    }
    expected.push_back(static_cast<double>(threshold) /
                       static_cast<double>(m));
  }
  std::sort(expected.begin(), expected.end());

  const auto report = analysis::fault_tolerance(t, {}, scenarios, seed);
  ASSERT_EQ(report.disconnection_ratios.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(report.disconnection_ratios[i], expected[i]);
  }
}

TEST(SimFault, FutureScheduleIsInvariant) {
  // A schedule whose first event lies beyond the run must not perturb a
  // single bit of the result relative to running with no schedule at all.
  auto net = small_net();
  const auto prm = short_params();
  const auto base = runlab::run_point(
      {.net = net.get(), .load = 0.3, .params = prm});
  const auto sched = fault::FaultSchedule::from_events(
      {{1u << 30, fault::EventKind::kLinkDown, 0, 1}});
  auto faulted_prm = prm;
  faulted_prm.faults = &sched;
  const auto res = runlab::run_point(
      {.net = net.get(), .load = 0.3, .params = faulted_prm});
  EXPECT_TRUE(same_result(base, res));
  EXPECT_EQ(res.fault_events, 0u);
  EXPECT_EQ(res.delivered_fraction, 1.0);
}

TEST(SimFault, LinkFaultWithRepairDeliversEverything) {
  auto net = small_net();
  // Fail a whole batch of links at once so some packet is guaranteed to be
  // mid-flight (or head-of-line with a stale route) on one of them.
  const auto order = fault::shuffled_edges(net->topology().g, 9);
  std::vector<fault::FaultEvent> events;
  for (std::size_t i = 0; i < 8; ++i) {
    events.push_back(
        {300, fault::EventKind::kLinkDown, order[i].first, order[i].second});
    events.push_back(
        {450, fault::EventKind::kLinkUp, order[i].first, order[i].second});
  }
  const auto sched = fault::FaultSchedule::from_events(std::move(events));
  auto prm = short_params();
  prm.faults = &sched;
  prm.paranoid_checks = true;  // invariants must hold through purge/retx
  const auto res = runlab::run_point(
      {.net = net.get(), .load = 0.3, .params = prm});
  EXPECT_EQ(res.fault_events, 16u);
  EXPECT_GT(res.packets_dropped, 0u);
  EXPECT_GT(res.retransmits, 0u);
  EXPECT_EQ(res.packets_lost, 0u);
  EXPECT_EQ(res.delivered_fraction, 1.0);
  EXPECT_TRUE(res.stable);
}

TEST(SimFault, RouterDeathLosesPackets) {
  auto net = small_net();
  // Kill one endpoint-carrying router permanently mid-measurement.
  const auto sched = fault::FaultSchedule::from_events(
      {{300, fault::EventKind::kRouterDown, 0, 0}});
  auto prm = short_params();
  prm.faults = &sched;
  const auto res = runlab::run_point(
      {.net = net.get(), .load = 0.3, .params = prm});
  EXPECT_EQ(res.fault_events, 1u);
  EXPECT_GT(res.packets_lost, 0u);
  EXPECT_LT(res.delivered_fraction, 1.0);
  EXPECT_GT(res.delivered_fraction, 0.0);
}

TEST(SimFault, FaultedRunsAreDeterministic) {
  auto net = small_net();
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.router_failures = 1;
  spec.begin_cycle = 250;
  spec.end_cycle = 550;
  const auto sched = fault::FaultSchedule::random(net->topology(), spec, 3);
  auto prm = short_params();
  prm.faults = &sched;
  const auto a = runlab::run_point(
      {.net = net.get(), .load = 0.3, .params = prm});
  const auto b = runlab::run_point(
      {.net = net.get(), .load = 0.3, .params = prm});
  EXPECT_TRUE(same_result(a, b));
  EXPECT_GT(a.fault_events, 0u);
}

TEST(FaultRunner, AvailabilitySweepBitIdenticalAcrossThreads) {
  auto net = small_net();
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = 0.05;
  spec.router_failures = 1;
  spec.begin_cycle = 250;
  spec.end_cycle = 550;
  auto sched = std::make_shared<const fault::FaultSchedule>(
      fault::FaultSchedule::random(net->topology(), spec, 3));

  std::vector<runlab::SweepCase> cases;
  runlab::SweepCase healthy;
  healthy.name = "healthy";
  healthy.net = net;
  healthy.params = short_params();
  healthy.loads = {0.1, 0.3};
  healthy.stop_after_saturation = false;
  cases.push_back(healthy);
  runlab::SweepCase faulted = healthy;
  faulted.name = "faulted";
  faulted.faults = sched;
  cases.push_back(faulted);

  const std::string json1 = ::testing::TempDir() + "fault_t1.json";
  const std::string json4 = ::testing::TempDir() + "fault_t4.json";
  const std::string trace1 = ::testing::TempDir() + "fault_t1.trace";
  const std::string trace4 = ::testing::TempDir() + "fault_t4.trace";
  std::vector<runlab::CaseResult> rs, rp;
  {
    runlab::ExperimentRunner serial(1);
    serial.set_json_path(json1);
    serial.set_trace_path(trace1);
    rs = serial.run("availability", cases);
  }
  {
    runlab::ExperimentRunner parallel(4);
    parallel.set_json_path(json4);
    parallel.set_trace_path(trace4);
    rp = parallel.run("availability", cases);
  }

  ASSERT_EQ(rs.size(), rp.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    ASSERT_EQ(rs[i].points.size(), rp[i].points.size());
    for (std::size_t j = 0; j < rs[i].points.size(); ++j) {
      EXPECT_TRUE(
          same_result(rs[i].points[j].result, rp[i].points[j].result))
          << cases[i].name << " load " << cases[i].loads[j];
    }
  }
  // The faulted chain really was degraded...
  EXPECT_GT(rs[1].points[0].result.fault_events, 0u);
  EXPECT_LT(rs[1].points[0].result.delivered_fraction, 1.0);
  // ...and the healthy one untouched.
  EXPECT_EQ(rs[0].points[0].result.fault_events, 0u);
  EXPECT_EQ(rs[0].points[0].result.delivered_fraction, 1.0);

  // JSON (modulo wall clock) and the Perfetto trace are byte-identical.
  const std::string b1 = strip_wall_seconds(read_file(json1));
  const std::string b4 = strip_wall_seconds(read_file(json4));
  EXPECT_EQ(b1, b4);
  EXPECT_NE(b1.find("\"schema\": 9"), std::string::npos);
  EXPECT_NE(b1.find("\"fault\": {"), std::string::npos);
  EXPECT_NE(b1.find("\"delivered_fraction\": "), std::string::npos);
  EXPECT_EQ(read_file(trace1), read_file(trace4));
  EXPECT_NE(read_file(trace1).find("\"cat\":\"fault\""), std::string::npos);
  for (const auto& p : {json1, json4, trace1, trace4}) {
    std::remove(p.c_str());
  }
}
