// Shared helpers for the figure-regeneration benches.
//
// Every bench binary regenerates one table or figure of the paper as an
// aligned text table. By default the simulation benches run a reduced-scale
// suite (same topology families, smaller parameters) so the whole bench
// directory completes in minutes; set POLARSTAR_FULL=1 to use the exact
// Table 3 configurations. Sweeps execute on the shared runlab runner, so
// POLARSTAR_THREADS controls parallelism and POLARSTAR_JSON captures every
// simulated point -- the printed tables are byte-identical either way.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/topology_zoo.h"
#include "core/bundlefly.h"
#include "core/polarstar.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "telemetry/collectors.h"
#include "topo/dragonfly.h"
#include "topo/fattree.h"
#include "topo/hyperx.h"
#include "topo/lps.h"
#include "topo/megafly.h"

namespace bench {

using namespace polarstar;

inline bool full_scale() {
  const char* v = std::getenv("POLARSTAR_FULL");
  return v != nullptr && v[0] == '1';
}

/// Time-axis sampling period (POLARSTAR_METRICS_INTERVAL, 0 = off). The
/// same variable already makes the shared runner attach a
/// TimeSeriesCollector to every point, so a bench that wants a
/// time-resolved table can print it straight from the sweep results it
/// already has -- no extra simulation. Parsed by the runner's own reader,
/// so the bench and the runner always agree on the value.
inline std::uint32_t metrics_interval() {
  return runlab::configured_metrics_interval();
}

/// One point's time series as an aligned table. Only the optional
/// POLARSTAR_METRICS_INTERVAL sections print this, so it never appears in
/// the golden tables.
inline void print_timeseries(const telemetry::TimeSeriesSummary& ts) {
  std::printf("%10s %10s %8s %8s %9s %8s %9s %9s %7s %7s %7s\n", "begin",
              "end", "inject", "eject", "avg_lat", "max_lat", "buffered",
              "in_flight", "drops", "retx", "lost");
  for (const auto& iv : ts.intervals) {
    std::printf(
        "%10llu %10llu %8llu %8llu %9.1f %8llu %9llu %9llu %7llu %7llu "
        "%7llu\n",
        static_cast<unsigned long long>(iv.begin_cycle),
        static_cast<unsigned long long>(iv.end_cycle),
        static_cast<unsigned long long>(iv.injected),
        static_cast<unsigned long long>(iv.ejected), iv.avg_latency,
        static_cast<unsigned long long>(iv.max_latency),
        static_cast<unsigned long long>(iv.buffered_flits),
        static_cast<unsigned long long>(iv.in_flight),
        static_cast<unsigned long long>(iv.dropped),
        static_cast<unsigned long long>(iv.retransmits),
        static_cast<unsigned long long>(iv.lost));
  }
}

/// The per-binary experiment runner. One instance per process so every
/// sweep shares the pool and all points land in one POLARSTAR_JSON file
/// (and all sampled flight records in one POLARSTAR_TRACE file).
inline runlab::ExperimentRunner& runner() {
  static runlab::ExperimentRunner r;
  return r;
}

/// Stall-table column header for one cause: the canonical to_string name
/// plus a doubled percent. The headers are printed through %s, so "%%"
/// stays two literal characters, exactly like the historical labels.
inline std::string stall_label(telemetry::StallCause cause) {
  return std::string(telemetry::to_string(cause)) + "%%";
}

/// A topology plus its routing scheme, ready to simulate. The Network
/// co-owns both, so this struct is just a name and two flags around it.
struct NamedTopo {
  std::string name;
  std::shared_ptr<const sim::Network> net;
  /// True = all minpaths used adaptively (the SF/BF/HX scheme, and FT's
  /// randomized up-route); false = one deterministic minpath per flow
  /// (PS/DF/MF).
  bool all_minpaths = false;
  /// Hierarchical topologies support the adversarial pattern.
  bool grouped = false;

  const topo::Topology& topology() const { return net->topology(); }
};

inline NamedTopo make_polarstar(const std::string& name,
                                core::PolarStarConfig cfg) {
  NamedTopo nt;
  nt.name = name;
  auto ps = std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  nt.net = std::make_shared<sim::Network>(core::shared_topology(ps),
                                          routing::make_polarstar_routing(ps));
  // PolarStar's minimal next hops come from the table-free analytic case
  // analysis (§9.2); the router adaptively picks among them, which needs
  // no stored tables -- unlike SF/BF, whose multipath requires them.
  nt.all_minpaths = true;
  nt.grouped = true;
  return nt;
}

inline NamedTopo make_table(const std::string& name, topo::Topology t,
                            bool all_minpaths, bool grouped) {
  NamedTopo nt;
  nt.name = name;
  auto topo = std::make_shared<const topo::Topology>(std::move(t));
  std::shared_ptr<const routing::MinimalRouting> routing;
  if (name == "DF") {
    // BookSim's built-in Dragonfly routing is hierarchical (one gateway
    // per group pair), not graph-minimal.
    routing = std::make_shared<routing::DragonflyRouting>(topo);
  } else {
    routing = routing::make_table_routing(topo->g);
  }
  nt.net = std::make_shared<sim::Network>(std::move(topo), std::move(routing));
  nt.all_minpaths = all_minpaths;
  nt.grouped = grouped;
  return nt;
}

/// The simulated suite: Table 3 when POLARSTAR_FULL=1, otherwise a
/// reduced-scale version of every family.
inline std::vector<NamedTopo> simulation_suite() {
  std::vector<NamedTopo> suite;
  if (full_scale()) {
    suite.push_back(make_polarstar(
        "PS-IQ", {11, 3, core::SupernodeKind::kInductiveQuad, 5}));
    suite.push_back(
        make_polarstar("PS-Pal", {8, 6, core::SupernodeKind::kPaley, 5}));
    suite.push_back(
        make_table("BF", core::bundlefly::build({7, 9, 5}), true, true));
    suite.push_back(
        make_table("HX", topo::hyperx::build({{9, 9, 8}, 8}), true, false));
    suite.push_back(
        make_table("DF", topo::dragonfly::build({12, 6, 6}), false, true));
    suite.push_back(
        make_table("SF", topo::lps::build({23, 13, 8}), true, false));
    suite.push_back(
        make_table("MF", topo::megafly::build({8, 8, 8}), false, true));
    suite.push_back(
        make_table("FT", topo::fattree::build({18}), true, true));
  } else {
    suite.push_back(make_polarstar(
        "PS-IQ", {5, 3, core::SupernodeKind::kInductiveQuad, 3}));
    suite.push_back(
        make_polarstar("PS-Pal", {4, 4, core::SupernodeKind::kPaley, 3}));
    suite.push_back(
        make_table("BF", core::bundlefly::build({5, 5, 3}), true, true));
    suite.push_back(
        make_table("HX", topo::hyperx::build({{4, 4, 5}, 3}), true, false));
    suite.push_back(
        make_table("DF", topo::dragonfly::build({7, 3, 3}), false, true));
    suite.push_back(
        make_table("SF", topo::lps::build({11, 5, 4}), true, false));
    suite.push_back(
        make_table("MF", topo::megafly::build({4, 4, 4}), false, true));
    suite.push_back(make_table("FT", topo::fattree::build({6}), true, true));
  }
  return suite;
}

struct SweepSettings {
  std::vector<double> loads = {0.05, 0.1, 0.2, 0.3, 0.4,
                               0.5,  0.6, 0.7, 0.8, 0.9};
  std::uint64_t warmup = 500, measure = 1500, drain = 8000;
  std::uint64_t seed = 11;
};

/// SimParams for one suite column of a sweep (the historical run_point
/// knobs: 8 VCs for UGAL, adaptive minpath pick iff the scheme has all
/// minpaths available).
inline sim::SimParams sweep_params(const NamedTopo& nt, sim::PathMode mode,
                                   const SweepSettings& s) {
  sim::SimParams prm;
  prm.warmup_cycles = s.warmup;
  prm.measure_cycles = s.measure;
  prm.drain_cycles = s.drain;
  prm.path_mode = mode;
  prm.num_vcs = mode == sim::PathMode::kUgal ? 8 : 4;
  prm.min_select = nt.all_minpaths ? sim::MinSelect::kAdaptive
                                   : sim::MinSelect::kSingleHash;
  prm.seed = s.seed;
  return prm;
}

inline runlab::SweepCase sweep_case(const NamedTopo& nt, sim::Pattern pattern,
                                    sim::PathMode mode,
                                    const SweepSettings& s) {
  runlab::SweepCase c;
  c.name = nt.name;
  c.net = nt.net;
  c.pattern = pattern;
  c.params = sweep_params(nt, mode, s);
  c.loads = s.loads;
  c.skip = pattern == sim::Pattern::kAdversarial && !nt.grouped;
  return c;
}

/// One (topology, pattern, load) point with the sweep knobs -- the serial
/// primitive behind print_sweep, kept for one-off measurements. The
/// optional collector observes the run (telemetry lands in
/// SimResult::telemetry).
inline sim::SimResult run_point(const NamedTopo& nt, sim::Pattern pattern,
                                double load, sim::PathMode mode,
                                const SweepSettings& s,
                                telemetry::Collector* collector = nullptr) {
  return runlab::run_point({.net = nt.net.get(),
                            .pattern = pattern,
                            .load = load,
                            .params = sweep_params(nt, mode, s),
                            .collector = collector,
                            .trace = {}});
}

/// Latency-vs-load sweep printed as one row per load; stops a column after
/// the first unstable (saturated) point, like the paper's plots. All
/// columns simulate concurrently on the shared runner; the table is
/// byte-identical to the old serial output.
inline void print_sweep(const std::vector<NamedTopo>& suite,
                        sim::Pattern pattern, sim::PathMode mode,
                        const SweepSettings& s,
                        const std::string& label = std::string()) {
  std::vector<runlab::SweepCase> cases;
  cases.reserve(suite.size());
  for (const auto& nt : suite) {
    cases.push_back(sweep_case(nt, pattern, mode, s));
  }
  const std::string sweep_label =
      !label.empty()
          ? label
          : std::string(sim::to_string(pattern)) + "-" +
                (mode == sim::PathMode::kUgal ? "ugal" : "min");
  const auto results = runner().run(sweep_label, cases);

  std::printf("%-8s", "load");
  for (const auto& nt : suite) std::printf(" %10s", nt.name.c_str());
  std::printf("\n");
  std::vector<bool> saturated(suite.size(), false);
  for (std::size_t j = 0; j < s.loads.size(); ++j) {
    std::printf("%-8.2f", s.loads[j]);
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (saturated[i]) {
        std::printf(" %10s", "-");
        continue;
      }
      if (cases[i].skip) {
        std::printf(" %10s", "n/a");
        saturated[i] = true;
        continue;
      }
      const auto& res = results[i].points[j].result;
      if (res.stable) {
        std::printf(" %10.1f", res.avg_packet_latency);
      } else {
        std::printf(" %9.2fS", res.accepted_flit_rate);  // saturation tput
        saturated[i] = true;
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
}

}  // namespace bench
