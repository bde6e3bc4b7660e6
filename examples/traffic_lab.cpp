// Traffic laboratory: run any Table 3 topology under any synthetic pattern
// and routing mode at a chosen load, and print the steady-state metrics.
//
//   ./example_traffic_lab [topo] [pattern] [mode] [load]
//     topo:    PS-IQ PS-Pal BF HX DF SF MF FT     (default PS-IQ)
//     pattern: uniform permutation shuffle reverse adversarial
//     mode:    min ugal
//     load:    flits/cycle/endpoint in (0, 1]     (default 0.3)
//
// Note: Table 3 configurations are ~650-1100 routers; a single run takes a
// few seconds.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>

#include "analysis/topology_zoo.h"
#include "core/polarstar.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "sim/simulation.h"
#include "sim/traffic.h"

int main(int argc, char** argv) {
  using namespace polarstar;
  const std::string topo_name = argc > 1 ? argv[1] : "PS-IQ";
  const std::string pattern_name = argc > 2 ? argv[2] : "uniform";
  const std::string mode_name = argc > 3 ? argv[3] : "min";
  const double load = argc > 4 ? std::atof(argv[4]) : 0.3;

  const auto parsed = sim::pattern_from_string(pattern_name);
  if (!parsed) {
    std::cerr << "unknown pattern " << pattern_name
              << "; valid: " << sim::pattern_names() << "\n";
    return 1;
  }
  const sim::Pattern pattern = *parsed;

  // PolarStar rows take the topology and the paper's analytic routing from
  // one build; DF uses its hierarchical routing, everything else
  // all-minpath tables.
  std::shared_ptr<const topo::Topology> topo;
  std::shared_ptr<const routing::MinimalRouting> route;
  if (const auto cfg = analysis::table3_polarstar(topo_name)) {
    auto ps =
        std::make_shared<const core::PolarStar>(core::PolarStar::build(*cfg));
    topo = core::shared_topology(ps);
    route = routing::make_polarstar_routing(ps);
  } else {
    topo = std::make_shared<const topo::Topology>(
        analysis::build_table3(topo_name));
    if (topo_name == "DF") {
      route = std::make_shared<routing::DragonflyRouting>(topo);
    } else {
      route = routing::make_table_routing(topo->g);
    }
  }
  std::cout << "topology: " << topo->name << " (" << topo->num_routers()
            << " routers, " << topo->num_endpoints() << " endpoints)\n";
  std::cout << "routing state: " << route->storage_entries() << " entries ("
            << route->name() << ")\n";

  sim::SimParams prm;
  prm.warmup_cycles = 1000;
  prm.measure_cycles = 2000;
  prm.drain_cycles = 15000;
  if (mode_name == "ugal") {
    prm.path_mode = sim::PathMode::kUgal;
    prm.num_vcs = 8;
  }
  sim::Network net(topo, route);
  auto traffic = sim::make_pattern_source(*topo, pattern, load,
                                          prm.packet_flits, 7);
  sim::Simulation s(net, prm, *traffic);
  auto res = s.run();

  std::cout << pattern_name << " @ " << load << " load, " << mode_name
            << " routing:\n"
            << "  avg latency:   " << res.avg_packet_latency << " cycles\n"
            << "  p99 latency:   " << res.p99_packet_latency << "\n"
            << "  accepted rate: " << res.accepted_flit_rate << "\n"
            << "  avg hops:      " << res.avg_hops << "\n"
            << "  stable:        " << (res.stable ? "yes" : "NO (saturated)")
            << "\n";
  return 0;
}
