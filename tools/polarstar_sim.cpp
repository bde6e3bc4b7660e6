// polarstar_sim -- command-line flit-level simulation runner (the BookSim
// substitute's front end). Prints one CSV row per load point.
//
//   polarstar_sim <topo> [pattern] [mode] [loads...] [key=value...]
//     topo:    Table 3 row (PS-IQ PS-Pal BF HX DF SF MF FT)
//     pattern: uniform permutation shuffle reverse adversarial tornado
//              hotspot                      (default uniform)
//     mode:    min min-adaptive ugal        (default min)
//     loads:   numbers in (0,1]             (default 0.1..0.9)
//     keys:    vcs= buffers= flits= warmup= measure= drain= seed= link=
//              (non-negative integers; vcs defaults to 4, or to 8 under
//              ugal, and an explicit vcs= wins in any position)
//
// A malformed argument, or one the simulator rejects (unknown topology,
// vcs outside [1, 32], buffers or flits outside [1, 65535], link above
// 65535, warmup + measure + drain past 2^64 - 1), prints usage and exits
// with status 2.
//
// Example:
//   polarstar_sim PS-IQ uniform ugal 0.2 0.4 0.6 vcs=8 seed=3
#include <charconv>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/topology_zoo.h"
#include "core/polarstar.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "sim/simulation.h"
#include "sim/traffic.h"

namespace {

int usage_error(const std::string& msg) {
  std::cerr << "polarstar_sim: " << msg
            << "\nusage: polarstar_sim <topo> [pattern] [mode] [loads...] "
               "[key=value...]\n  patterns: "
            << polarstar::sim::pattern_names()
            << "\n  modes:    min, min-adaptive, ugal"
               "\n  loads:    numbers in (0, 1]"
               "\n  keys:     vcs= buffers= flits= warmup= measure= drain= "
               "seed= link=\n";
  return 2;
}

// True when the whole of `text` is one number of out's type.
template <class T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace polarstar;
  if (argc < 2) return usage_error("missing topology");
  const std::string topo_name = argv[1];
  sim::Pattern pattern = sim::Pattern::kUniform;
  sim::SimParams prm;
  prm.warmup_cycles = 1000;
  prm.measure_cycles = 2000;
  prm.drain_cycles = 12000;
  bool adaptive = false;
  bool vcs_given = false;
  std::vector<double> loads;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      const std::string key = arg.substr(0, eq);
      const std::string_view val = std::string_view(arg).substr(eq + 1);
      bool ok = false;
      if (key == "vcs") ok = vcs_given = parse_whole(val, prm.num_vcs);
      else if (key == "buffers") ok = parse_whole(val, prm.vc_buffer_flits);
      else if (key == "flits") ok = parse_whole(val, prm.packet_flits);
      else if (key == "warmup") ok = parse_whole(val, prm.warmup_cycles);
      else if (key == "measure") ok = parse_whole(val, prm.measure_cycles);
      else if (key == "drain") ok = parse_whole(val, prm.drain_cycles);
      else if (key == "seed") ok = parse_whole(val, prm.seed);
      else if (key == "link") ok = parse_whole(val, prm.link_latency);
      else return usage_error("unknown key " + key);
      if (!ok) {
        return usage_error("bad value '" + std::string(val) + "' for " + key);
      }
    } else if (auto parsed = sim::pattern_from_string(arg)) {
      pattern = *parsed;
    }
    else if (arg == "min") prm.path_mode = sim::PathMode::kMinimal;
    else if (arg == "min-adaptive") {
      prm.path_mode = sim::PathMode::kMinimal;
      adaptive = true;
    } else if (arg == "ugal") {
      prm.path_mode = sim::PathMode::kUgal;
    } else {
      double load = 0.0;
      if (!parse_whole(arg, load)) {
        return usage_error("unrecognized argument " + arg);
      }
      if (!(load > 0.0 && load <= 1.0)) {
        return usage_error("load " + arg + " is not in (0, 1]");
      }
      loads.push_back(load);
    }
  }
  if (loads.empty()) loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  // UGAL's Valiant paths need more VCs than minimal ones.
  if (prm.path_mode == sim::PathMode::kUgal && !vcs_given) prm.num_vcs = 8;
  prm.min_select =
      adaptive ? sim::MinSelect::kAdaptive : sim::MinSelect::kSingleHash;

  // PolarStar rows take topology and analytic routing from one build.
  std::shared_ptr<const topo::Topology> topo;
  std::shared_ptr<const routing::MinimalRouting> route;
  if (const auto cfg = analysis::table3_polarstar(topo_name)) {
    auto ps =
        std::make_shared<const core::PolarStar>(core::PolarStar::build(*cfg));
    topo = core::shared_topology(ps);
    route = routing::make_polarstar_routing(ps);
  } else {
    try {
      topo = std::make_shared<const topo::Topology>(
          analysis::build_table3(topo_name));
    } catch (const std::invalid_argument& e) {
      return usage_error(e.what());
    }
    if (topo_name == "DF") {
      route = std::make_shared<routing::DragonflyRouting>(topo);
    } else {
      route = routing::make_table_routing(topo->g);
    }
  }
  sim::Network net(topo, route);

  bool header_printed = false;
  for (double load : loads) {
    auto src = sim::make_pattern_source(*topo, pattern, load,
                                        prm.packet_flits, prm.seed);
    std::unique_ptr<sim::Simulation> s;
    try {
      s = std::make_unique<sim::Simulation>(net, prm, *src);
    } catch (const std::invalid_argument& e) {
      return usage_error(e.what());
    }
    // The header follows the first accepted Simulation, so a rejected run
    // writes nothing to stdout.
    if (!header_printed) {
      std::printf("topology,pattern,mode,load,avg_latency,p99_latency,"
                  "accepted,avg_hops,stable\n");
      header_printed = true;
    }
    auto res = s->run();
    std::printf("%s,%s,%s,%.3f,%.2f,%.0f,%.4f,%.3f,%d\n", topo_name.c_str(),
                sim::to_string(pattern),
                prm.path_mode == sim::PathMode::kUgal
                    ? "ugal"
                    : (adaptive ? "min-adaptive" : "min"),
                load, res.avg_packet_latency, res.p99_packet_latency,
                res.accepted_flit_rate, res.avg_hops, res.stable ? 1 : 0);
    std::fflush(stdout);
    if (!res.stable) break;
  }
  return 0;
}
