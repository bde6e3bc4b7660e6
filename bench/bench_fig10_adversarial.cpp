// Figure 10: adversarial traffic -- every supernode/group transmits only to
// one other group, with destinations chosen at maximal distance (forcing
// the longest minpaths and maximal global-link pressure). Hierarchical
// topologies only (PS-*, BF, DF, MF) plus FT, as in the paper.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"

int main() {
  auto all = bench::simulation_suite();
  std::vector<bench::NamedTopo> suite;
  for (auto& nt : all) {
    if (nt.grouped) suite.push_back(std::move(nt));
  }
  bench::SweepSettings s;
  s.loads = {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6};
  if (bench::full_scale()) {
    s.warmup = 1000;
    s.measure = 3000;
    s.drain = 15000;
  }

  std::printf("Figure 10: adversarial group-paired traffic\n");
  std::printf("\nMIN routing -- avg latency (cycles; S = saturation tput)\n");
  bench::print_sweep(suite, polarstar::sim::Pattern::kAdversarial,
                     polarstar::sim::PathMode::kMinimal, s, "fig10-adv-min");
  std::printf("\nUGAL routing\n");
  bench::print_sweep(suite, polarstar::sim::Pattern::kAdversarial,
                     polarstar::sim::PathMode::kUgal, s, "fig10-adv-ugal");

  // Telemetry at a post-saturation adversarial load: what is each
  // network's bottleneck made of? Runs on the shared runner with a full
  // collector per point, so with POLARSTAR_JSON these land in the file as
  // records carrying a "telemetry" block. The flight recorder
  // samples 1-in-16 packets, feeding the slowest-packets table below (and
  // POLARSTAR_TRACE, when set).
  using polarstar::sim::PathMode;
  using polarstar::telemetry::StallCause;
  const double sat_load = 0.3;
  const std::uint32_t trace_period = 16;
  bench::SweepSettings ts = s;
  ts.loads = {sat_load};
  std::vector<polarstar::runlab::SweepCase> cases;
  for (const auto& nt : suite) {
    auto c = bench::sweep_case(nt, polarstar::sim::Pattern::kAdversarial,
                               PathMode::kUgal, ts);
    c.make_collector = [](std::size_t) {
      return std::make_unique<polarstar::telemetry::FullCollector>();
    };
    c.trace.sample_period = trace_period;
    cases.push_back(std::move(c));
  }
  const auto results = bench::runner().run("fig10-adv-telemetry", cases);

  std::printf("\nStall attribution and UGAL decisions at %.2f load (%s)\n",
              sat_load,
              polarstar::sim::to_string(PathMode::kUgal,
                                        polarstar::sim::MinSelect::kAdaptive));
  std::printf("%-8s %9s %7s %8s %8s %6s %6s | %9s %10s\n", "topo", "max/avg",
              "busy%%",
              bench::stall_label(StallCause::kCreditStarved).c_str(),
              bench::stall_label(StallCause::kVcBlocked).c_str(),
              bench::stall_label(StallCause::kArbitrationLost).c_str(),
              "idle%%", "valiant%%", "vlt-extra");
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& t = results[i].points[0].result.telemetry;
    const auto& st = t.stall;
    const double total = static_cast<double>(st.busy + st.credit_starved +
                                             st.vc_blocked +
                                             st.arbitration_lost + st.idle);
    const double pct = total > 0 ? 100.0 / total : 0.0;
    const auto& ug = t.ugal;
    const double upct =
        ug.decisions > 0 ? 100.0 / static_cast<double>(ug.decisions) : 0.0;
    std::printf(
        "%-8s %9.2f %6.1f%% %7.2f%% %7.2f%% %5.2f%% %5.1f%% | %8.1f%% %10.2f\n",
        suite[i].name.c_str(), t.link.max_avg_ratio,
        pct * static_cast<double>(st.busy),
        pct * static_cast<double>(st.credit_starved),
        pct * static_cast<double>(st.vc_blocked),
        pct * static_cast<double>(st.arbitration_lost),
        pct * static_cast<double>(st.idle),
        upct * static_cast<double>(ug.valiant), ug.avg_valiant_extra_hops);
  }

  std::printf("\nExpected shape: DF/MF saturate first (single inter-group "
              "link); BF and PS-* sustain more via link bundles; PS-IQ "
              "highest among the star products. Past saturation the "
              "bottleneck shows up as credit-starved stalls on the paired "
              "global links.\n");

  // Flight-recorder drill-down: the slowest sampled packets of each run and
  // where their head flit waited longest. Deterministic: sampling is by
  // packet id, so this table is identical at any POLARSTAR_THREADS.
  std::printf("\nSlowest sampled packets at %.2f load (1-in-%u sampling)\n",
              sat_load, trace_period);
  std::printf("%-8s %10s %14s %8s %5s %4s   %s\n", "topo", "packet",
              "src->dst", "latency", "hops", "vlt",
              "longest wait (router: cycles)");
  for (std::size_t i = 0; i < suite.size(); ++i) {
    auto traces = results[i].points[0].result.packet_traces;
    std::erase_if(traces, [](const polarstar::telemetry::PacketTrace& t) {
      return !t.delivered || !t.measured;
    });
    std::sort(traces.begin(), traces.end(),
              [](const auto& a, const auto& b) {
                return a.latency() != b.latency() ? a.latency() > b.latency()
                                                  : a.id < b.id;
              });
    const std::size_t top = std::min<std::size_t>(3, traces.size());
    for (std::size_t k = 0; k < top; ++k) {
      const auto& t = traces[k];
      const polarstar::telemetry::PacketHopRecord* worst = nullptr;
      for (const auto& h : t.hops) {
        if (worst == nullptr || h.wait() > worst->wait()) worst = &h;
      }
      char route[32];
      std::snprintf(route, sizeof route, "%llu->%llu",
                    static_cast<unsigned long long>(t.src_endpoint),
                    static_cast<unsigned long long>(t.dst_endpoint));
      std::printf("%-8s %10llu %14s %8llu %5zu %4s   r%u: %llu\n",
                  k == 0 ? suite[i].name.c_str() : "",
                  static_cast<unsigned long long>(t.id), route,
                  static_cast<unsigned long long>(t.latency()), t.hops.size(),
                  t.valiant ? "vlt" : "min",
                  worst != nullptr ? worst->router : 0,
                  static_cast<unsigned long long>(
                      worst != nullptr ? worst->wait() : 0));
    }
  }
  return 0;
}
