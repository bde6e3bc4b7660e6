// Availability under live faults: drive PS-IQ, Dragonfly and Fat-tree
// through the flit simulator while links and one endpoint-carrying router
// fail *during* the run (fault::FaultSchedule), instead of degrading the
// graph up front like bench_ext_degraded. Reports the delivered fraction,
// latency inflation over the fault-free run, and the drop / retransmit /
// loss counters at each failure rate.
//
// POLARSTAR_FAULTS=0,0.02,0.05 overrides the swept link-failure fractions.
// POLARSTAR_METRICS_INTERVAL=K adds a fault-recovery time-series table
// (per-interval drops / latency / backlog rows at the highest failure
// rate) plus per-point "timeseries" JSON blocks and Perfetto counter
// tracks; the main table stays byte-identical either way.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/schedule.h"

namespace {

// Every comma-separated token must be wholly a number in [0, 1]; anything
// else prints usage and exits with status 2.
std::vector<double> fault_fractions() {
  std::vector<double> fractions = {0.0, 0.02, 0.05, 0.10};
  const char* env = std::getenv("POLARSTAR_FAULTS");
  if (env == nullptr || env[0] == '\0') return fractions;
  fractions.clear();
  const std::string list(env);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t next = list.find(',', pos);
    if (next == std::string::npos) next = list.size();
    const std::string token = list.substr(pos, next - pos);
    char* end = nullptr;
    const double frac = std::strtod(token.c_str(), &end);
    if (token.empty() ||
        token.find_first_not_of("0123456789.eE+-") != std::string::npos ||
        end != token.c_str() + token.size() ||
        !(frac >= 0.0 && frac <= 1.0)) {
      std::fprintf(stderr,
                   "bench_ext_availability: bad POLARSTAR_FAULTS token '%s'\n"
                   "usage: POLARSTAR_FAULTS=f1,f2,... with each f a link "
                   "failure fraction in [0, 1]\n",
                   token.c_str());
      std::exit(2);
    }
    fractions.push_back(frac);
    pos = next + 1;
  }
  return fractions;
}

}  // namespace

int main() {
  using namespace polarstar;
  const auto fractions = fault_fractions();
  auto base = bench::simulation_suite();

  sim::SimParams prm;
  prm.warmup_cycles = 400;
  prm.measure_cycles = 1200;
  prm.drain_cycles = 6000;
  prm.num_vcs = 8;  // fault detours stretch paths past the healthy diameter
  prm.min_select = sim::MinSelect::kAdaptive;
  prm.seed = 11;

  struct Row {
    std::string name;
    double frac;
    std::size_t sweep;  // index into the case list
  };
  std::vector<Row> rows;
  std::vector<runlab::SweepCase> sweeps;
  for (const auto& nt : base) {
    if (nt.name != "PS-IQ" && nt.name != "DF" && nt.name != "FT") continue;
    for (double frac : fractions) {
      runlab::SweepCase c;
      c.name = nt.name + " f=" + std::to_string(frac);
      c.net = nt.net;
      c.params = prm;
      c.loads = {0.15};
      c.pattern_seed = 13;
      if (frac > 0.0) {
        // Links fail evenly across the measurement window; one carrier
        // router dies with them, so some in-flight packets lose their
        // destination outright -- that is what pushes delivery below 1.
        fault::ScheduleSpec spec;
        spec.link_fail_fraction = frac;
        spec.router_failures = 1;
        spec.begin_cycle = prm.warmup_cycles;
        spec.end_cycle = prm.warmup_cycles + prm.measure_cycles;
        c.faults = std::make_shared<const fault::FaultSchedule>(
            fault::FaultSchedule::random(nt.topology(), spec, 77));
      }
      rows.push_back({nt.name, frac, sweeps.size()});
      sweeps.push_back(std::move(c));
    }
  }
  const auto results = bench::runner().run("ext-availability", sweeps);

  std::printf("Availability under live faults: uniform traffic at load 0.15\n");
  std::printf("%-8s %8s %10s %10s %8s %8s %8s %8s %8s\n", "topo", "failed",
              "delivered", "latency", "infl", "events", "drops", "retx",
              "lost");
  double baseline = 0.0;
  for (const auto& row : rows) {
    const auto& res = results[row.sweep].points[0].result;
    if (row.frac == 0.0) baseline = res.avg_packet_latency;
    const double inflation =
        baseline > 0.0 ? res.avg_packet_latency / baseline : 1.0;
    std::printf("%-8s %7.0f%% %10.4f %10.1f %7.2fx %8llu %8llu %8llu %8llu\n",
                row.name.c_str(), 100 * row.frac, res.delivered_fraction,
                res.avg_packet_latency, inflation,
                static_cast<unsigned long long>(res.fault_events),
                static_cast<unsigned long long>(res.packets_dropped),
                static_cast<unsigned long long>(res.retransmits),
                static_cast<unsigned long long>(res.packets_lost));
    std::fflush(stdout);
  }
  std::printf("\nDelivered fraction counts measured packets only; lost "
              "packets had a failed source or destination (or exhausted "
              "their retransmit budget).\n");

  // Fault-recovery time series: with POLARSTAR_METRICS_INTERVAL set the
  // runner already attached a time-series collector to every point above,
  // so print the per-interval rows for the highest swept failure rate --
  // drops and the latency spike land inside the failure window
  // (warmup..warmup+measure) and the drain rows show the backlog
  // recovering. Off by default so the golden table stays byte-identical.
  if (bench::metrics_interval() != 0 && fractions.back() > 0.0) {
    std::printf("\nFault-recovery time series at %.0f%% failed links\n",
                100 * fractions.back());
    for (const auto& row : rows) {
      if (row.frac != fractions.back()) continue;
      const auto& ts =
          results[row.sweep].points[0].result.telemetry.timeseries;
      std::printf("%s (interval %u, %zu records)\n", row.name.c_str(),
                  ts.interval, ts.intervals.size());
      bench::print_timeseries(ts);
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  return 0;
}
