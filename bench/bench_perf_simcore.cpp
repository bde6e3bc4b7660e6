// Simulator-core throughput harness: the repo's perf trajectory.
//
// Drives fixed-seed, fault-free, collector-free (and one UGAL + one
// faulted) workloads through serial sim::Simulation::run() calls and
// reports wall-clock throughput as Mcyc/s (simulated cycles per second)
// and flit-hops/s (link traversals of delivered flits per second). The
// simulated results themselves are deterministic -- the "cycles",
// "delivered" and "flit_hops" columns must never change across commits
// unless the simulator's outputs intentionally change (the golden benches
// guard that); only the wall-clock columns move.
//
// Every invocation rewrites BENCH_simcore.json (override the path with
// POLARSTAR_PERF_JSON; empty disables) so CI can upload it and
// tools/check_perf can diff it against the committed baseline in
// goldens/BENCH_simcore.json. POLARSTAR_PERF_REPS=N (default 3) controls
// repetitions per workload; the best rep is reported, which is the usual
// noise floor estimator on shared runners.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/schedule.h"

namespace {

using namespace polarstar;

struct Workload {
  std::string name;
  std::shared_ptr<const sim::Network> net;
  sim::Pattern pattern = sim::Pattern::kUniform;
  double load = 0.3;
  sim::SimParams params;
  std::shared_ptr<const fault::FaultSchedule> faults;
};

struct Measurement {
  std::uint64_t cycles = 0;
  std::uint64_t delivered = 0;
  std::uint64_t flit_hops = 0;
  double best_seconds = 0.0;
};

Measurement measure(const Workload& w, unsigned reps) {
  Measurement m;
  for (unsigned rep = 0; rep < reps; ++rep) {
    sim::SimParams prm = w.params;
    if (w.faults) prm.faults = w.faults.get();
    auto src = sim::make_pattern_source(w.net->topology(), w.pattern, w.load,
                                        prm.packet_flits, prm.seed);
    sim::Simulation simulation(*w.net, prm, *src);
    const auto start = std::chrono::steady_clock::now();
    const sim::SimResult res = simulation.run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    // hop_sum = avg_hops * delivered; flit-hops multiplies by flits/packet.
    const auto hop_sum = static_cast<std::uint64_t>(
        res.avg_hops * static_cast<double>(res.packets_delivered) + 0.5);
    if (rep == 0) {
      m.cycles = res.cycles;
      m.delivered = res.packets_delivered;
      m.flit_hops = hop_sum * prm.packet_flits;
      m.best_seconds = secs;
    } else {
      if (res.cycles != m.cycles || res.packets_delivered != m.delivered) {
        std::fprintf(stderr,
                     "bench_perf_simcore: workload '%s' is nondeterministic\n",
                     w.name.c_str());
        std::exit(1);
      }
      if (secs < m.best_seconds) m.best_seconds = secs;
    }
  }
  return m;
}

unsigned env_reps() {
  const char* v = std::getenv("POLARSTAR_PERF_REPS");
  if (v == nullptr || v[0] == '\0') return 3;
  const long n = std::strtol(v, nullptr, 10);
  return n < 1 ? 1 : static_cast<unsigned>(n);
}

std::string json_path() {
  const char* v = std::getenv("POLARSTAR_PERF_JSON");
  return v != nullptr ? std::string(v) : std::string("BENCH_simcore.json");
}

}  // namespace

int main() {
  const unsigned reps = env_reps();
  // Heavier windows than the sweep benches so each run is long enough to
  // time: the simulated span, not the topology scale, is what the loop's
  // throughput is measured over.
  bench::SweepSettings s;
  s.warmup = 1000;
  s.measure = 8000;
  s.drain = 20000;
  s.seed = 7;

  auto ps_iq = bench::make_polarstar(
      "PS-IQ", {5, 3, core::SupernodeKind::kInductiveQuad, 3});
  auto ps_pal =
      bench::make_polarstar("PS-Pal", {4, 4, core::SupernodeKind::kPaley, 3});
  auto df =
      bench::make_table("DF", polarstar::topo::dragonfly::build({7, 3, 3}),
                        false, true);

  std::vector<Workload> workloads;
  auto add = [&](const std::string& name, const bench::NamedTopo& nt,
                 sim::Pattern pattern, sim::PathMode mode, double load) {
    Workload w;
    w.name = name;
    w.net = nt.net;
    w.pattern = pattern;
    w.load = load;
    w.params = bench::sweep_params(nt, mode, s);
    workloads.push_back(std::move(w));
  };
  // The headline workload (the acceptance gate): fault-free,
  // collector-free PS-IQ under uniform MIN traffic at moderate load.
  add("ps-iq-uniform-min", ps_iq, sim::Pattern::kUniform,
      sim::PathMode::kMinimal, 0.30);
  add("ps-iq-uniform-ugal", ps_iq, sim::Pattern::kUniform, sim::PathMode::kUgal,
      0.30);
  add("ps-iq-adversarial-min", ps_iq, sim::Pattern::kAdversarial,
      sim::PathMode::kMinimal, 0.20);
  add("ps-pal-uniform-min", ps_pal, sim::Pattern::kUniform,
      sim::PathMode::kMinimal, 0.30);
  add("df-uniform-min", df, sim::Pattern::kUniform, sim::PathMode::kMinimal,
      0.30);
  {
    // One faulted PS-IQ workload so the fault-gated path stays on the
    // trajectory too (5% of links fail mid-measurement).
    Workload w;
    w.name = "ps-iq-uniform-min-faults";
    w.net = ps_iq.net;
    w.pattern = sim::Pattern::kUniform;
    w.load = 0.30;
    w.params = bench::sweep_params(ps_iq, sim::PathMode::kMinimal, s);
    fault::ScheduleSpec spec;
    spec.link_fail_fraction = 0.05;
    spec.begin_cycle = s.warmup + s.measure / 2;
    spec.end_cycle = spec.begin_cycle;
    w.faults = std::make_shared<const fault::FaultSchedule>(
        fault::FaultSchedule::random(w.net->topology(), spec, 99));
    workloads.push_back(std::move(w));
  }

  std::printf("Simulator-core throughput (reduced-scale, serial, %u reps)\n",
              reps);
  std::printf("%-26s %10s %10s %12s %10s %12s\n", "workload", "cycles",
              "delivered", "flit-hops", "Mcyc/s", "Mflit-hops/s");

  std::vector<Measurement> results;
  results.reserve(workloads.size());
  for (const auto& w : workloads) {
    const Measurement m = measure(w, reps);
    results.push_back(m);
    std::printf("%-26s %10llu %10llu %12llu %10.3f %12.2f\n", w.name.c_str(),
                static_cast<unsigned long long>(m.cycles),
                static_cast<unsigned long long>(m.delivered),
                static_cast<unsigned long long>(m.flit_hops),
                static_cast<double>(m.cycles) / m.best_seconds / 1e6,
                static_cast<double>(m.flit_hops) / m.best_seconds / 1e6);
    std::fflush(stdout);
  }

  const std::string path = json_path();
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_perf_simcore: cannot write %s\n",
                   path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n\"schema\": 1,\n\"reps\": %u,\n\"workloads\": [\n",
                 reps);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const auto& m = results[i];
      std::fprintf(
          f,
          "  {\"name\": \"%s\", \"cycles\": %llu, \"delivered\": %llu, "
          "\"flit_hops\": %llu, \"wall_seconds\": %.6f, "
          "\"mcyc_per_s\": %.3f, \"mflit_hops_per_s\": %.3f}%s\n",
          workloads[i].name.c_str(),
          static_cast<unsigned long long>(m.cycles),
          static_cast<unsigned long long>(m.delivered),
          static_cast<unsigned long long>(m.flit_hops), m.best_seconds,
          static_cast<double>(m.cycles) / m.best_seconds / 1e6,
          static_cast<double>(m.flit_hops) / m.best_seconds / 1e6,
          i + 1 < workloads.size() ? "," : "");
    }
    std::fprintf(f, "]\n}\n");
    std::fclose(f);
  }
  return 0;
}
