#include "runlab/runner.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "telemetry/collectors.h"
#include "workload/workload.h"

namespace polarstar::runlab {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Shared heartbeat state for one run() call. Workers report each finished
/// point under the mutex and the line is written as a single insertion, so
/// counts are monotonic and lines never interleave even with many workers.
/// Purely observational: nothing a simulation computes passes through here.
class ProgressMeter {
 public:
  ProgressMeter(std::ostream* os, std::string label, unsigned workers,
                std::size_t total_cases, std::size_t total_points)
      : os_(os),
        label_(std::move(label)),
        workers_(workers == 0 ? 1 : workers),
        total_cases_(total_cases),
        total_points_(total_points),
        start_(std::chrono::steady_clock::now()) {}

  void point_done(std::uint64_t sim_cycles) {
    if (os_ == nullptr) return;
    std::lock_guard<std::mutex> lock(m_);
    ++done_points_;
    cycles_ += sim_cycles;
    print_locked();
  }

  void chain_done(std::size_t points_not_run) {
    if (os_ == nullptr) return;
    std::lock_guard<std::mutex> lock(m_);
    ++done_cases_;
    // Skipped points (case skip or past saturation) will never run: retire
    // them from the denominator so the ETA converges instead of stalling.
    total_points_ -= points_not_run;
    print_locked();
  }

 private:
  void print_locked() {
    const double elapsed = seconds_since(start_);
    std::ostringstream line;
    line << "[runlab] " << label_ << ": cases " << done_cases_ << "/"
         << total_cases_ << ", points " << done_points_ << "/"
         << total_points_;
    if (elapsed > 0.0) {
      line << ", " << std::fixed << std::setprecision(2)
           << static_cast<double>(cycles_) / elapsed / 1e6 /
                  static_cast<double>(workers_)
           << " Mcyc/s/worker";
    }
    if (done_points_ > 0 && done_points_ < total_points_) {
      const double eta = elapsed *
                         static_cast<double>(total_points_ - done_points_) /
                         static_cast<double>(done_points_);
      line << ", ETA " << static_cast<long long>(eta + 0.5) << "s";
    }
    line << "\n";
    *os_ << line.str() << std::flush;
  }

  std::ostream* os_;
  const std::string label_;
  const unsigned workers_;
  const std::size_t total_cases_;
  std::size_t total_points_;
  const std::chrono::steady_clock::time_point start_;
  std::mutex m_;
  std::size_t done_cases_ = 0, done_points_ = 0;
  std::uint64_t cycles_ = 0;
};

// Runs one case's whole load chain; writes only into `out` (one distinct
// CaseResult per task, so no synchronisation is needed). Collectors are
// created fresh per point on this worker thread, so telemetry is as
// deterministic as the simulation itself. `trace` is the case's effective
// flight-recorder filter (the runner may have applied its default).
void run_chain(const SweepCase& c, const telemetry::PacketFilter& trace,
               std::uint32_t metrics_interval, bool profile,
               ProgressMeter& meter, CaseResult& out) {
  const auto chain_start = std::chrono::steady_clock::now();
  sim::SimParams params = c.params;
  params.profile = params.profile || profile;
  out.points.resize(c.loads.size());
  bool saturated = false;
  std::size_t ran = 0;
  for (std::size_t j = 0; j < c.loads.size(); ++j) {
    auto& p = out.points[j];
    p.load = c.loads[j];
    if (c.skip || (saturated && c.stop_after_saturation)) continue;
    const auto point_start = std::chrono::steady_clock::now();
    std::unique_ptr<telemetry::Collector> collector;
    if (c.make_collector) collector = c.make_collector(j);
    p.result = run_point({.net = c.net.get(),
                          .pattern = c.pattern,
                          .workload = c.workload.get(),
                          .load = c.loads[j],
                          .params = params,
                          .pattern_seed = c.pattern_seed,
                          .collector = collector.get(),
                          .trace = trace,
                          .metrics_interval = metrics_interval,
                          .faults = c.faults.get()});
    p.wall_seconds = seconds_since(point_start);
    p.ran = true;
    ++ran;
    meter.point_done(p.result.cycles);
    if (!p.result.stable) saturated = true;
  }
  meter.chain_done(c.loads.size() - ran);
  out.wall_seconds = seconds_since(chain_start);
}

void json_escape(std::ostream& os, const std::string& s) {
  for (char ch : s) {
    if (ch == '"' || ch == '\\') os << '\\';
    os << ch;
  }
}

// One JSON "telemetry" object from a run's summary block; the
// caller has already decided the block is non-empty.
void write_telemetry(std::ostream& os, const telemetry::Summary& t) {
  os << "\"telemetry\": {";
  bool first = true;
  auto sep = [&os, &first] {
    if (!first) os << ", ";
    first = false;
  };
  if (t.has_link) {
    sep();
    os << "\"link\": {\"num_links\": " << t.link.num_links
       << ", \"total_flits\": " << t.link.total_flits
       << ", \"avg_load\": " << t.link.avg_load
       << ", \"max_load\": " << t.link.max_load
       << ", \"max_avg_ratio\": " << t.link.max_avg_ratio << "}";
  }
  if (t.has_stall) {
    sep();
    os << "\"stall\": {\"busy\": " << t.stall.busy
       << ", \"credit_starved\": " << t.stall.credit_starved
       << ", \"vc_blocked\": " << t.stall.vc_blocked
       << ", \"arbitration_lost\": " << t.stall.arbitration_lost
       << ", \"idle\": " << t.stall.idle << "}";
  }
  if (t.has_ugal) {
    sep();
    os << "\"ugal\": {\"decisions\": " << t.ugal.decisions
       << ", \"valiant\": " << t.ugal.valiant
       << ", \"minimal_no_better\": " << t.ugal.minimal_no_better
       << ", \"minimal_no_candidate\": " << t.ugal.minimal_no_candidate
       << ", \"avg_valiant_extra_hops\": " << t.ugal.avg_valiant_extra_hops
       << "}";
  }
  if (t.has_occupancy) {
    sep();
    os << "\"occupancy\": {\"samples\": " << t.occupancy.samples
       << ", \"peak_router_flits\": " << t.occupancy.peak_router_flits
       << ", \"avg_router_flits\": " << t.occupancy.avg_router_flits << "}";
  }
  if (t.has_latency) {
    sep();
    os << "\"latency\": {\"packets\": " << t.latency.packets
       << ", \"p50\": " << t.latency.p50 << ", \"p90\": " << t.latency.p90
       << ", \"p99\": " << t.latency.p99 << ", \"p999\": " << t.latency.p999
       << "}";
  }
  if (t.has_trace) {
    sep();
    os << "\"trace\": {\"sampled\": " << t.trace.sampled_packets
       << ", \"delivered\": " << t.trace.delivered
       << ", \"period\": " << t.trace.sample_period << "}";
  }
  if (t.has_fault) {
    sep();
    os << "\"fault\": {\"events\": " << t.fault.events
       << ", \"link_down\": " << t.fault.link_down
       << ", \"router_down\": " << t.fault.router_down
       << ", \"repairs\": " << t.fault.repairs
       << ", \"dropped\": " << t.fault.dropped_packets
       << ", \"retransmits\": " << t.fault.retransmits
       << ", \"lost\": " << t.fault.lost_packets << "}";
  }
  if (t.has_timeseries) {
    sep();
    os << "\"timeseries\": {\"interval\": " << t.timeseries.interval
       << ", \"intervals\": [";
    for (std::size_t i = 0; i < t.timeseries.intervals.size(); ++i) {
      const auto& iv = t.timeseries.intervals[i];
      os << (i == 0 ? "\n" : ",\n")
         << "    {\"begin\": " << iv.begin_cycle
         << ", \"end\": " << iv.end_cycle
         << ", \"injected\": " << iv.injected
         << ", \"ejected\": " << iv.ejected
         << ", \"offered_flits\": " << iv.offered_flits
         << ", \"accepted_flits\": " << iv.accepted_flits
         << ", \"lat_packets\": " << iv.lat_packets
         << ", \"avg_latency\": " << iv.avg_latency
         << ", \"max_latency\": " << iv.max_latency
         << ", \"buffered_flits\": " << iv.buffered_flits
         << ", \"in_flight\": " << iv.in_flight
         << ", \"dropped\": " << iv.dropped
         << ", \"retransmits\": " << iv.retransmits
         << ", \"lost\": " << iv.lost << "}";
    }
    os << "]}";
  }
  os << "}";
}

}  // namespace

sim::SimResult run_point(const PointSpec& spec) {
  if (spec.net == nullptr) {
    throw std::invalid_argument("run_point: spec has no network");
  }
  const std::uint64_t seed =
      spec.pattern_seed == kSameSeed ? spec.params.seed : spec.pattern_seed;
  // One creation path for both kinds of traffic: workload cases
  // instantiate their scenario, pattern cases go through the factory.
  // A workload with a nonzero app_cycle_cap runs closed-loop (run_app's
  // completion-time semantics) instead of the open-loop run().
  std::unique_ptr<sim::TrafficSource> src;
  std::uint64_t app_cap = 0;
  if (spec.workload != nullptr) {
    const workload::Context ctx{.topo = &spec.net->topology(),
                                .load = spec.load,
                                .packet_flits = spec.params.packet_flits,
                                .seed = seed};
    src = spec.workload->instantiate(ctx);
    app_cap = spec.workload->app_cycle_cap(ctx);
  } else {
    src = sim::make_pattern_source(spec.net->topology(), spec.pattern,
                                   spec.load, spec.params.packet_flits, seed);
  }
  sim::SimParams params = spec.params;
  if (spec.faults != nullptr) params.faults = spec.faults;
  if (!spec.trace.enabled() && spec.metrics_interval == 0) {
    sim::Simulation simulation(*spec.net, params, *src, spec.collector);
    return app_cap != 0 ? simulation.run_app(app_cap) : simulation.run();
  }
  // Flight recorder and/or time-series sampler ride along with whatever
  // collector the caller gave; the sampled records move into the result
  // (timeseries lands in res.telemetry through Collector::finish) so the
  // stack-local collectors can die with this frame.
  telemetry::PacketTraceCollector tracer(spec.trace);
  telemetry::TimeSeriesCollector series(spec.metrics_interval);
  telemetry::CollectorSet set;
  if (spec.trace.enabled()) set.add(&tracer);
  if (spec.metrics_interval != 0) set.add(&series);
  if (spec.collector != nullptr) set.add(spec.collector);
  sim::Simulation simulation(*spec.net, params, *src, &set);
  sim::SimResult res =
      app_cap != 0 ? simulation.run_app(app_cap) : simulation.run();
  if (spec.trace.enabled()) {
    res.packet_traces = tracer.take_traces();
    res.fault_marks = tracer.take_fault_marks();
  }
  return res;
}

sim::SimResult run_point(const sim::Network& net, sim::Pattern pattern,
                         double load, const sim::SimParams& params,
                         std::uint64_t pattern_seed) {
  return run_point({.net = &net,
                    .pattern = pattern,
                    .load = load,
                    .params = params,
                    .pattern_seed = pattern_seed,
                    .collector = nullptr,
                    .trace = {}});
}

std::uint32_t configured_metrics_interval() {
  return static_cast<std::uint32_t>(
      env_count("POLARSTAR_METRICS_INTERVAL", 0xFFFFFFFFul));
}

ExperimentRunner::ExperimentRunner(unsigned num_threads) : pool_(num_threads) {
  if (const char* v = std::getenv("POLARSTAR_JSON")) json_path_ = v;
  if (const char* v = std::getenv("POLARSTAR_TRACE")) trace_path_ = v;
  if (const char* v = std::getenv("POLARSTAR_PROGRESS")) {
    if (v[0] == '1' && v[1] == '\0') progress_ = &std::cerr;
  }
  metrics_interval_ = configured_metrics_interval();
  if (const char* v = std::getenv("POLARSTAR_PROFILE")) {
    if (v[0] == '1' && v[1] == '\0') {
      profile_ = true;
      profile_stream_ = &std::cerr;
    }
  }
}

ExperimentRunner::~ExperimentRunner() {
  flush_json();
  flush_trace();
}

std::vector<CaseResult> ExperimentRunner::run(
    const std::string& label, const std::vector<SweepCase>& cases) {
  for (const auto& c : cases) {
    if (!c.net) {
      throw std::invalid_argument("ExperimentRunner: case '" + c.name +
                                  "' has no network");
    }
  }
  // Effective flight-recorder filter per case: the case's own filter wins;
  // a configured trace path turns on default-period sampling everywhere
  // else.
  const auto run_start = std::chrono::steady_clock::now();
  std::vector<telemetry::PacketFilter> trace(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    trace[i] = cases[i].trace;
    if (!trace[i].enabled() && !trace_path_.empty()) {
      trace[i].sample_period = kDefaultTracePeriod;
    }
  }
  // Same precedent for the time-series sampler: a case's explicit interval
  // wins, the POLARSTAR_METRICS_INTERVAL default covers the rest.
  std::vector<std::uint32_t> metrics(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    metrics[i] =
        cases[i].metrics_interval != 0 ? cases[i].metrics_interval
                                       : metrics_interval_;
  }
  std::size_t total_points = 0;
  for (const auto& c : cases) total_points += c.loads.size();
  ProgressMeter meter(progress_, label, pool_.size(), cases.size(),
                      total_points);
  std::vector<CaseResult> results(cases.size());
  std::vector<std::exception_ptr> errors(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const bool profile = profile_;
    pool_.submit([&cases, &trace, &metrics, &meter, &results, &errors,
                  profile, i] {
      try {
        run_chain(cases[i], trace[i], metrics[i], profile, meter, results[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  pool_.wait_idle();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (profile_) {
    profile_agg_.run_wall += seconds_since(run_start);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      profile_agg_.chain_wall += results[i].wall_seconds;
      for (const auto& p : results[i].points) {
        if (!p.ran || !p.result.profile.enabled) continue;
        const auto& pr = p.result.profile;
        ++profile_agg_.points;
        profile_agg_.cycles += pr.cycles;
        profile_agg_.fault += pr.fault_seconds;
        profile_agg_.deliver += pr.deliver_seconds;
        profile_agg_.inject += pr.inject_seconds;
        profile_agg_.route += pr.route_seconds;
        profile_agg_.barrier += pr.barrier_seconds;
        profile_agg_.telemetry += pr.telemetry_seconds;
        profile_agg_.point_wall += p.wall_seconds;
      }
    }
    report_profile(label);
  }
  // Record after the barrier, on the caller's thread, so JSON order is the
  // spec order no matter how the chains were scheduled.
  if (!json_path_.empty()) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto* wl = cases[i].workload.get();
      for (const auto& p : results[i].points) {
        if (!p.ran) continue;
        records_.push_back({label, cases[i].name,
                            wl != nullptr ? wl->name()
                                          : sim::to_string(cases[i].pattern),
                            sim::to_string(cases[i].params.path_mode,
                                           cases[i].params.min_select),
                            p.load, p.result, p.wall_seconds,
                            cases[i].faults != nullptr, wl != nullptr,
                            wl != nullptr ? wl->describe() : std::string{}});
      }
    }
  }
  // Same case-order walk for the flight records (copies: the caller keeps
  // the originals inside its CaseResults).
  if (!trace_path_.empty()) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (!trace[i].enabled()) continue;
      const auto* wl = cases[i].workload.get();
      for (const auto& p : results[i].points) {
        if (!p.ran) continue;
        std::ostringstream name;
        name << label << "/" << cases[i].name << " @ " << p.load;
        // Workload timeline marks, clipped to the run's actual length.
        std::vector<io::TraceMark> marks;
        if (wl != nullptr) {
          const std::uint64_t seed = cases[i].pattern_seed == kSameSeed
                                         ? cases[i].params.seed
                                         : cases[i].pattern_seed;
          for (const auto& m : wl->marks(
                   workload::Context{.topo = &cases[i].net->topology(),
                                     .load = p.load,
                                     .packet_flits =
                                         cases[i].params.packet_flits,
                                     .seed = seed,
                                     .horizon = p.result.cycles})) {
            marks.push_back({m.cycle, m.label});
          }
        }
        // Source-reported marks (collective phase boundaries) carry the
        // run's actual cycle numbers; no clipping needed.
        for (const auto& m : p.result.source.marks) {
          marks.push_back({m.cycle, m.label});
        }
        // Time-series intervals become Perfetto counter tracks ("C"
        // events) so the sampled network state scrubs alongside the
        // packet flights.
        std::vector<io::CounterSeries> counters;
        if (p.result.telemetry.has_timeseries) {
          const auto& ts = p.result.telemetry.timeseries;
          auto series = [&ts](const char* cname, auto value) {
            io::CounterSeries cs;
            cs.name = cname;
            cs.points.reserve(ts.intervals.size());
            for (const auto& iv : ts.intervals) {
              cs.points.push_back({iv.begin_cycle, value(iv)});
            }
            return cs;
          };
          auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
          counters.push_back(series("injected", [&u64](const auto& iv) {
            return u64(iv.injected);
          }));
          counters.push_back(series("ejected", [&u64](const auto& iv) {
            return u64(iv.ejected);
          }));
          counters.push_back(series("accepted_flits", [&u64](const auto& iv) {
            return u64(iv.accepted_flits);
          }));
          counters.push_back(series("avg_latency", [](const auto& iv) {
            return iv.avg_latency;
          }));
          counters.push_back(series("buffered_flits", [&u64](const auto& iv) {
            return u64(iv.buffered_flits);
          }));
          counters.push_back(series("in_flight", [&u64](const auto& iv) {
            return u64(iv.in_flight);
          }));
          if (cases[i].faults != nullptr) {
            counters.push_back(series("dropped", [&u64](const auto& iv) {
              return u64(iv.dropped);
            }));
          }
        }
        trace_groups_.push_back({name.str(), p.result.cycles,
                                 p.result.packet_traces, p.result.fault_marks,
                                 std::move(marks), std::move(counters)});
      }
    }
  }
  return results;
}

void ExperimentRunner::report_profile(const std::string& label) const {
  if (profile_stream_ == nullptr) return;
  const auto& a = profile_agg_;
  std::ostringstream out;
  out << "[profile] " << label << ": " << a.points << " points, " << a.cycles
      << " cycles\n";
  const double engine = a.fault + a.deliver + a.inject + a.route + a.barrier +
                        a.telemetry;
  auto phase = [&out, engine](const char* name, double s) {
    out << "[profile]   " << name << ": " << std::fixed
        << std::setprecision(3) << s << "s";
    if (engine > 0.0) {
      out << " (" << std::setprecision(1) << 100.0 * s / engine << "%)";
    }
    out << "\n";
  };
  phase("fault/retransmit", a.fault);
  phase("link delivery", a.deliver);
  phase("injection", a.inject);
  phase("switch allocation", a.route);
  phase("end-of-cycle", a.barrier);
  phase("telemetry", a.telemetry);
  const double denom = a.run_wall * static_cast<double>(pool_.size());
  out << "[profile]   walls: point " << std::fixed << std::setprecision(3)
      << a.point_wall << "s, chain " << a.chain_wall << "s, run "
      << a.run_wall << "s; workers " << pool_.size();
  if (denom > 0.0) {
    out << ", utilization " << std::setprecision(1)
        << 100.0 * a.chain_wall / denom << "%";
  }
  out << "\n";
  *profile_stream_ << out.str() << std::flush;
}

void ExperimentRunner::flush_json() {
  if (json_path_.empty()) return;
  std::ofstream os(json_path_, std::ios::trunc);
  if (!os) return;  // unwritable path: drop telemetry, never fail the run
  // Schema 8 (EXPERIMENTS.md "POLARSTAR_JSON schema" lists every field):
  // {"schema": 8, "points": [...], optional "profile": {...}}. Each point
  // carries its identity and SimResult columns plus optional "workload",
  // "collective", "fault" and "telemetry" blocks; "profile" appears when
  // the runner profiled.
  os << "{\n\"schema\": 8,\n\"points\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    const auto& res = r.result;
    os << "  {\"sweep\": \"";
    json_escape(os, r.sweep);
    os << "\", \"case\": \"";
    json_escape(os, r.name);
    os << "\", \"pattern\": \"";
    json_escape(os, r.pattern);
    os << "\", \"mode\": \"" << r.mode
       << "\", \"load\": " << r.load << ", \"stable\": "
       << (res.stable ? "true" : "false")
       << ", \"deadlock\": " << (res.deadlock ? "true" : "false")
       << ", \"avg_latency\": " << res.avg_packet_latency
       << ", \"p50_latency\": " << res.p50_packet_latency
       << ", \"p99_latency\": " << res.p99_packet_latency
       << ", \"p999_latency\": " << res.p999_packet_latency
       << ", \"avg_hops\": " << res.avg_hops
       << ", \"accepted_flit_rate\": " << res.accepted_flit_rate
       << ", \"cycles\": " << res.cycles
       << ", \"measured_packets\": " << res.measured_packets
       << ", \"wall_seconds\": " << r.wall_seconds;
    if (r.has_workload) {
      os << ", \"workload\": {\"name\": \"";
      json_escape(os, r.pattern);
      os << "\"";
      if (!r.workload_detail.empty()) {
        os << ", \"detail\": \"";
        json_escape(os, r.workload_detail);
        os << "\"";
      }
      os << "}";
    }
    if (!res.source.collective_json.empty()) {
      // Pre-balanced JSON object straight from the source's report().
      os << ", \"collective\": " << res.source.collective_json;
    }
    if (r.faulted) {
      os << ", \"fault\": {\"events\": " << res.fault_events
         << ", \"dropped\": " << res.packets_dropped
         << ", \"retransmits\": " << res.retransmits
         << ", \"lost\": " << res.packets_lost
         << ", \"measured_lost\": " << res.measured_lost
         << ", \"delivered_fraction\": " << res.delivered_fraction << "}";
    }
    if (res.telemetry.any()) {
      os << ", ";
      write_telemetry(os, res.telemetry);
    }
    os << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
  }
  os << "]";
  if (profile_) {
    const auto& a = profile_agg_;
    os << ",\n\"profile\": {\"points\": " << a.points
       << ", \"cycles\": " << a.cycles << ",\n  \"phases\": {\"fault\": "
       << a.fault << ", \"deliver\": " << a.deliver
       << ", \"inject\": " << a.inject << ", \"route\": " << a.route
       << ", \"barrier\": " << a.barrier << ", \"telemetry\": " << a.telemetry
       << "},\n  \"point_wall_seconds\": " << a.point_wall
       << ", \"chain_wall_seconds\": " << a.chain_wall
       << ", \"run_wall_seconds\": " << a.run_wall
       << ",\n  \"workers\": " << pool_.size()
       << ", \"chains\": " << pool_.size() << ", \"worker_utilization\": "
       << (a.run_wall > 0.0
               ? a.chain_wall /
                     (a.run_wall * static_cast<double>(pool_.size()))
               : 0.0)
       << "}";
  }
  os << "\n}\n";
}

void ExperimentRunner::flush_trace() {
  if (trace_path_.empty() || trace_groups_.empty()) return;
  try {
    io::write_chrome_trace_file(trace_path_, trace_groups_);
  } catch (const std::exception&) {
    // Unwritable path: drop the trace, never fail the run (same contract
    // as flush_json).
  }
}

}  // namespace polarstar::runlab
