// polarstar_bench: one measurement of one benchmark workload, as JSON.
//
//   polarstar_bench --workload W [--seed S] [--seconds T] [--quick]
//                   [--trace PATH]
//   polarstar_bench --workload W [--seed S] [--quick] --check
//
// A measurement is:
//   1. kSetups setups (topology, routing, sim::Network and, for
//      fault-recovery, the fault schedule), each layer timed by a
//      steady_clock span around its public call; the last one is kept;
//   2. one untimed warm-up runlab::ExperimentRunner(4).run() over the
//      workload's sweep cases, whose results are the reference;
//   3. timed reps of the same run() until the next one would end past T
//      seconds (at least kMinReps), each checked field for field against
//      the reference and with its own peak resident set.
// A shared host slows a process down in spells of tens of seconds, so a
// low quantile of many short reps is far steadier than one long run.
// stdout receives a single JSON object; benchmark/run turns it into metrics.
//
// --trace PATH  adds one more rep with the engine's observational profiler
//               on (SimResult::profile), runs the routing and fault
//               micro-probes, and writes every span as a Chrome-trace file
//               at PATH.
// --check       instead runs the workload's reduced analogue once with
//               SimParams::reference_impl off and once on, and reports
//               whether the two SimResults agree field for field.
// --quick       one setup, one timed rep, short windows: a harness
//               self-test, not a measurement.
//
// Every input derives from --seed. The benchmark owns its workload
// definitions (it does not include bench/bench_common.h), so editing a
// figure bench cannot change a workload. It never sets num_shards or a
// shard plan: runlab alone decides how to use the 4-thread budget.
#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bundlefly.h"
#include "core/polarstar.h"
#include "core/polarstar_routing.h"
#include "fault/fault_routing.h"
#include "fault/schedule.h"
#include "routing/dragonfly_routing.h"
#include "routing/routing.h"
#include "runlab/runner.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "topo/dragonfly.h"
#include "topo/fattree.h"
#include "topo/hyperx.h"
#include "topo/lps.h"
#include "topo/megafly.h"

namespace {

using namespace polarstar;
using Clock = std::chrono::steady_clock;

constexpr unsigned kThreads = 4;
// Setups per measurement (setup_s is their median) and the fewest timed
// reps a measurement makes, however short --seconds is.
constexpr int kSetups = 3;
constexpr int kMinReps = 3;
// Table 3 PS-IQ (1064 routers, 5320 endpoints) and its reduced analogue.
constexpr core::PolarStarConfig kFullPsIq{
    11, 3, core::SupernodeKind::kInductiveQuad, 5};
constexpr core::PolarStarConfig kReducedPsIq{
    5, 3, core::SupernodeKind::kInductiveQuad, 3};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A field of /proc/self/status in MB ("VmRSS" now, "VmHWM" the peak).
double status_mb(const std::string& field) {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // in kB
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// Resets the peak resident set (VmHWM) to the current one, so that the
/// next status_mb("VmHWM") is the peak since this call. Free memory the
/// allocator still holds is returned first, so that a rep's peak does not
/// depend on what earlier reps left behind.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream os("/proc/self/clear_refs");
  os << "5\n";
  os.flush();
  if (!os) throw std::runtime_error("cannot reset the peak resident set");
}

// ---------------------------------------------------------------- spans ---

/// In-memory span recorder: spans stay in memory and are written once, at
/// exit, as a Chrome-trace file (complete "X" events whose args name the
/// parent span, so a viewer and benchmark/run can rebuild the tree).
class Spans {
 public:
  int open(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), parent, now_us(), 0.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, std::string args_json = {}) {
    spans_[id].end_us = now_us();
    spans_[id].args = std::move(args_json);
  }
  /// Total seconds of every span with this name.
  double seconds(const std::string& name) const {
    double us = 0.0;
    for (const auto& s : spans_) {
      if (s.name == name) us += s.end_us - s.begin_us;
    }
    return us * 1e-6;
  }
  /// Seconds of each span with this name, in opening order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back((s.end_us - s.begin_us) * 1e-6);
    }
    return out;
  }
  void write_chrome_trace(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    os << std::setprecision(17) << "{\"displayTimeUnit\": \"ms\", "
       << "\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
         << "\", \"cat\": \"benchmark\", \"ph\": \"X\", \"pid\": 1, "
         << "\"tid\": 1, \"ts\": " << s.begin_us
         << ", \"dur\": " << s.end_us - s.begin_us << ", \"args\": {\"id\": "
         << i << ", \"parent\": " << s.parent;
      if (!s.args.empty()) os << ", " << s.args;
      os << "}}";
    }
    os << "\n]}\n";
    if (!os) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double begin_us, end_us;
    std::string args;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Runs f() inside a span named `name` and returns its result.
template <class F>
auto in_span(Spans& spans, const char* name, int parent, F&& f) {
  const int id = spans.open(name, parent);
  auto result = f();
  spans.close(id);
  return result;
}

// ------------------------------------------------------------ workloads ---

struct Windows {
  std::uint64_t warmup, measure, drain;
};

sim::SimParams make_params(sim::PathMode mode, bool all_minpaths, Windows w,
                           std::uint64_t seed) {
  sim::SimParams prm;
  prm.warmup_cycles = w.warmup;
  prm.measure_cycles = w.measure;
  prm.drain_cycles = w.drain;
  prm.path_mode = mode;
  prm.num_vcs = mode == sim::PathMode::kUgal ? 8 : 4;
  prm.min_select =
      all_minpaths ? sim::MinSelect::kAdaptive : sim::MinSelect::kSingleHash;
  prm.seed = seed;
  return prm;
}

/// `fraction` of the links fail, struck one by one at evenly spaced cycles
/// across the measurement window.
fault::ScheduleSpec fault_spec(Windows w, double fraction) {
  fault::ScheduleSpec spec;
  spec.link_fail_fraction = fraction;
  spec.begin_cycle = w.warmup;
  spec.end_cycle = w.warmup + w.measure;
  return spec;
}

/// One topology family of the simulated suite, ready to simulate.
struct Family {
  std::string name;
  std::shared_ptr<const sim::Network> net;
  bool all_minpaths = false;  // adaptive pick among all minimal ports
};

struct PolarStarBuild {
  std::shared_ptr<const core::PolarStar> ps;
  std::shared_ptr<const routing::MinimalRouting> routing;
  std::shared_ptr<const sim::Network> net;
};

/// core.build -> routing.build -> sim.network_build for one PolarStar.
PolarStarBuild build_polarstar(Spans& spans, int parent,
                               const core::PolarStarConfig& cfg) {
  PolarStarBuild b;
  b.ps = in_span(spans, "core.build", parent, [&] {
    return std::make_shared<const core::PolarStar>(core::PolarStar::build(cfg));
  });
  b.routing = in_span(spans, "routing.build", parent,
                      [&] { return routing::make_polarstar_routing(b.ps); });
  b.net = in_span(spans, "sim.network_build", parent, [&] {
    return std::make_shared<const sim::Network>(core::shared_topology(b.ps),
                                                b.routing);
  });
  return b;
}

/// The same three layers for a table-routed (or Dragonfly-routed) family.
Family build_table_family(Spans& spans, int parent, const std::string& name,
                          const std::function<topo::Topology()>& build,
                          bool all_minpaths) {
  auto topo = in_span(spans, "core.build", parent, [&] {
    return std::make_shared<const topo::Topology>(build());
  });
  auto routing = in_span(
      spans, "routing.build", parent,
      [&]() -> std::shared_ptr<const routing::MinimalRouting> {
        // BookSim's Dragonfly routing is hierarchical, not graph-minimal.
        if (name == "DF") {
          return std::make_shared<routing::DragonflyRouting>(topo);
        }
        return routing::make_table_routing(topo->g);
      });
  auto net = in_span(spans, "sim.network_build", parent, [&] {
    return std::make_shared<const sim::Network>(topo, routing);
  });
  return {name, std::move(net), all_minpaths};
}

/// The reduced-scale 8-family suite of the Fig 9 benches.
std::vector<Family> reduced_suite(Spans& spans, int parent) {
  std::vector<Family> suite;
  suite.push_back(
      {"PS-IQ", build_polarstar(spans, parent, kReducedPsIq).net, true});
  suite.push_back({"PS-Pal",
                   build_polarstar(spans, parent,
                                   {4, 4, core::SupernodeKind::kPaley, 3})
                       .net,
                   true});
  suite.push_back(build_table_family(
      spans, parent, "BF", [] { return core::bundlefly::build({5, 5, 3}); },
      true));
  suite.push_back(build_table_family(
      spans, parent, "HX", [] { return topo::hyperx::build({{4, 4, 5}, 3}); },
      true));
  suite.push_back(build_table_family(
      spans, parent, "DF", [] { return topo::dragonfly::build({7, 3, 3}); },
      false));
  suite.push_back(build_table_family(
      spans, parent, "SF", [] { return topo::lps::build({11, 5, 4}); }, true));
  suite.push_back(build_table_family(
      spans, parent, "MF", [] { return topo::megafly::build({4, 4, 4}); },
      false));
  suite.push_back(build_table_family(
      spans, parent, "FT", [] { return topo::fattree::build({6}); }, true));
  return suite;
}

/// One Fig 9 panel: a pattern under a path mode, swept over the Fig 9 load
/// grid up to max_load.
struct Panel {
  const char* label;
  sim::Pattern pattern;
  sim::PathMode mode;
  double max_load;
};
// Bitrev under UGAL stops at 0.4: above it, the cycles a point needs to
// drain swing by up to 2x from one seed to the next, and those few points
// would make the sweep's time a measure of the seed.
constexpr Panel kFig09Panels[] = {
    {"fig09a-uniform-min", sim::Pattern::kUniform, sim::PathMode::kMinimal,
     0.9},
    {"fig09e-bitrev-ugal", sim::Pattern::kBitReverse, sim::PathMode::kUgal,
     0.4},
};

/// A single-point full-scale PS-IQ workload.
struct PointWorkload {
  sim::Pattern pattern;
  sim::PathMode mode;
  double load;
  Windows windows;
  double link_fail_fraction;  // 0 = fault-free
};

struct Spec {
  bool sweep = false;  // fig09-sweep
  PointWorkload point{};
};

// A rep is one simulated point (a sweep for fig09-sweep) of about 1-1.5 s
// on a 4-CPU host, so a measurement of 20 s holds a dozen or more; the
// windows are sized for that, and long enough to reach the steady state.
Spec workload_spec(const std::string& name, bool quick) {
  Spec s;
  if (name == "ugal-steady") {
    s.point = {sim::Pattern::kUniform, sim::PathMode::kUgal, 0.30,
               quick ? Windows{100, 200, 3000} : Windows{200, 400, 5000},
               0.0};
  } else if (name == "lowload-min") {
    s.point = {sim::Pattern::kUniform, sim::PathMode::kMinimal, 0.05,
               quick ? Windows{200, 500, 3000} : Windows{500, 2500, 5000},
               0.0};
  } else if (name == "fault-recovery") {
    // About 10 routing epochs (4 in quick mode), each of which rebuilds
    // the survivor routing tables.
    s.point = {sim::Pattern::kUniform, sim::PathMode::kMinimal, 0.15,
               quick ? Windows{100, 200, 3000} : Windows{200, 400, 5000},
               quick ? 0.0005 : 0.00125};
  } else if (name == "fig09-sweep") {
    s.sweep = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (ugal-steady, lowload-min, fig09-sweep, "
                                "fault-recovery)");
  }
  return s;
}

Windows sweep_windows(bool quick) {
  return quick ? Windows{100, 200, 1000} : Windows{100, 300, 2000};
}

std::vector<double> sweep_loads(const Panel& panel, bool quick) {
  std::vector<double> loads;
  for (double load : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    if (load <= panel.max_load) loads.push_back(load);
  }
  if (quick) return {loads.front(), loads.back()};
  return loads;
}

/// A round's inputs: the runner cases (which co-own their networks and
/// schedules) plus the full-scale PS-IQ build the probes reuse.
struct Setup {
  std::vector<runlab::SweepCase> cases;
  PolarStarBuild full;  // empty for fig09-sweep
};

Setup build_setup(const std::string& workload, const Spec& spec,
                  std::uint64_t seed, bool quick, Spans& spans) {
  Setup s;
  const int root = spans.open("setup");
  if (spec.sweep) {
    const std::vector<Family> suite = reduced_suite(spans, root);
    for (const Panel& panel : kFig09Panels) {
      for (const Family& fam : suite) {
        runlab::SweepCase c;
        c.name = fam.name + "/" + panel.label;
        c.net = fam.net;
        c.pattern = panel.pattern;
        c.params =
            make_params(panel.mode, fam.all_minpaths, sweep_windows(quick), seed);
        c.loads = sweep_loads(panel, quick);
        s.cases.push_back(std::move(c));
      }
    }
  } else {
    const PointWorkload& p = spec.point;
    s.full = build_polarstar(spans, root, kFullPsIq);
    runlab::SweepCase c;
    c.name = "PS-IQ/" + workload;
    c.net = s.full.net;
    c.pattern = p.pattern;
    c.params = make_params(p.mode, true, p.windows, seed);
    c.loads = {p.load};
    if (p.link_fail_fraction > 0.0) {
      c.faults = in_span(spans, "fault.schedule_build", root, [&] {
        return std::make_shared<const fault::FaultSchedule>(
            fault::FaultSchedule::random(
                c.net->topology(),
                fault_spec(p.windows, p.link_fail_fraction), seed + 1));
      });
    }
    s.cases.push_back(std::move(c));
  }
  spans.close(root);
  return s;
}

// --------------------------------------------------------------- output ---

/// Minimal JSON object writer; doubles keep all 17 significant digits.
class Json {
 public:
  Json() { os_ << std::setprecision(17) << '{'; }
  template <class T>
  Json& field(const char* key, const T& value) {
    sep();
    os_ << '"' << key << "\": ";
    if constexpr (std::is_same_v<T, bool>) {
      os_ << (value ? "true" : "false");
    } else if constexpr (std::is_convertible_v<T, std::string>) {
      os_ << '"' << std::string(value) << '"';
    } else {
      os_ << value;
    }
    return *this;
  }
  /// Inserts an already-serialized JSON value.
  Json& raw(const char* key, const std::string& json) {
    sep();
    os_ << '"' << key << "\": " << json;
    return *this;
  }
  std::string str() const { return os_.str() + '}'; }

 private:
  void sep() {
    if (!first_) os_ << ", ";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

template <class T>
std::string json_array(const std::vector<T>& items) {
  std::ostringstream os;
  os << std::setprecision(17) << '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    os << (i == 0 ? "" : ", ") << items[i];
  }
  os << ']';
  return os.str();
}

/// Link traversals of delivered flits (avg_hops is hop_sum / delivered).
std::uint64_t flit_hops(const sim::SimResult& r, std::uint32_t packet_flits) {
  const auto hop_sum = static_cast<std::uint64_t>(
      r.avg_hops * static_cast<double>(r.packets_delivered) + 0.5);
  return hop_sum * packet_flits;
}

/// Routing epochs a faulted point went through: the pristine one plus one
/// per distinct cycle among the schedule events it applied.
std::uint64_t routing_epochs(const fault::FaultSchedule* faults,
                             std::uint64_t applied) {
  std::uint64_t epochs = 1;
  if (faults == nullptr) return epochs;
  const auto& evs = faults->events();
  for (std::size_t i = 0; i < applied && i < evs.size(); ++i) {
    if (i == 0 || evs[i].cycle != evs[i - 1].cycle) ++epochs;
  }
  return epochs;
}

std::string point_json(const runlab::SweepCase& c,
                       const runlab::PointResult& p) {
  const sim::SimResult& r = p.result;
  const auto& topo = c.net->topology();
  Json j;
  j.field("load", p.load)
      .field("wall_s", p.wall_seconds)
      .field("routers", topo.num_routers())
      .field("endpoints", topo.num_endpoints())
      .field("cycles", r.cycles)
      .field("packets_delivered", r.packets_delivered)
      .field("measured_packets", r.measured_packets)
      .field("flit_hops", flit_hops(r, c.params.packet_flits))
      .field("accepted_flit_rate", r.accepted_flit_rate)
      .field("stable", r.stable)
      .field("deadlock", r.deadlock)
      .field("epochs", routing_epochs(c.faults.get(), r.fault_events))
      .field("fault_events", r.fault_events)
      .field("packets_dropped", r.packets_dropped)
      .field("retransmits", r.retransmits)
      .field("packets_lost", r.packets_lost)
      .field("delivered_fraction", r.delivered_fraction);
  if (r.profile.enabled) {
    const auto& pr = r.profile;
    Json prof;
    prof.field("fault_s", pr.fault_seconds)
        .field("deliver_s", pr.deliver_seconds)
        .field("inject_s", pr.inject_seconds)
        .field("route_s", pr.route_seconds)
        .field("barrier_s", pr.barrier_seconds)
        .field("telemetry_s", pr.telemetry_seconds);
    j.raw("profile", prof.str());
  }
  return j.str();
}

/// Every case's ran points of one rep, as a JSON array of chains.
std::string chains_json(const std::vector<runlab::SweepCase>& cases,
                        const std::vector<runlab::CaseResult>& results) {
  std::vector<std::string> chains;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> points;
    for (const auto& p : results[i].points) {
      if (p.ran) points.push_back(point_json(cases[i], p));
    }
    Json j;
    j.field("case", cases[i].name)
        .field("wall_s", results[i].wall_seconds)
        .raw("points", json_array(points));
    chains.push_back(j.str());
  }
  return json_array(chains);
}

// --------------------------------------------------------------- probes ---

/// Times core::PolarStarRouting over a seeded sample of full PS-IQ router
/// pairs: the queries sim::Network's constructor makes n^2 of.
std::string routing_probe(const core::PolarStar& ps, std::size_t queries,
                          std::uint64_t seed, Spans& spans, int parent) {
  const core::PolarStarRouting analytic(ps);
  const std::uint32_t n = ps.topology().num_routers();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<graph::Vertex> pick(0, n - 1);
  std::vector<std::pair<graph::Vertex, graph::Vertex>> pairs(queries);
  for (auto& pr : pairs) pr = {pick(rng), pick(rng)};

  std::uint64_t hops_total = 0, dist_total = 0;
  std::vector<graph::Vertex> hops;
  int id = spans.open("routing.next_hops", parent);
  for (const auto& [a, b] : pairs) {
    hops.clear();
    analytic.next_hops(a, b, hops);
    hops_total += hops.size();
  }
  spans.close(id);
  id = spans.open("routing.distance", parent);
  for (const auto& [a, b] : pairs) dist_total += analytic.distance(a, b);
  spans.close(id);
  const double q = static_cast<double>(queries);
  Json j;
  j.field("queries", queries)
      .field("next_hops_ns", spans.seconds("routing.next_hops") * 1e9 / q)
      .field("distance_ns", spans.seconds("routing.distance") * 1e9 / q)
      .field("hops_total", hops_total)
      .field("distance_total", dist_total);
  return j.str();
}

/// Builds the fault-recovery schedule `fr` over full PS-IQ and replays it
/// into a standalone fault::FaultAwareRouting, timing each apply...commit()
/// epoch from outside the engine.
std::string fault_probe(const PolarStarBuild& full, const PointWorkload& fr,
                        std::uint64_t seed, Spans& spans, int parent) {
  const auto topo = core::shared_topology(full.ps);
  const auto sched = in_span(spans, "fault.schedule_build", parent, [&] {
    return fault::FaultSchedule::random(
        *topo, fault_spec(fr.windows, fr.link_fail_fraction), seed + 1);
  });
  fault::FaultAwareRouting far(topo, full.routing);
  std::vector<double> commit_ms;
  const auto& evs = sched.events();
  for (std::size_t i = 0; i < evs.size();) {
    const int id = spans.open("fault.commit", parent);
    const auto t0 = Clock::now();
    const std::uint64_t cycle = evs[i].cycle;
    for (; i < evs.size() && evs[i].cycle == cycle; ++i) far.apply(evs[i]);
    far.commit();
    commit_ms.push_back(seconds_since(t0) * 1e3);
    spans.close(id);
  }
  Json j;
  j.field("events", evs.size())
      .field("epochs", far.epoch())
      .field("schedule_build_s", spans.durations("fault.schedule_build").back())
      .raw("commit_ms", json_array(commit_ms));
  return j.str();
}

// --------------------------------------------------------------- checks ---

/// Field-by-field SimResult comparison; returns the first differing field
/// name, or an empty string when the results agree exactly.
std::string first_difference(const sim::SimResult& a, const sim::SimResult& b) {
#define PS_BENCH_CMP(f) \
  if (!(a.f == b.f)) return #f
  PS_BENCH_CMP(cycles);
  PS_BENCH_CMP(packets_delivered);
  PS_BENCH_CMP(measured_packets);
  PS_BENCH_CMP(avg_packet_latency);
  PS_BENCH_CMP(p50_packet_latency);
  PS_BENCH_CMP(p99_packet_latency);
  PS_BENCH_CMP(p999_packet_latency);
  PS_BENCH_CMP(avg_hops);
  PS_BENCH_CMP(accepted_flit_rate);
  PS_BENCH_CMP(stable);
  PS_BENCH_CMP(deadlock);
  PS_BENCH_CMP(max_source_queue);
  PS_BENCH_CMP(fault_events);
  PS_BENCH_CMP(packets_dropped);
  PS_BENCH_CMP(retransmits);
  PS_BENCH_CMP(packets_lost);
  PS_BENCH_CMP(measured_lost);
  PS_BENCH_CMP(delivered_fraction);
  PS_BENCH_CMP(max_recovery_latency);
#undef PS_BENCH_CMP
  return {};
}

/// The first point at which a rep's results differ from the reference
/// rep's, as "case @ load: field"; empty when every point agrees exactly.
std::string rep_difference(const std::vector<runlab::SweepCase>& cases,
                           const std::vector<runlab::CaseResult>& reference,
                           const std::vector<runlab::CaseResult>& rep) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& ref_points = reference[i].points;
    const auto& rep_points = rep[i].points;
    if (ref_points.size() != rep_points.size()) return cases[i].name + ": points";
    for (std::size_t k = 0; k < ref_points.size(); ++k) {
      const runlab::PointResult& a = ref_points[k];
      const runlab::PointResult& b = rep_points[k];
      std::string diff = a.ran != b.ran ? "ran"
                         : a.ran        ? first_difference(a.result, b.result)
                                        : "";
      if (!diff.empty()) {
        std::ostringstream where;
        where << cases[i].name << " @ " << a.load << ": " << diff;
        return where.str();
      }
    }
  }
  return {};
}

/// The workload's reduced analogue, optimized engine against reference_impl:
/// reduced PS-IQ with the same mode, pattern, load and faults, or one
/// low-load point per family and panel for fig09-sweep.
std::string run_checks(const Spec& spec, std::uint64_t seed) {
  Spans scratch;
  struct Analogue {
    std::string name;
    std::shared_ptr<const sim::Network> net;
    sim::Pattern pattern;
    double load;
    sim::SimParams params;
    std::shared_ptr<const fault::FaultSchedule> faults;
  };
  const Windows w{200, 600, 4000};
  std::vector<Analogue> analogues;
  if (spec.sweep) {
    for (const Family& fam : reduced_suite(scratch, -1)) {
      for (const Panel& panel : kFig09Panels) {
        analogues.push_back(
            {fam.name + "/" + panel.label, fam.net, panel.pattern, 0.05,
             make_params(panel.mode, fam.all_minpaths, w, seed), nullptr});
      }
    }
  } else {
    const PointWorkload& p = spec.point;
    Analogue a{"PS-IQ-reduced", build_polarstar(scratch, -1, kReducedPsIq).net,
               p.pattern, p.load, make_params(p.mode, true, w, seed), nullptr};
    if (p.link_fail_fraction > 0.0) {
      a.faults = std::make_shared<const fault::FaultSchedule>(
          fault::FaultSchedule::random(
              a.net->topology(), fault_spec(w, p.link_fail_fraction),
              seed + 1));
    }
    analogues.push_back(std::move(a));
  }
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < analogues.size(); ++i) {
    const Analogue& a = analogues[i];
    sim::SimResult res[2];
    for (int reference = 0; reference < 2; ++reference) {
      runlab::PointSpec pt;
      pt.net = a.net.get();
      pt.pattern = a.pattern;
      pt.load = a.load;
      pt.params = a.params;
      pt.params.reference_impl = reference == 1;
      pt.faults = a.faults.get();
      res[reference] = runlab::run_point(pt);
    }
    const std::string diff = first_difference(res[0], res[1]);
    Json j;
    j.field("name", a.name)
        .field("match", diff.empty())
        .field("first_difference", diff)
        .field("deadlock", res[0].deadlock || res[1].deadlock);
    os << (i == 0 ? "" : ", ") << j.str();
  }
  os << ']';
  return os.str();
}

// ----------------------------------------------------------------- main ---

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;   // timed reps end by then (at least kMinReps)
  std::string trace_path;  // empty = no traced rep
  bool check = false;
  bool quick = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace_path = value();
    } else if (a == "--check") {
      o.check = true;
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

int run(const Options& o) {
  const Spec spec = workload_spec(o.workload, o.quick);
  if (o.check) {
    Json j;
    j.field("workload", o.workload)
        .field("seed", o.seed)
        .raw("checks", run_checks(spec, o.seed));
    std::printf("%s\n", j.str().c_str());
    return 0;
  }
  const bool tracing = !o.trace_path.empty();
  Spans spans;
  Setup setup;
  const int setups = o.quick ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    setup = Setup{};  // release the previous setup before building the next
    setup = build_setup(o.workload, spec, o.seed, o.quick, spans);
  }
  const double rss_after_setup_mb = status_mb("VmRSS");

  runlab::ExperimentRunner runner(kThreads);
  runner.set_json_path({});
  runner.set_trace_path({});
  runner.set_progress_stream(nullptr);
  runner.set_metrics_interval(0);
  runner.set_profile(false);
  runner.set_profile_stream(nullptr);

  // The warm-up rep fills caches and the allocator's free lists; its
  // results are the reference every later rep must repeat exactly.
  const auto reference = runner.run(o.workload, setup.cases);

  std::vector<std::string> reps;
  const std::size_t min_reps = o.quick ? 1 : kMinReps;
  const auto reps_t0 = Clock::now();
  double last_wall_s = 0.0;
  while (reps.size() < min_reps ||
         seconds_since(reps_t0) + last_wall_s <= o.seconds) {
    reset_peak_rss();
    const auto t0 = Clock::now();
    const auto results = runner.run(o.workload, setup.cases);
    last_wall_s = seconds_since(t0);
    const double peak_rss_mb = status_mb("VmHWM");
    std::vector<double> chain_walls, point_walls;
    for (const auto& c : results) {
      chain_walls.push_back(c.wall_seconds);
      for (const auto& p : c.points) {
        if (p.ran) point_walls.push_back(p.wall_seconds);
      }
    }
    Json j;
    j.field("wall_s", last_wall_s)
        .field("peak_rss_mb", peak_rss_mb)
        .field("difference", rep_difference(setup.cases, reference, results))
        .raw("chain_walls", json_array(chain_walls))
        .raw("point_walls", json_array(point_walls));
    reps.push_back(j.str());
  }

  Json out;
  out.field("workload", o.workload)
      .field("seed", o.seed)
      .field("quick", o.quick)
      .field("threads", kThreads)
      .raw("setup_s", json_array(spans.durations("setup")))
      .field("core.build_s", spans.seconds("core.build") / setups)
      .field("routing.build_s", spans.seconds("routing.build") / setups)
      .field("sim.network_build_s", spans.seconds("sim.network_build") / setups)
      .field("fault.schedule_build_s",
             spans.seconds("fault.schedule_build") / setups)
      .field("rss_after_setup_mb", rss_after_setup_mb)
      .raw("chains", chains_json(setup.cases, reference))
      .raw("reps", json_array(reps));
  if (tracing) {
    runner.set_profile(true);
    const int run_span = spans.open("runlab.run");
    const auto t0 = Clock::now();
    const auto results = runner.run(o.workload, setup.cases);
    const double wall_s = seconds_since(t0);
    const std::string chains = chains_json(setup.cases, results);
    spans.close(run_span, "\"chains\": " + chains);
    Json traced;
    traced.field("wall_s", wall_s)
        .field("difference", rep_difference(setup.cases, reference, results))
        .raw("chains", chains);
    out.raw("traced", traced.str());

    // The micro-probes always run on full PS-IQ; the fault probe replays
    // the fault-recovery schedule, so every traced rep measures the
    // fault layer even when its own workload is fault-free.
    const PointWorkload fr = workload_spec("fault-recovery", o.quick).point;
    const int probe = spans.open("probe");
    if (!setup.full.ps) {
      setup.full = build_polarstar(spans, probe, kFullPsIq);
    }
    const int rp = spans.open("routing.probe", probe);
    out.raw("routing_probe",
            routing_probe(*setup.full.ps, o.quick ? 100'000 : 1'000'000,
                          o.seed, spans, rp));
    spans.close(rp);
    const int fp = spans.open("fault.probe", probe);
    out.raw("fault_probe", fault_probe(setup.full, fr, o.seed, spans, fp));
    spans.close(fp);
    spans.close(probe);
    spans.write_chrome_trace(o.trace_path);
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread: with one per runner thread, freed
  // memory stays in whichever arena a rep happened to use, and a rep's
  // peak resident set would depend on which thread ran it.
  mallopt(M_ARENA_MAX, 1);
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "polarstar_bench: %s\n", e.what());
    return 1;
  }
}
