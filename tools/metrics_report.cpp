// Offline report over a schema-8 POLARSTAR_JSON file: the time axis.
//
//   metrics_report <polarstar.json> [...]   print interval tables
//   metrics_report --selftest               run against a built-in example
//
// For every point that carries a "timeseries" telemetry block the tool
// prints the interval records as a table (injected/ejected packets,
// accepted flits, interval latency, buffered + in-flight gauges, fault
// columns when any interval saw faults) plus unicode sparklines of the
// throughput and latency curves, so a hotspot drain or a fault-recovery
// transient reads at a glance in a terminal. A top-level "profile" block
// (engine self-profiler) is rendered as a phase-attribution table.
// Exits non-zero on malformed input.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/json.h"

namespace json = polarstar::io::json;

namespace {

const json::Value& require(const json::Value& obj, const std::string& key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error("missing key \"" + key + "\"");
  return *v;
}

double num(const json::Value& obj, const char* key) {
  return require(obj, key).as_number();
}

/// Renders `values` as one sparkline string (8 block levels; a flat series
/// renders as all-bottom so zero-traffic intervals stay visually quiet).
std::string sparkline(const std::vector<double>& values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  double lo = 0.0, hi = 0.0;
  for (double v : values) hi = std::max(hi, v);
  std::string out;
  for (double v : values) {
    int idx = 0;
    if (hi > lo) {
      idx = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
      idx = std::clamp(idx, 0, 7);
    }
    out += kBlocks[idx];
  }
  return out;
}

void print_point_timeseries(const json::Value& p) {
  const json::Value* t = p.find("telemetry");
  if (t == nullptr) return;
  const json::Value* ts = t->find("timeseries");
  if (ts == nullptr) return;

  const auto& ivs = require(*ts, "intervals").as_array();
  std::printf("\n%s/%s @ %g -- interval %llu cycle(s), %zu interval(s)\n",
              require(p, "sweep").as_string().c_str(),
              require(p, "case").as_string().c_str(), num(p, "load"),
              static_cast<unsigned long long>(num(*ts, "interval")),
              ivs.size());
  if (ivs.empty()) return;

  bool any_fault = false;
  for (const auto& iv : ivs) {
    if (num(iv, "dropped") != 0.0 || num(iv, "retransmits") != 0.0 ||
        num(iv, "lost") != 0.0) {
      any_fault = true;
      break;
    }
  }
  std::printf("%10s %10s %8s %8s %10s %9s %8s %9s %9s", "begin", "end",
              "inject", "eject", "acc_flits", "avg_lat", "max_lat",
              "buffered", "inflight");
  if (any_fault) std::printf(" %8s %8s %6s", "dropped", "retx", "lost");
  std::printf("\n");
  std::vector<double> eject_curve, lat_curve;
  for (const auto& iv : ivs) {
    eject_curve.push_back(num(iv, "ejected"));
    lat_curve.push_back(num(iv, "avg_latency"));
    std::printf("%10llu %10llu %8llu %8llu %10llu %9.2f %8llu %9llu %9llu",
                static_cast<unsigned long long>(num(iv, "begin")),
                static_cast<unsigned long long>(num(iv, "end")),
                static_cast<unsigned long long>(num(iv, "injected")),
                static_cast<unsigned long long>(num(iv, "ejected")),
                static_cast<unsigned long long>(num(iv, "accepted_flits")),
                num(iv, "avg_latency"),
                static_cast<unsigned long long>(num(iv, "max_latency")),
                static_cast<unsigned long long>(num(iv, "buffered_flits")),
                static_cast<unsigned long long>(num(iv, "in_flight")));
    if (any_fault) {
      std::printf(" %8llu %8llu %6llu",
                  static_cast<unsigned long long>(num(iv, "dropped")),
                  static_cast<unsigned long long>(num(iv, "retransmits")),
                  static_cast<unsigned long long>(num(iv, "lost")));
    }
    std::printf("\n");
  }
  std::printf("%10s  %s\n", "ejected", sparkline(eject_curve).c_str());
  std::printf("%10s  %s\n", "avg_lat", sparkline(lat_curve).c_str());
}

void print_profile(const json::Value& prof) {
  const auto& phases = require(prof, "phases");
  struct Row {
    const char* label;
    const char* key;
  };
  static const Row kRows[] = {{"fault/retransmit", "fault"},
                              {"link delivery", "deliver"},
                              {"injection", "inject"},
                              {"switch allocation", "route"},
                              {"end-of-cycle", "barrier"},
                              {"telemetry", "telemetry"}};
  double engine = 0.0;
  for (const Row& r : kRows) engine += num(phases, r.key);
  std::printf("\nengine profile -- %llu point(s), %llu cycle(s)\n",
              static_cast<unsigned long long>(num(prof, "points")),
              static_cast<unsigned long long>(num(prof, "cycles")));
  std::printf("%-18s %10s %7s\n", "phase", "seconds", "share");
  for (const Row& r : kRows) {
    const double s = num(phases, r.key);
    std::printf("%-18s %10.3f %6.1f%%\n", r.label, s,
                engine > 0.0 ? 100.0 * s / engine : 0.0);
  }
  std::printf(
      "walls: point %.3fs, chain %.3fs, run %.3fs; "
      "%llu worker(s), utilization %.1f%%\n",
      num(prof, "point_wall_seconds"), num(prof, "chain_wall_seconds"),
      num(prof, "run_wall_seconds"),
      static_cast<unsigned long long>(num(prof, "workers")),
      100.0 * num(prof, "worker_utilization"));
}

/// Returns the number of points with a timeseries block.
std::size_t report(const std::string& label, const json::Value& doc) {
  if (!doc.is_object()) throw std::runtime_error("document is not an object");
  const double schema = num(doc, "schema");
  if (schema != 8.0) {
    throw std::runtime_error("unsupported schema " + std::to_string(schema) +
                             " (want 8)");
  }
  const auto& points = require(doc, "points").as_array();
  std::printf("%s: schema %g, %zu point(s)\n", label.c_str(), schema,
              points.size());
  std::size_t sampled = 0;
  for (const auto& p : points) {
    const json::Value* t = p.find("telemetry");
    if (t != nullptr && t->find("timeseries") != nullptr) ++sampled;
    print_point_timeseries(p);
  }
  if (const json::Value* prof = doc.find("profile")) print_profile(*prof);
  if (sampled == 0) {
    std::printf(
        "(no timeseries blocks -- run with POLARSTAR_METRICS_INTERVAL set)\n");
  }
  return sampled;
}

constexpr const char* kSelftestDoc = R"({
"schema": 8,
"points": [
  {"sweep": "drain", "case": "PS-IQ hotspot", "pattern": "hotspot",
   "mode": "min-adaptive", "load": 0.2,
   "telemetry": {
     "timeseries": {"interval": 1000, "intervals": [
       {"begin": 0, "end": 1000, "injected": 400, "ejected": 360,
        "offered_flits": 1600, "accepted_flits": 1440, "lat_packets": 360,
        "avg_latency": 9.5, "max_latency": 40, "buffered_flits": 96,
        "in_flight": 40, "dropped": 0, "retransmits": 0, "lost": 0},
       {"begin": 1000, "end": 2000, "injected": 410, "ejected": 430,
        "offered_flits": 1640, "accepted_flits": 1720, "lat_packets": 430,
        "avg_latency": 12.1, "max_latency": 66, "buffered_flits": 48,
        "in_flight": 20, "dropped": 2, "retransmits": 2, "lost": 0},
       {"begin": 2000, "end": 2500, "injected": 100, "ejected": 120,
        "offered_flits": 400, "accepted_flits": 480, "lat_packets": 120,
        "avg_latency": 10.0, "max_latency": 38, "buffered_flits": 0,
        "in_flight": 0, "dropped": 0, "retransmits": 0, "lost": 0}]}}}
],
"profile": {"points": 1, "cycles": 2500,
  "phases": {"fault": 0.0, "deliver": 0.01, "inject": 0.002,
             "route": 0.03, "barrier": 0.004, "telemetry": 0.001},
  "point_wall_seconds": 0.3, "chain_wall_seconds": 0.3,
  "run_wall_seconds": 0.31, "workers": 4, "chains": 4,
  "worker_utilization": 0.24}
})";

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <polarstar.json> [...] | --selftest\n",
                 argv[0]);
    return 2;
  }
  try {
    if (std::string(argv[1]) == "--selftest") {
      const std::size_t n = report("selftest", json::parse(kSelftestDoc));
      if (n != 1) throw std::runtime_error("selftest point count mismatch");
      return 0;
    }
    for (int i = 1; i < argc; ++i) {
      report(argv[i], json::parse_file(argv[i]));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid: %s\n", e.what());
    return 1;
  }
  return 0;
}
