// Offline validator for POLARSTAR_JSON files.
//
//   check_json_schema <file.json> [...]   validate runner output files
//   check_json_schema --selftest          validate a built-in example
//
// Accepts the current schema, 8 (EXPERIMENTS.md "POLARSTAR_JSON schema"):
// an object with "schema" and "points", optional per-point "workload",
// "collective", "fault" and "telemetry" blocks, and an optional top-level
// "profile" block. Exits non-zero with a message on the first violation,
// so it slots into CI after any bench run: POLARSTAR_JSON=out.json
// bench_... && check_json_schema out.json.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "io/json.h"

namespace json = polarstar::io::json;

namespace {

const json::Value& require(const json::Value& obj, const std::string& key,
                           json::Value::Kind kind) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error("missing key \"" + key + "\"");
  if (v->kind() != kind) throw std::runtime_error("wrong type for \"" + key + "\"");
  return *v;
}

void check_point(const json::Value& p, std::size_t index) {
  try {
    if (!p.is_object()) throw std::runtime_error("point is not an object");
    require(p, "sweep", json::Value::Kind::kString);
    require(p, "case", json::Value::Kind::kString);
    require(p, "pattern", json::Value::Kind::kString);
    const auto& mode = require(p, "mode", json::Value::Kind::kString);
    if (mode.as_string() != "min" && mode.as_string() != "min-adaptive" &&
        mode.as_string() != "ugal") {
      throw std::runtime_error("unknown mode \"" + mode.as_string() + "\"");
    }
    require(p, "load", json::Value::Kind::kNumber);
    require(p, "stable", json::Value::Kind::kBool);
    require(p, "deadlock", json::Value::Kind::kBool);
    require(p, "avg_latency", json::Value::Kind::kNumber);
    const auto& p50 = require(p, "p50_latency", json::Value::Kind::kNumber);
    const auto& p99 = require(p, "p99_latency", json::Value::Kind::kNumber);
    const auto& p999 = require(p, "p999_latency", json::Value::Kind::kNumber);
    if (p50.as_number() > p99.as_number() ||
        p99.as_number() > p999.as_number()) {
      throw std::runtime_error("latency percentiles are not monotone");
    }
    require(p, "avg_hops", json::Value::Kind::kNumber);
    require(p, "accepted_flit_rate", json::Value::Kind::kNumber);
    require(p, "cycles", json::Value::Kind::kNumber);
    require(p, "measured_packets", json::Value::Kind::kNumber);
    require(p, "wall_seconds", json::Value::Kind::kNumber);
    if (const json::Value* w = p.find("workload")) {
      if (!w->is_object()) throw std::runtime_error("workload not an object");
      const auto& wname = require(*w, "name", json::Value::Kind::kString);
      // The point's pattern field carries the workload name, so the two
      // must agree.
      if (wname.as_string() != p.find("pattern")->as_string()) {
        throw std::runtime_error("workload name disagrees with pattern");
      }
      if (const json::Value* d = w->find("detail")) {
        if (d->kind() != json::Value::Kind::kString) {
          throw std::runtime_error("workload detail is not a string");
        }
      }
    }
    if (const json::Value* c = p.find("collective")) {
      if (!c->is_object()) {
        throw std::runtime_error("collective not an object");
      }
      const auto& op = require(*c, "op", json::Value::Kind::kString);
      if (op.as_string() != "broadcast" && op.as_string() != "reduce" &&
          op.as_string() != "allreduce") {
        throw std::runtime_error("unknown collective op \"" + op.as_string() +
                                 "\"");
      }
      require(*c, "algorithm", json::Value::Kind::kString);
      for (const char* k :
           {"ranks", "trees", "chunks", "packets_sent", "expected_deliveries",
            "deliveries", "reduce_done_cycle", "completion_cycle"}) {
        if (require(*c, k, json::Value::Kind::kNumber).as_number() < 0.0) {
          throw std::runtime_error(std::string("negative collective \"") + k +
                                   "\"");
        }
      }
      if (c->find("deliveries")->as_number() >
          c->find("expected_deliveries")->as_number()) {
        throw std::runtime_error("collective deliveries exceed expected");
      }
      if (c->find("reduce_done_cycle")->as_number() >
          c->find("completion_cycle")->as_number()) {
        throw std::runtime_error(
            "collective reduce_done_cycle exceeds completion_cycle");
      }
    }
    if (const json::Value* f = p.find("fault")) {
      if (!f->is_object()) throw std::runtime_error("fault not an object");
      for (const char* k : {"events", "dropped", "retransmits", "lost",
                            "measured_lost", "delivered_fraction"}) {
        require(*f, k, json::Value::Kind::kNumber);
      }
      const double frac = f->find("delivered_fraction")->as_number();
      if (frac < 0.0 || frac > 1.0) {
        throw std::runtime_error("delivered_fraction outside [0, 1]");
      }
      if (f->find("measured_lost")->as_number() >
          f->find("lost")->as_number()) {
        throw std::runtime_error("measured_lost exceeds lost");
      }
    }
    if (const json::Value* t = p.find("telemetry")) {
      if (!t->is_object()) throw std::runtime_error("telemetry not an object");
      if (const json::Value* link = t->find("link")) {
        require(*link, "num_links", json::Value::Kind::kNumber);
        require(*link, "total_flits", json::Value::Kind::kNumber);
        require(*link, "avg_load", json::Value::Kind::kNumber);
        require(*link, "max_load", json::Value::Kind::kNumber);
        require(*link, "max_avg_ratio", json::Value::Kind::kNumber);
      }
      if (const json::Value* st = t->find("stall")) {
        for (const char* k :
             {"busy", "credit_starved", "vc_blocked", "arbitration_lost",
              "idle"}) {
          require(*st, k, json::Value::Kind::kNumber);
        }
      }
      if (const json::Value* ug = t->find("ugal")) {
        for (const char* k : {"decisions", "valiant", "minimal_no_better",
                              "minimal_no_candidate"}) {
          require(*ug, k, json::Value::Kind::kNumber);
        }
        const double total =
            ug->find("valiant")->as_number() +
            ug->find("minimal_no_better")->as_number() +
            ug->find("minimal_no_candidate")->as_number();
        if (ug->find("decisions")->as_number() != total) {
          throw std::runtime_error("ugal counters do not sum to decisions");
        }
      }
      if (const json::Value* oc = t->find("occupancy")) {
        require(*oc, "samples", json::Value::Kind::kNumber);
        require(*oc, "peak_router_flits", json::Value::Kind::kNumber);
        require(*oc, "avg_router_flits", json::Value::Kind::kNumber);
      }
      if (const json::Value* lat = t->find("latency")) {
        for (const char* k : {"packets", "p50", "p90", "p99", "p999"}) {
          require(*lat, k, json::Value::Kind::kNumber);
        }
        if (lat->find("p50")->as_number() > lat->find("p999")->as_number()) {
          throw std::runtime_error("histogram percentiles are not monotone");
        }
      }
      if (const json::Value* tr = t->find("trace")) {
        for (const char* k : {"sampled", "delivered", "period"}) {
          require(*tr, k, json::Value::Kind::kNumber);
        }
        if (tr->find("delivered")->as_number() >
            tr->find("sampled")->as_number()) {
          throw std::runtime_error("trace delivered exceeds sampled");
        }
      }
      if (const json::Value* tf = t->find("fault")) {
        for (const char* k : {"events", "link_down", "router_down", "repairs",
                              "dropped", "retransmits", "lost"}) {
          require(*tf, k, json::Value::Kind::kNumber);
        }
      }
      if (const json::Value* ts = t->find("timeseries")) {
        const auto& interval =
            require(*ts, "interval", json::Value::Kind::kNumber);
        if (interval.as_number() <= 0.0) {
          throw std::runtime_error("timeseries interval must be positive");
        }
        const auto& ivs =
            require(*ts, "intervals", json::Value::Kind::kArray).as_array();
        double prev_end = 0.0;
        for (std::size_t i = 0; i < ivs.size(); ++i) {
          const json::Value& iv = ivs[i];
          if (!iv.is_object()) {
            throw std::runtime_error("timeseries interval is not an object");
          }
          for (const char* k :
               {"begin", "end", "injected", "ejected", "offered_flits",
                "accepted_flits", "lat_packets", "avg_latency", "max_latency",
                "buffered_flits", "in_flight", "dropped", "retransmits",
                "lost"}) {
            if (require(iv, k, json::Value::Kind::kNumber).as_number() < 0.0) {
              throw std::runtime_error(std::string("negative timeseries \"") +
                                       k + "\"");
            }
          }
          const double begin = iv.find("begin")->as_number();
          const double end = iv.find("end")->as_number();
          if (begin >= end) {
            throw std::runtime_error("timeseries interval begin >= end");
          }
          if (begin < prev_end) {
            throw std::runtime_error("timeseries intervals overlap");
          }
          prev_end = end;
        }
      }
    }
  } catch (const std::exception& e) {
    throw std::runtime_error("point " + std::to_string(index) + ": " +
                             e.what());
  }
}

/// Returns the number of points validated; throws on any violation.
std::size_t check_document(const json::Value& doc) {
  if (!doc.is_object()) throw std::runtime_error("document is not an object");
  const auto& v = require(doc, "schema", json::Value::Kind::kNumber);
  if (v.as_number() != 8.0) {
    throw std::runtime_error("unsupported schema " +
                             std::to_string(v.as_number()) + " (want 8)");
  }
  const auto& points =
      require(doc, "points", json::Value::Kind::kArray).as_array();
  if (const json::Value* prof = doc.find("profile")) {
    if (!prof->is_object()) throw std::runtime_error("profile not an object");
    for (const char* k :
         {"points", "cycles", "point_wall_seconds", "chain_wall_seconds",
          "run_wall_seconds", "workers", "chains", "worker_utilization"}) {
      if (require(*prof, k, json::Value::Kind::kNumber).as_number() < 0.0) {
        throw std::runtime_error(std::string("negative profile \"") + k +
                                 "\"");
      }
    }
    const auto& phases = require(*prof, "phases", json::Value::Kind::kObject);
    for (const char* k :
         {"fault", "deliver", "inject", "route", "barrier", "telemetry"}) {
      if (require(phases, k, json::Value::Kind::kNumber).as_number() < 0.0) {
        throw std::runtime_error(std::string("negative profile phase \"") + k +
                                 "\"");
      }
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) check_point(points[i], i);
  return points.size();
}

// One current example of every block type: a UGAL point with the full
// telemetry set, an availability point with both fault blocks, workload
// points (one sampled into a time series), a closed-loop collective point,
// and the top-level profile block.
constexpr const char* kSelftestDoc = R"({
"schema": 8,
"points": [
  {"sweep": "s", "case": "PS-IQ", "pattern": "uniform", "mode": "ugal",
   "load": 0.1, "stable": true, "deadlock": false, "avg_latency": 8.5,
   "p50_latency": 8, "p99_latency": 20, "p999_latency": 31,
   "avg_hops": 2.4, "accepted_flit_rate": 0.1,
   "cycles": 2000, "measured_packets": 512, "wall_seconds": 0.05,
   "telemetry": {
     "link": {"num_links": 60, "total_flits": 4096, "avg_load": 0.04,
              "max_load": 0.2, "max_avg_ratio": 5.0},
     "stall": {"busy": 4096, "credit_starved": 10, "vc_blocked": 2,
               "arbitration_lost": 7, "idle": 85885},
     "ugal": {"decisions": 512, "valiant": 100, "minimal_no_better": 400,
              "minimal_no_candidate": 12, "avg_valiant_extra_hops": 1.5},
     "occupancy": {"samples": 31, "peak_router_flits": 24,
                   "avg_router_flits": 3.5},
     "latency": {"packets": 512, "p50": 8, "p90": 14, "p99": 20,
                 "p999": 31},
     "trace": {"sampled": 8, "delivered": 8, "period": 64}}},
  {"sweep": "avail", "case": "PS-IQ f=0.02", "pattern": "uniform",
   "mode": "min-adaptive", "load": 0.15, "stable": true, "deadlock": false,
   "avg_latency": 9.1, "p50_latency": 8, "p99_latency": 22,
   "p999_latency": 35, "avg_hops": 2.5, "accepted_flit_rate": 0.148,
   "cycles": 7600, "measured_packets": 500, "wall_seconds": 0.2,
   "fault": {"events": 23, "dropped": 152, "retransmits": 100, "lost": 12,
             "measured_lost": 4, "delivered_fraction": 0.9917},
   "telemetry": {
     "fault": {"events": 23, "link_down": 11, "router_down": 1,
               "repairs": 0, "dropped": 152, "retransmits": 100,
               "lost": 12}}},
  {"sweep": "workloads", "case": "PS-IQ incast", "pattern": "incast",
   "mode": "min-adaptive", "load": 0.2, "stable": true, "deadlock": false,
   "avg_latency": 10.2, "p50_latency": 9, "p99_latency": 40,
   "p999_latency": 66, "avg_hops": 2.4, "accepted_flit_rate": 0.199,
   "cycles": 10000, "measured_packets": 800, "wall_seconds": 0.4,
   "workload": {"name": "incast",
                "detail": "2 victims, burst 32/256 cycles, fraction 0.7"}},
  {"sweep": "drain", "case": "PS-IQ hotspot", "pattern": "hotspot",
   "mode": "min-adaptive", "load": 0.2, "stable": true, "deadlock": false,
   "avg_latency": 11.4, "p50_latency": 9, "p99_latency": 48,
   "p999_latency": 70, "avg_hops": 2.5, "accepted_flit_rate": 0.198,
   "cycles": 2500, "measured_packets": 600, "wall_seconds": 0.3,
   "workload": {"name": "hotspot"},
   "telemetry": {
     "timeseries": {"interval": 1000, "intervals": [
       {"begin": 0, "end": 1000, "injected": 400, "ejected": 360,
        "offered_flits": 1600, "accepted_flits": 1440, "lat_packets": 360,
        "avg_latency": 9.5, "max_latency": 40, "buffered_flits": 96,
        "in_flight": 40, "dropped": 0, "retransmits": 0, "lost": 0},
       {"begin": 1000, "end": 2500, "injected": 510, "ejected": 550,
        "offered_flits": 2040, "accepted_flits": 2200, "lat_packets": 550,
        "avg_latency": 11.6, "max_latency": 66, "buffered_flits": 0,
        "in_flight": 0, "dropped": 0, "retransmits": 0, "lost": 0}]}}},
  {"sweep": "collective-allreduce", "case": "PS-IQ edst/min",
   "pattern": "collective-edst", "mode": "min-adaptive", "load": 8,
   "stable": true, "deadlock": false, "avg_latency": 6.8,
   "p50_latency": 5, "p99_latency": 14, "p999_latency": 17,
   "avg_hops": 1, "accepted_flit_rate": 0,
   "cycles": 502, "measured_packets": 3952, "wall_seconds": 0.02,
   "workload": {"name": "collective-edst",
                "detail": "op=allreduce root=0 trees=3"},
   "collective": {"op": "allreduce", "algorithm": "edst", "ranks": 248,
                  "trees": 3, "chunks": 8, "packets_sent": 3952,
                  "expected_deliveries": 3952, "deliveries": 3952,
                  "reduce_done_cycle": 260, "completion_cycle": 502}}
],
"profile": {"points": 5, "cycles": 22602,
  "phases": {"fault": 0.0, "deliver": 0.01, "inject": 0.002,
             "route": 0.03, "barrier": 0.004, "telemetry": 0.001},
  "point_wall_seconds": 0.97, "chain_wall_seconds": 0.97,
  "run_wall_seconds": 0.5, "workers": 4, "chains": 4,
  "worker_utilization": 0.485}
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
      const std::size_t n = check_document(json::parse(kSelftestDoc));
      // Older schemas and the schema-1 bare array are rejected outright.
      for (const char* old : {R"({"schema": 7, "points": []})", "[]"}) {
        bool rejected = false;
        try {
          check_document(json::parse(old));
        } catch (const std::runtime_error&) {
          rejected = true;
        }
        if (!rejected) throw std::runtime_error("accepted a stale schema");
      }
      std::printf("selftest: %zu point(s) valid\n", n);
      return 0;
    }
    for (int i = 1; i < argc; ++i) {
      const std::size_t n = check_document(json::parse_file(argv[i]));
      std::printf("%s: schema ok, %zu point(s)\n", argv[i], n);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid: %s\n", e.what());
    return 1;
  }
  return 0;
}
