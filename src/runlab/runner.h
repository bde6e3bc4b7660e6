// Parallel experiment runner for latency-vs-load sweeps.
//
// A sweep is a list of SweepCases, each pairing a shared-ownership
// sim::Network with traffic (a synthetic pattern, or any
// workload::Workload scenario), simulation parameters and an ascending
// load chain. The unit of scheduling is the whole chain, not the
// point: points within a chain are sequential because the paper-style
// early exit ("stop after the first saturated load") makes later points
// depend on earlier outcomes, while distinct chains never share mutable
// state and run concurrently on the pool.
//
// Results come back in case order regardless of which worker finished
// first, and every point is simulated with the parameters given in the
// spec, so a run with POLARSTAR_THREADS=8 is bit-identical to a serial one.
// That extends to the flight recorder: trace sampling is keyed on packet
// ids, not wall time, so POLARSTAR_TRACE output is byte-identical at any
// thread count. POLARSTAR_PROGRESS=1 adds a stderr heartbeat (stdout is
// never touched, so piped tables stay byte-identical).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "fault/schedule.h"
#include "io/trace_export.h"
#include "runlab/thread_pool.h"
#include "sim/simulation.h"
#include "sim/traffic.h"
#include "telemetry/collector.h"

namespace polarstar::workload {
class Workload;
}  // namespace polarstar::workload

namespace polarstar::runlab {

/// Sentinel for pattern_seed: seed the traffic pattern from params.seed
/// (the common case -- a few benches historically seed the two separately).
inline constexpr std::uint64_t kSameSeed = ~0ull;

/// One sweep column: a network plus everything needed to run its load
/// chain. The case co-owns the Network (and through it the topology and
/// routing), so a spec stays valid after its builders go out of scope.
struct SweepCase {
  std::string name;
  std::shared_ptr<const sim::Network> net;
  sim::Pattern pattern = sim::Pattern::kUniform;
  /// Scenario traffic: when set, the case runs this workload instead of
  /// `pattern` (each point instantiates a fresh source at that point's
  /// load/seed). Shared-ownership like the network; the immutable workload
  /// serves many concurrent chains. JSON points of a workload case carry
  /// the "workload" block, and the workload's timeline marks land
  /// in the exported Perfetto trace.
  std::shared_ptr<const workload::Workload> workload;
  /// Load-independent knobs (seed, VC count, path mode, windows...).
  sim::SimParams params;
  /// Offered loads, ascending (flits per endpoint per cycle).
  std::vector<double> loads;
  std::uint64_t pattern_seed = kSameSeed;
  /// Stop the chain after the first unstable point (paper-plot semantics).
  bool stop_after_saturation = true;
  /// Record the whole chain as never-run (e.g. adversarial traffic on an
  /// ungrouped topology).
  bool skip = false;
  /// Optional telemetry: invoked once per simulated point (on the worker
  /// thread) with the load index; the returned collector observes that
  /// point and its aggregates land in SimResult::telemetry and, through
  /// POLARSTAR_JSON, in the "telemetry" block.
  std::function<std::unique_ptr<telemetry::Collector>(std::size_t)>
      make_collector;
  /// Flight-recorder sampling for every point of this case. Disabled by
  /// default; when POLARSTAR_TRACE is set the runner samples cases without
  /// an explicit filter at kDefaultTracePeriod.
  telemetry::PacketFilter trace{};
  /// Time-series metrics interval (cycles) for every point of this case:
  /// a telemetry::TimeSeriesCollector rides along and its interval records
  /// land in SimResult::telemetry ("timeseries" JSON block, Perfetto
  /// counter tracks). 0 = the runner's POLARSTAR_METRICS_INTERVAL default
  /// (itself 0 = off).
  std::uint32_t metrics_interval = 0;
  /// Live fault schedule applied to every point of this case (availability
  /// sweeps). Shared-ownership like the network: the immutable schedule is
  /// safely driven by many concurrent Simulations, and JSON points of a
  /// faulted case carry the per-point "fault" block.
  std::shared_ptr<const fault::FaultSchedule> faults;
};

/// Everything one simulated (network, pattern, load) point needs -- the
/// serial primitive the runner schedules. An aggregate, meant for
/// designated initializers:
///   run_point({.net = &net, .load = 0.3, .params = prm});
/// Equal specs give bit-identical results on any thread.
struct PointSpec {
  const sim::Network* net = nullptr;
  sim::Pattern pattern = sim::Pattern::kUniform;
  /// When set, overrides `pattern`: the point's source comes from
  /// workload->instantiate (non-owning; must outlive the call).
  const workload::Workload* workload = nullptr;
  double load = 0.0;
  sim::SimParams params;
  /// kSameSeed = use params.seed.
  std::uint64_t pattern_seed = kSameSeed;
  /// Optional observer attached to the simulation (non-owning).
  telemetry::Collector* collector = nullptr;
  /// When enabled, a PacketTraceCollector rides along and the sampled
  /// flight records come back in SimResult::packet_traces (and, under
  /// faults, failure instants in SimResult::fault_marks).
  telemetry::PacketFilter trace{};
  /// When non-zero, a telemetry::TimeSeriesCollector rides along and the
  /// interval records come back in SimResult::telemetry.timeseries.
  std::uint32_t metrics_interval = 0;
  /// Optional live fault schedule (non-owning; overrides params.faults).
  const fault::FaultSchedule* faults = nullptr;
};

struct PointResult {
  double load = 0.0;
  /// False when the point was skipped (case skip, or past saturation).
  bool ran = false;
  sim::SimResult result;  // valid iff ran
  double wall_seconds = 0.0;
};

struct CaseResult {
  /// One entry per SweepCase::loads entry, in load order.
  std::vector<PointResult> points;
  double wall_seconds = 0.0;  // whole chain
};

sim::SimResult run_point(const PointSpec& spec);

/// Time-series interval from POLARSTAR_METRICS_INTERVAL: its value when it
/// is a positive decimal integer that fits in 32 bits, otherwise 0 (off).
std::uint32_t configured_metrics_interval();

class ExperimentRunner {
 public:
  /// Sampling period applied to cases without an explicit trace filter
  /// when a trace path is configured (1 in 64 packets by id).
  static constexpr std::uint32_t kDefaultTracePeriod = 64;

  /// 0 = POLARSTAR_THREADS, falling back to hardware_concurrency. The
  /// pool runs that many load chains concurrently; each chain's points run
  /// serially on its worker.
  explicit ExperimentRunner(unsigned num_threads = 0);
  /// Flushes pending JSON and traces (see set_json_path / set_trace_path)
  /// before tearing the pool down.
  ~ExperimentRunner();

  ExperimentRunner(const ExperimentRunner&) = delete;
  ExperimentRunner& operator=(const ExperimentRunner&) = delete;

  /// Runs every case's load chain (one pool task each) and blocks until
  /// all finish. `label` names the sweep in emitted JSON. If a simulation
  /// throws, the first exception (in case order) is rethrown here.
  std::vector<CaseResult> run(const std::string& label,
                              const std::vector<SweepCase>& cases);

  unsigned num_threads() const { return pool_.size(); }

  /// Where results are written as JSON. Initialised from POLARSTAR_JSON at
  /// construction; empty disables emission. Override before run() in tests.
  void set_json_path(std::string path) { json_path_ = std::move(path); }
  const std::string& json_path() const { return json_path_; }

  /// Where sampled flight records are written as a Chrome-trace / Perfetto
  /// JSON file. Initialised from POLARSTAR_TRACE; empty disables tracing
  /// for cases that don't request it themselves.
  void set_trace_path(std::string path) { trace_path_ = std::move(path); }
  const std::string& trace_path() const { return trace_path_; }

  /// Heartbeat destination (default: stderr iff POLARSTAR_PROGRESS=1,
  /// else none). Tests inject an ostringstream; nullptr silences.
  void set_progress_stream(std::ostream* os) { progress_ = os; }

  /// Default time-series interval applied to cases without an explicit
  /// metrics_interval. Initialised from POLARSTAR_METRICS_INTERVAL; 0
  /// disables metrics for cases that don't request them themselves.
  void set_metrics_interval(std::uint32_t interval) {
    metrics_interval_ = interval;
  }
  std::uint32_t metrics_interval() const { return metrics_interval_; }

  /// Engine self-profiler: when on (POLARSTAR_PROFILE=1, or this setter),
  /// every point runs with SimParams::profile and the runner aggregates the
  /// per-phase attribution plus its own worker-utilization accounting into
  /// a profile report -- written to the profile stream
  /// (default stderr) after each run() and, through POLARSTAR_JSON, as the
  /// top-level "profile" block. stdout is never touched (the
  /// POLARSTAR_PROGRESS discipline), and simulation results are
  /// bit-identical with profiling on or off.
  void set_profile(bool on) { profile_ = on; }
  bool profile() const { return profile_; }
  /// Profile report destination (tests inject an ostringstream; nullptr
  /// silences the report while keeping the JSON block).
  void set_profile_stream(std::ostream* os) { profile_stream_ = os; }

  /// Writes every point recorded so far (all run() calls on this runner)
  /// as one JSON array. Called automatically by the destructor; explicit
  /// calls rewrite the file in place. No-op when the path is empty.
  void flush_json();

  /// Same contract for the Chrome-trace file: one trace group per traced
  /// point, in case order.
  void flush_trace();

 private:
  struct Record {
    std::string sweep, name;
    /// Pattern name, or the workload's name for workload cases (the JSON
    /// "pattern" field stays required and meaningful either way).
    std::string pattern;
    std::string mode;  // "min", "min-adaptive" or "ugal"
    double load;
    sim::SimResult result;
    double wall_seconds;
    bool faulted = false;       // case carried a fault schedule
    bool has_workload = false;  // emit the "workload" block
    std::string workload_detail;
  };

  /// Runner-side profile aggregation across every recorded point of every
  /// run() call (the engine's per-phase seconds summed, plus the runner's
  /// own wall-clock accounting for worker utilization).
  struct ProfileAgg {
    std::size_t points = 0;
    std::uint64_t cycles = 0;
    double fault = 0.0, deliver = 0.0, inject = 0.0, route = 0.0;
    double barrier = 0.0, telemetry = 0.0;
    double point_wall = 0.0;         // sum of point wall_seconds
    double chain_wall = 0.0;         // sum of chain wall_seconds
    double run_wall = 0.0;           // sum of run() wall_seconds
  };

  void report_profile(const std::string& label) const;

  ThreadPool pool_;
  std::string json_path_, trace_path_;
  std::ostream* progress_ = nullptr;
  std::uint32_t metrics_interval_ = 0;
  bool profile_ = false;
  std::ostream* profile_stream_ = nullptr;
  ProfileAgg profile_agg_;
  std::vector<Record> records_;
  std::vector<io::PacketTraceGroup> trace_groups_;
};

}  // namespace polarstar::runlab
