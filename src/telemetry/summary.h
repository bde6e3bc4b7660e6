// Plain-data telemetry summary attached to every SimResult.
//
// Each concrete collector folds its end-of-run aggregates into one block
// here (Collector::finish); a run without telemetry leaves every `has_*`
// flag false. Kept header-only and free of sim includes so sim/simulation.h
// can embed a Summary without a link dependency on ps_telemetry.
#pragma once

#include <cstdint>
#include <vector>

namespace polarstar::telemetry {

/// Directed-link load aggregates over the measurement window.
struct LinkLoadSummary {
  std::uint64_t total_flits = 0;
  std::uint64_t num_links = 0;
  double avg_load = 0.0;       ///< flits per link per cycle
  double max_load = 0.0;       ///< hottest link, flits per cycle
  double max_avg_ratio = 0.0;  ///< load-balance figure of merit (1 = perfect)
};

/// Output-port cycle accounting over the measurement window, summed across
/// all directed link ports: busy + stalls + idle == ports x window.
struct StallSummary {
  std::uint64_t busy = 0;  ///< port-cycles that forwarded a flit
  std::uint64_t credit_starved = 0;
  std::uint64_t vc_blocked = 0;
  std::uint64_t arbitration_lost = 0;
  std::uint64_t idle = 0;  ///< no waiting traffic (derived)
};

/// UGAL-L decision counters over the measurement window.
struct UgalSummary {
  std::uint64_t decisions = 0;
  std::uint64_t valiant = 0;  ///< Valiant path chosen (queue advantage)
  /// Minimal kept: candidates were evaluated but none was cheaper.
  std::uint64_t minimal_no_better = 0;
  /// Minimal kept by default: every sampled intermediate was degenerate.
  std::uint64_t minimal_no_candidate = 0;
  /// Mean extra hops of the chosen Valiant paths (0 when none chosen).
  double avg_valiant_extra_hops = 0.0;
};

/// Buffer-occupancy time-series aggregates.
struct OccupancySummary {
  std::uint64_t samples = 0;
  double peak_router_flits = 0.0;  ///< max per-router buffered flits seen
  double avg_router_flits = 0.0;   ///< mean over samples and routers
};

/// Flight-recorder metadata: how many packets the trace sampled.
struct TraceSummary {
  std::uint64_t sampled_packets = 0;  ///< lifecycles recorded
  std::uint64_t delivered = 0;        ///< of those, delivered before run end
  std::uint32_t sample_period = 0;    ///< id sampling period
};

/// One closed metrics interval [begin_cycle, end_cycle): interval diffs of
/// the simulator's cumulative counters plus end-of-interval gauges. Records
/// are mergeable: summing the count fields (and max-ing max_latency, keeping
/// the later gauges) of adjacent intervals yields the coarser interval.
struct TimeSeriesInterval {
  std::uint64_t begin_cycle = 0;
  std::uint64_t end_cycle = 0;
  std::uint64_t injected = 0;        ///< packets entering source queues
  std::uint64_t ejected = 0;         ///< packets fully delivered
  std::uint64_t offered_flits = 0;   ///< flits offered (incl. retransmits)
  std::uint64_t accepted_flits = 0;  ///< flits ejected at destinations
  std::uint64_t lat_packets = 0;     ///< deliveries folded into avg/max below
  double avg_latency = 0.0;          ///< mean latency of interval deliveries
  std::uint64_t max_latency = 0;     ///< worst latency of interval deliveries
  std::uint64_t buffered_flits = 0;  ///< gauge: VC-buffer occupancy at end
  std::uint64_t in_flight = 0;       ///< gauge: live packets at end
  std::uint64_t dropped = 0;         ///< fault drops in interval
  std::uint64_t retransmits = 0;     ///< fault retransmits in interval
  std::uint64_t lost = 0;            ///< packets abandoned in interval
};

/// TimeSeriesCollector output: the run chopped into `interval`-cycle
/// records (the final record may be a shorter remainder).
struct TimeSeriesSummary {
  std::uint32_t interval = 0;  ///< requested sampling period in cycles
  std::vector<TimeSeriesInterval> intervals;
};

struct Summary {
  bool has_link = false;
  bool has_stall = false;
  bool has_ugal = false;
  bool has_occupancy = false;
  bool has_trace = false;
  bool has_timeseries = false;
  LinkLoadSummary link;
  StallSummary stall;
  UgalSummary ugal;
  OccupancySummary occupancy;
  TraceSummary trace;
  TimeSeriesSummary timeseries;

  bool any() const {
    return has_link || has_stall || has_ugal || has_occupancy || has_trace ||
           has_timeseries;
  }
};

}  // namespace polarstar::telemetry
