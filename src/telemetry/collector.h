// Simulator telemetry: the Collector interface the flit simulator drives.
//
// A Collector is a passive observer attached to one Simulation run. The
// simulator keeps the no-telemetry hot path free of work: every hook site
// is compiled around a per-capability flag check (link flits, stalls, UGAL
// decisions, occupancy sampling, packet lifecycle events), so a run without
// a collector pays one predictable branch per site and a run with a
// collector pays only for the event classes its caps() request.
//
// This header is deliberately self-contained (sim types are forward
// declared) so `ps_sim` can drive collectors without linking against the
// concrete implementations in `ps_telemetry` -- the interface is the only
// coupling point between the two libraries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "telemetry/summary.h"

namespace polarstar::sim {
class Network;
struct SimParams;
struct PacketRecord;
}  // namespace polarstar::sim

namespace polarstar::fault {
struct FaultEvent;
}  // namespace polarstar::fault

namespace polarstar::telemetry {

/// What a live fault did to one packet (the per-packet fault hook's verb).
enum class PacketFaultKind : std::uint8_t {
  /// In-flight flits were dropped by a link/router failure; the source
  /// will retransmit unless the retry budget is exhausted.
  kDropped,
  /// The packet re-entered its source queue after a backoff timeout.
  kRetransmitted,
  /// Retry budget exhausted or destination unreachable: given up.
  kLost,
};

/// Short label for tables and trace marks ("drop", "retransmit", "lost").
inline const char* to_string(PacketFaultKind kind) {
  switch (kind) {
    case PacketFaultKind::kDropped:
      return "drop";
    case PacketFaultKind::kRetransmitted:
      return "retransmit";
    case PacketFaultKind::kLost:
      return "lost";
  }
  return "?";
}

/// Why an output link port moved no flit this cycle even though at least
/// one buffered packet wanted it. Ports with no waiting traffic are "empty"
/// (idle) -- derived, not reported, since busy + stalled + empty partitions
/// the cycle count.
enum class StallCause : std::uint8_t {
  /// Every candidate was blocked on zero downstream credits.
  kCreditStarved,
  /// Candidates had credits but the downstream VC is owned by another
  /// in-flight packet (wormhole exclusivity).
  kVcBlocked,
  /// Requests reached the allocator but every requester's input port was
  /// already granted to a different output this cycle.
  kArbitrationLost,
};

/// Short column label for tables ("credit", "vcblk", "arb") -- the canonical
/// spelling shared by the bench tables and trace tooling.
inline const char* to_string(StallCause cause) {
  switch (cause) {
    case StallCause::kCreditStarved:
      return "credit";
    case StallCause::kVcBlocked:
      return "vcblk";
    case StallCause::kArbitrationLost:
      return "arb";
  }
  return "?";
}

/// One UGAL-L injection-time decision (built from routing::PathChoice).
struct UgalDecision {
  bool valiant = false;
  std::uint32_t min_hops = 0;     ///< minimal-path hop count
  std::uint32_t chosen_hops = 0;  ///< hops of the chosen path
  /// Valiant intermediates actually evaluated (degenerate draws skipped).
  std::uint32_t candidates_evaluated = 0;
  double min_cost = 0.0;     ///< hops x (1 + queue) of the minimal path
  double chosen_cost = 0.0;  ///< same estimate for the chosen path
};

/// Buffer-fill view handed to occupancy sampling hooks. `buffer_fill[i]`
/// is the occupied flits of input-buffer i, indexed exactly like the
/// simulator: (Network::port_base(r) + port) * num_vcs + vc.
struct OccupancySnapshot {
  std::span<const std::uint16_t> buffer_fill;
  std::uint32_t num_vcs = 0;
};

/// Deterministic packet-sampling predicate for the flight-recorder hooks:
/// a packet is traced when its id is a multiple of `sample_period`, or its
/// (src, dst) endpoint pair is on the watch list. Sampling by id keeps
/// full-scale runs cheap and is reproducible across thread counts (ids are
/// assigned in injection order, which is part of the deterministic run).
struct PacketFilter {
  /// Trace every packet whose id % sample_period == 0 (0 = none).
  std::uint32_t sample_period = 0;
  /// (src_endpoint, dst_endpoint) pairs always traced regardless of id.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> watch;

  bool enabled() const { return sample_period != 0 || !watch.empty(); }

  bool matches(std::uint64_t id, std::uint64_t src_ep,
               std::uint64_t dst_ep) const {
    if (sample_period != 0 && id % sample_period == 0) return true;
    return std::find(watch.begin(), watch.end(),
                     std::make_pair(src_ep, dst_ep)) != watch.end();
  }

  /// The least selective of two filters (what the simulator must observe so
  /// both subscribers see their packets). A gcd period over-approximates --
  /// collectors re-check their own filter on delivered events.
  static PacketFilter merge(const PacketFilter& a, const PacketFilter& b) {
    PacketFilter m;
    if (a.sample_period == 0 || b.sample_period == 0) {
      m.sample_period = a.sample_period + b.sample_period;
    } else {
      std::uint32_t x = a.sample_period, y = b.sample_period;
      while (y != 0) {
        const std::uint32_t t = x % y;
        x = y;
        y = t;
      }
      m.sample_period = x;
    }
    m.watch = a.watch;
    m.watch.insert(m.watch.end(), b.watch.begin(), b.watch.end());
    return m;
  }
};

/// One periodic counter sample handed to on_metrics_sample: interval diffs
/// of the simulator's cumulative counters over [begin_cycle, end_cycle),
/// plus gauges read at end_cycle. Frames tile the run contiguously (the
/// frame after this one begins at end_cycle) and the final frame may cover
/// a short remainder, so summing any field's diffs over all frames yields
/// the run total. Frames are bit-identical at any thread count and between
/// the optimized and reference engines.
struct MetricsFrame {
  std::uint64_t begin_cycle = 0;
  std::uint64_t end_cycle = 0;
  std::uint64_t injected = 0;        ///< packets entering source queues
  std::uint64_t ejected = 0;         ///< packets fully delivered
  std::uint64_t offered_flits = 0;   ///< flits offered (incl. retransmits)
  std::uint64_t accepted_flits = 0;  ///< flits ejected at destinations
  std::uint64_t lat_count = 0;       ///< deliveries folded into lat_* below
  double lat_sum = 0.0;              ///< summed latency of those deliveries
  std::uint64_t lat_max = 0;         ///< worst latency of those deliveries
  std::uint64_t buffered_flits = 0;  ///< gauge: VC-buffer flits at end_cycle
  std::uint64_t in_flight = 0;       ///< gauge: live packets at end_cycle
  std::uint64_t dropped = 0;         ///< fault drops in interval
  std::uint64_t retransmits = 0;     ///< fault retransmits in interval
  std::uint64_t lost = 0;            ///< packets abandoned in interval
};

class Collector {
 public:
  /// Event classes this collector wants. Queried once at Simulation
  /// construction; the simulator skips hook sites nobody subscribed to.
  struct Caps {
    bool link_flits = false;
    bool stalls = false;
    bool ugal = false;
    /// Sample period in cycles for on_occupancy_sample (0 = never).
    std::uint32_t occupancy_period = 0;
    /// Sample period in cycles for on_metrics_sample (0 = never). Fan-out
    /// collectors merge member periods with gcd, so a concrete collector
    /// may see frames finer than its own grid and must re-bucket them
    /// (MetricsFrame records are mergeable by construction).
    std::uint32_t metrics_period = 0;
    /// Which packets fire the flight-recorder hooks (on_packet_*);
    /// disabled filter = none. Fan-out collectors merge member filters, so
    /// a concrete collector may see packets outside its own filter and
    /// must re-check PacketFilter::matches if it cares.
    PacketFilter packets;
    /// Fault-injection hooks (on_fault / on_packet_fault). Fault events
    /// are rare, so these are unfiltered: every schedule event and every
    /// affected packet is reported when subscribed.
    bool faults = false;
  };

  virtual ~Collector() = default;

  virtual Caps caps() const { return {}; }

  /// Called once when the run starts, before the first cycle. The window
  /// is [measure_begin, measure_end); run_app passes measure_end = ~0ull
  /// (open-ended -- on_run_end re-announces the clamped window).
  virtual void on_run_begin(const sim::Network& net, const sim::SimParams& prm,
                            std::uint64_t measure_begin,
                            std::uint64_t measure_end) {
    (void)net, (void)prm, (void)measure_begin, (void)measure_end;
  }

  /// A flit crossed the directed link `link_index` (Network::link_index
  /// numbering) during `cycle`. Fired for every cycle of the run; window
  /// filtering is the collector's business.
  virtual void on_link_flit(std::size_t link_index, std::uint64_t cycle) {
    (void)link_index, (void)cycle;
  }

  /// Output link port `port` of router `r` moved nothing this cycle for
  /// the given cause. Only fired for ports with waiting traffic; ports
  /// that forwarded a flit show up via on_link_flit instead.
  virtual void on_output_stall(std::uint32_t router, std::uint32_t port,
                               StallCause cause, std::uint64_t cycle) {
    (void)router, (void)port, (void)cause, (void)cycle;
  }

  /// A UGAL-L path decision was made for a packet injected at `cycle`.
  virtual void on_ugal_decision(const UgalDecision& d, std::uint64_t cycle) {
    (void)d, (void)cycle;
  }

  /// Periodic buffer-occupancy sample (every caps().occupancy_period
  /// cycles, at end of cycle, after switch traversal).
  virtual void on_occupancy_sample(std::uint64_t cycle,
                                   const OccupancySnapshot& snap) {
    (void)cycle, (void)snap;
  }

  /// Periodic counter sample closing the interval [f.begin_cycle,
  /// f.end_cycle) -- fired at end of cycle whenever end_cycle is a multiple
  /// of caps().metrics_period, and once more from the run epilogue for a
  /// partial final interval (before on_run_end). See MetricsFrame.
  virtual void on_metrics_sample(const MetricsFrame& f) { (void)f; }

  // ---- Packet flight-recorder hooks (caps().packets selects packets) ----
  // For a traced packet the simulator fires, in order: one injection, then
  // per router visit one route decision followed (possibly several cycles
  // later) by one hop departure, and finally one ejection when the tail
  // flit leaves the network. `pkt` is only valid for the duration of the
  // call; copy what you need.

  /// The packet entered its source queue at `cycle` (== pkt.birth_cycle).
  virtual void on_packet_injected(const sim::PacketRecord& pkt,
                                  std::uint64_t cycle) {
    (void)pkt, (void)cycle;
  }

  /// The head flit was routed at `router`: output port and VC chosen.
  /// `eject` marks the terminal decision (out_port is an ejection slot,
  /// not a link port).
  virtual void on_packet_routed(const sim::PacketRecord& pkt,
                                std::uint32_t router, std::uint16_t out_port,
                                std::uint8_t out_vc, bool eject,
                                std::uint64_t cycle) {
    (void)pkt, (void)router, (void)out_port, (void)out_vc, (void)eject,
        (void)cycle;
  }

  /// The head flit won allocation at `router` and crossed link port `port`
  /// on VC `vc` during `cycle`. `arrival_cycle` is when the head flit
  /// became available at this router (buffer arrival, or birth for the
  /// source router), so cycle - arrival_cycle is the per-hop wait.
  virtual void on_packet_hop(const sim::PacketRecord& pkt,
                             std::uint32_t router, std::uint32_t port,
                             std::uint8_t vc, std::uint64_t arrival_cycle,
                             std::uint64_t cycle) {
    (void)pkt, (void)router, (void)port, (void)vc, (void)arrival_cycle,
        (void)cycle;
  }

  /// The packet's tail flit was ejected at `cycle`; pkt still carries the
  /// arrival cycle at the final router (see on_packet_hop) so the terminal
  /// wait is cycle - arrival.
  virtual void on_packet_ejected(const sim::PacketRecord& pkt,
                                 std::uint64_t arrival_cycle,
                                 std::uint64_t cycle) {
    (void)pkt, (void)arrival_cycle, (void)cycle;
  }

  // ---- Fault-injection hooks (caps().faults) -------------------------
  // Fired by a Simulation driving a fault::FaultSchedule; never fired on a
  // fault-free run.

  /// A schedule event was applied at `cycle` (== ev.cycle, unless the
  /// schedule predates the run's first cycle).
  virtual void on_fault(const fault::FaultEvent& ev, std::uint64_t cycle) {
    (void)ev, (void)cycle;
  }

  /// A live fault hit `pkt`: its flits were dropped, it re-entered its
  /// source queue, or it was given up as lost (see PacketFaultKind). `pkt`
  /// is only valid for the duration of the call.
  virtual void on_packet_fault(const sim::PacketRecord& pkt,
                               PacketFaultKind kind, std::uint64_t cycle) {
    (void)pkt, (void)kind, (void)cycle;
  }

  /// Called once after the last cycle. `cycles` is the final cycle count;
  /// [measure_begin, measure_end) is the *effective* measurement window:
  /// what on_run_begin announced, clamped by the simulator to the run's
  /// actual length. Open-ended run_app windows arrive here closed, so
  /// collectors never special-case measure_end == ~0ull themselves.
  virtual void on_run_end(std::uint64_t cycles, std::uint64_t measure_begin,
                          std::uint64_t measure_end) {
    (void)cycles, (void)measure_begin, (void)measure_end;
  }

  /// Fold this collector's aggregates into the run's summary block
  /// (SimResult::telemetry). Called after on_run_end.
  virtual void finish(Summary& out) const { (void)out; }
};

}  // namespace polarstar::telemetry
