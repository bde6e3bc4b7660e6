// Concrete telemetry collectors for the flit simulator.
//
//  - LinkHistogramCollector: per-directed-link flit counts over the
//    measurement window.
//  - StallCollector: per-output-port stall attribution (credit-starved /
//    VC-blocked / arbitration-lost) and busy counts; idle is derived.
//  - OccupancyCollector: per-router and per-VC buffered-flit time-series
//    sampled every `period` cycles.
//  - UgalCollector: UGAL-L decision counters (minimal vs Valiant, and why).
//  - TimeSeriesCollector: periodic counter intervals (the run's time axis).
//  - CollectorSet: fans one Simulation's events out to several collectors;
//    FullCollector bundles the link, stall, occupancy and UGAL ones.
//
// The packet flight recorder (PacketTraceCollector) lives in
// telemetry/packet_trace.h. Latency percentiles and fault counts are not
// collected here: SimResult computes them exactly on every run.
//
// Every collector is single-run state: attach a fresh instance per
// Simulation. None of them touches global state, so runs on different
// threads with distinct collectors are independent and deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/collector.h"
#include "telemetry/packet_trace.h"

namespace polarstar::telemetry {

class LinkHistogramCollector final : public Collector {
 public:
  Caps caps() const override {
    Caps c;
    c.link_flits = true;
    return c;
  }
  void on_run_begin(const sim::Network& net, const sim::SimParams& prm,
                    std::uint64_t measure_begin,
                    std::uint64_t measure_end) override;
  void on_link_flit(std::size_t link_index, std::uint64_t cycle) override;
  void on_run_end(std::uint64_t cycles, std::uint64_t measure_begin,
                  std::uint64_t measure_end) override;
  void finish(Summary& out) const override;

  /// Flits per directed link inside the measurement window, indexed like
  /// Network::link_index.
  const std::vector<std::uint64_t>& totals() const { return totals_; }
  /// Measurement-window length actually observed (cycles). The simulator
  /// re-announces the clamped window at on_run_end, so this needs no
  /// open-ended special case.
  std::uint64_t window_cycles() const { return measure_end_ - measure_begin_; }

 private:
  std::uint64_t measure_begin_ = 0, measure_end_ = ~0ull;
  std::vector<std::uint64_t> totals_;
};

class StallCollector final : public Collector {
 public:
  Caps caps() const override {
    Caps c;
    c.link_flits = true;
    c.stalls = true;
    return c;
  }
  void on_run_begin(const sim::Network& net, const sim::SimParams& prm,
                    std::uint64_t measure_begin,
                    std::uint64_t measure_end) override;
  void on_link_flit(std::size_t link_index, std::uint64_t cycle) override;
  void on_output_stall(std::uint32_t router, std::uint32_t port,
                       StallCause cause, std::uint64_t cycle) override;
  void on_run_end(std::uint64_t cycles, std::uint64_t measure_begin,
                  std::uint64_t measure_end) override;
  void finish(Summary& out) const override;

  /// Per-directed-link counters (measurement window), Network::link_index
  /// numbering.
  const std::vector<std::uint64_t>& busy() const { return busy_; }
  const std::vector<std::uint64_t>& credit_starved() const {
    return credit_starved_;
  }
  const std::vector<std::uint64_t>& vc_blocked() const { return vc_blocked_; }
  const std::vector<std::uint64_t>& arbitration_lost() const {
    return arbitration_lost_;
  }
  /// Window cycles: busy + stalls + idle of any port sums to this. Valid
  /// after on_run_end (the simulator re-announces the clamped window).
  std::uint64_t window_cycles() const { return measure_end_ - measure_begin_; }
  std::uint64_t idle(std::size_t link_index) const;

 private:
  bool in_window(std::uint64_t cycle) const {
    return cycle >= measure_begin_ && cycle < measure_end_;
  }
  std::uint64_t measure_begin_ = 0, measure_end_ = ~0ull;
  const sim::Network* net_ = nullptr;
  std::vector<std::uint64_t> busy_, credit_starved_, vc_blocked_,
      arbitration_lost_;
};

class OccupancyCollector final : public Collector {
 public:
  explicit OccupancyCollector(std::uint32_t period) : period_(period) {}

  Caps caps() const override {
    Caps c;
    c.occupancy_period = period_;
    return c;
  }
  void on_run_begin(const sim::Network& net, const sim::SimParams& prm,
                    std::uint64_t measure_begin,
                    std::uint64_t measure_end) override;
  void on_occupancy_sample(std::uint64_t cycle,
                           const OccupancySnapshot& snap) override;
  void finish(Summary& out) const override;

  std::size_t num_samples() const { return sample_cycles_.size(); }
  const std::vector<std::uint64_t>& sample_cycles() const {
    return sample_cycles_;
  }
  /// Buffered flits of router r at sample s (all its input VCs summed).
  std::uint32_t router_flits(std::size_t s, std::uint32_t r) const {
    return router_series_[s * num_routers_ + r];
  }
  /// Buffered flits network-wide in VC class `vc` at sample s.
  std::uint64_t vc_flits(std::size_t s, std::uint32_t vc) const {
    return vc_series_[s * num_vcs_ + vc];
  }
  std::uint32_t num_routers() const { return num_routers_; }
  std::uint32_t num_vcs() const { return num_vcs_; }

 private:
  std::uint32_t period_;
  const sim::Network* net_ = nullptr;
  std::uint32_t num_routers_ = 0, num_vcs_ = 0;
  std::vector<std::uint64_t> sample_cycles_;
  std::vector<std::uint32_t> router_series_;  // samples x routers
  std::vector<std::uint64_t> vc_series_;      // samples x vcs
};

class UgalCollector final : public Collector {
 public:
  Caps caps() const override {
    Caps c;
    c.ugal = true;
    return c;
  }
  void on_run_begin(const sim::Network& net, const sim::SimParams& prm,
                    std::uint64_t measure_begin,
                    std::uint64_t measure_end) override;
  void on_ugal_decision(const UgalDecision& d, std::uint64_t cycle) override;
  void finish(Summary& out) const override;

  const UgalSummary& counters() const { return sum_; }

 private:
  std::uint64_t measure_begin_ = 0, measure_end_ = ~0ull;
  UgalSummary sum_;
  // Signed: under non-graph-minimal routing (DF's hierarchical scheme) a
  // Valiant detour can be shorter than the "minimal" path.
  std::int64_t valiant_extra_hops_ = 0;
};

/// Periodic counter time series: buckets the simulator's MetricsFrame
/// samples into `interval`-cycle TimeSeriesInterval records (offered /
/// accepted flits, injections/ejections, interval latency mean+max, buffer
/// occupancy, in-flight count, fault drops/retransmits). Frames may arrive
/// on a finer grid than `interval` (CollectorSet merges member periods with
/// gcd); the collector re-buckets them, closing a record whenever a frame
/// ends on its own grid and once more at run end for the remainder. The
/// series is bit-identical at any POLARSTAR_THREADS and vs reference_impl.
class TimeSeriesCollector final : public Collector {
 public:
  explicit TimeSeriesCollector(std::uint32_t interval) : interval_(interval) {}

  Caps caps() const override {
    Caps c;
    c.metrics_period = interval_;
    return c;
  }
  void on_run_begin(const sim::Network& net, const sim::SimParams& prm,
                    std::uint64_t measure_begin,
                    std::uint64_t measure_end) override;
  void on_metrics_sample(const MetricsFrame& f) override;
  void on_run_end(std::uint64_t cycles, std::uint64_t measure_begin,
                  std::uint64_t measure_end) override;
  void finish(Summary& out) const override;

  std::uint32_t interval() const { return interval_; }
  const std::vector<TimeSeriesInterval>& intervals() const {
    return intervals_;
  }

 private:
  void close_bucket();

  std::uint32_t interval_;
  std::vector<TimeSeriesInterval> intervals_;
  MetricsFrame acc_;  // open bucket (frames merged since last close)
  bool open_ = false;
};

/// Fans every event out to a set of collectors (non-owning). caps() is the
/// union of the members' caps; occupancy samples are delivered to each
/// member on its own period grid.
class CollectorSet : public Collector {
 public:
  CollectorSet() = default;
  explicit CollectorSet(std::vector<Collector*> members);
  void add(Collector* c);

  Caps caps() const override;
  void on_run_begin(const sim::Network& net, const sim::SimParams& prm,
                    std::uint64_t measure_begin,
                    std::uint64_t measure_end) override;
  void on_link_flit(std::size_t link_index, std::uint64_t cycle) override;
  void on_output_stall(std::uint32_t router, std::uint32_t port,
                       StallCause cause, std::uint64_t cycle) override;
  void on_ugal_decision(const UgalDecision& d, std::uint64_t cycle) override;
  void on_occupancy_sample(std::uint64_t cycle,
                           const OccupancySnapshot& snap) override;
  void on_metrics_sample(const MetricsFrame& f) override;
  void on_packet_injected(const sim::PacketRecord& pkt,
                          std::uint64_t cycle) override;
  void on_packet_routed(const sim::PacketRecord& pkt, std::uint32_t router,
                        std::uint16_t out_port, std::uint8_t out_vc,
                        bool eject, std::uint64_t cycle) override;
  void on_packet_hop(const sim::PacketRecord& pkt, std::uint32_t router,
                     std::uint32_t port, std::uint8_t vc,
                     std::uint64_t arrival_cycle, std::uint64_t cycle) override;
  void on_packet_ejected(const sim::PacketRecord& pkt,
                         std::uint64_t arrival_cycle,
                         std::uint64_t cycle) override;
  void on_fault(const fault::FaultEvent& ev, std::uint64_t cycle) override;
  void on_packet_fault(const sim::PacketRecord& pkt, PacketFaultKind kind,
                       std::uint64_t cycle) override;
  void on_run_end(std::uint64_t cycles, std::uint64_t measure_begin,
                  std::uint64_t measure_end) override;
  void finish(Summary& out) const override;

 private:
  /// Per-event dispatch reads each member's caps; the set caches them (one
  /// virtual caps() call per member, not per event) and refreshes the
  /// cache whenever the membership changes.
  const std::vector<Caps>& member_caps() const;

  std::vector<Collector*> members_;
  mutable std::vector<Caps> member_caps_;
};

/// The aggregate bundle: links, stalls, occupancy and UGAL collectors in
/// one CollectorSet (in that dispatch order). Attach directly to a
/// Simulation, or return one from a SweepCase::make_collector factory; the
/// members stay public for inspection after the run. Not copyable: the set
/// points at the members.
class FullCollector final : public CollectorSet {
 public:
  explicit FullCollector(std::uint32_t occupancy_period = 64)
      : occupancy(occupancy_period) {
    add(&links);
    add(&stalls);
    add(&occupancy);
    add(&ugal);
  }
  FullCollector(const FullCollector&) = delete;
  FullCollector& operator=(const FullCollector&) = delete;

  LinkHistogramCollector links;
  StallCollector stalls;
  OccupancyCollector occupancy;
  UgalCollector ugal;
};

}  // namespace polarstar::telemetry
