// Replayable workload traces: record the exact injection stream of a run,
// replay it later (or elsewhere) and get the bit-identical SimResult.
//
// Format (text, one event per line, stable under diff):
//
//   # polarstar workload trace v1
//   endpoints 1050
//   packet_flits 4
//   events 12345
//   <cycle> <src_endpoint> <dst_endpoint> <flits>
//   ...
//
// Events are stored in injection order. *Within-cycle order is
// load-bearing*: packet ids are assigned in enqueue order and feed RNG
// draws and arbitration, so replay preserves the recorded sequence exactly
// rather than re-sorting. The flits column is descriptive (the simulator
// injects SimParams::packet_flits for every packet); TraceReplay validates
// it against the run's parameters instead of silently diverging.
//
// TraceRecorder is a telemetry::Collector with a period-1 packet filter:
// on_packet_injected fires once per packet birth (retransmits do not
// re-fire it) in the injection phase, so the recorded stream is identical
// at any POLARSTAR_THREADS. It rides along
// any CollectorSet without perturbing other collectors (they re-filter
// internally).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/collector.h"
#include "workload/workload.h"

namespace polarstar::workload {

struct TraceEvent {
  std::uint64_t cycle = 0;
  std::uint64_t src = 0;  ///< source endpoint
  std::uint64_t dst = 0;  ///< destination endpoint
  std::uint32_t flits = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

struct Trace {
  std::uint64_t num_endpoints = 0;
  std::uint32_t packet_flits = 0;
  std::vector<TraceEvent> events;

  friend bool operator==(const Trace&, const Trace&) = default;
};

void write_trace(std::ostream& os, const Trace& trace);
void write_trace_file(const std::string& path, const Trace& trace);

/// Parses the v1 text format; throws std::runtime_error with a line
/// diagnostic on malformed input.
Trace read_trace(std::istream& is);
Trace read_trace_file(const std::string& path);

/// Records every packet birth of one Simulation run. Attach (directly or
/// inside a telemetry::CollectorSet) to the run being recorded, then call
/// trace() after the run.
class TraceRecorder final : public telemetry::Collector {
 public:
  Caps caps() const override {
    Caps c;
    c.packets.sample_period = 1;  // every packet
    return c;
  }

  void on_run_begin(const sim::Network& net, const sim::SimParams& prm,
                    std::uint64_t measure_begin,
                    std::uint64_t measure_end) override;
  void on_packet_injected(const sim::PacketRecord& pkt,
                          std::uint64_t cycle) override;

  const Trace& trace() const { return trace_; }
  Trace take_trace() { return std::move(trace_); }

 private:
  Trace trace_;
};

/// Replays a recorded trace as a Workload. Context::load is ignored (the
/// trace *is* the offered load); Context::packet_flits must match the
/// trace header, and the topology must have at least trace.num_endpoints
/// endpoints -- instantiate() throws std::invalid_argument otherwise.
/// A replayed run reproduces the recorded run's SimResult bit for bit
/// when the remaining SimParams match (see workload.h's determinism
/// contract).
class TraceReplay final : public Workload {
 public:
  explicit TraceReplay(Trace trace);

  std::string name() const override { return "trace-replay"; }
  std::string describe() const override;
  std::unique_ptr<sim::TrafficSource> instantiate(
      const Context& ctx) const override;

  const Trace& trace() const { return trace_; }

 private:
  Trace trace_;
};

}  // namespace polarstar::workload
