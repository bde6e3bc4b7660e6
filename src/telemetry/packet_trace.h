// Packet flight recorder: per-packet lifecycle records assembled from the
// simulator's packet hooks, and the collectors that build them.
//
//  - PacketTrace / PacketHopRecord: plain data, one record per sampled
//    packet with one entry per router visited (arrival / route / departure
//    cycles, so every per-hop wait is reconstructible). io/trace_export.h
//    turns a set of these into a Chrome-trace / Perfetto JSON file.
//  - PacketTraceCollector: subscribes the packet caps with a deterministic
//    PacketFilter and assembles events into traces. Output order is
//    injection order, so traces are bit-identical across thread counts.
//
// The record structs are deliberately free of sim includes so ps_io can
// consume them without linking ps_telemetry.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/collector.h"

namespace polarstar::telemetry {

/// Output-port sentinel marking a PacketHopRecord that ends in ejection
/// rather than a link traversal.
inline constexpr std::uint16_t kEjectPort = 0xFFFF;

/// One router visit of a traced packet's head flit.
struct PacketHopRecord {
  std::uint32_t router = 0;
  std::uint16_t port = 0;  ///< output port taken (kEjectPort = ejected here)
  std::uint8_t vc = 0;     ///< output VC chosen (0 for ejection)
  std::uint64_t arrival = 0;    ///< head flit available at this router
  std::uint64_t routed = 0;     ///< route decision (port/VC) made
  std::uint64_t departure = 0;  ///< head flit left (ejection: tail ejected)

  /// Cycles the head flit spent queued at this router.
  std::uint64_t wait() const { return departure - arrival; }
};

/// Lifecycle of one sampled packet.
struct PacketTrace {
  std::uint64_t id = 0;
  std::uint64_t src_endpoint = 0, dst_endpoint = 0;
  std::uint32_t src_router = 0, dst_router = 0;
  std::uint64_t birth_cycle = 0;
  std::uint64_t eject_cycle = 0;  ///< tail ejected (valid iff delivered)
  std::uint16_t flits = 0;
  bool valiant = false;
  bool measured = false;   ///< born inside the measurement window
  bool delivered = false;  ///< tail ejected before run end
  std::vector<PacketHopRecord> hops;  ///< router visits in path order

  /// Source-queue-to-ejection latency (sim convention: inclusive of the
  /// ejection cycle); 0 while in flight.
  std::uint64_t latency() const {
    return delivered ? eject_cycle - birth_cycle + 1 : 0;
  }
};

/// One failure instant observed during a run, for trace export and the
/// trace tooling. Deliberately stringly-kinded (the canonical labels from
/// fault::to_string / telemetry::to_string) so ps_io can consume these
/// without linking ps_fault.
struct FaultMarkRecord {
  std::uint64_t cycle = 0;
  /// "link-down", "link-up", "router-down", "router-up" for schedule
  /// events; "drop", "retransmit", "lost" for per-packet fault marks.
  std::string kind;
  /// Schedule events: link endpoints (router events: a = router, b = 0).
  /// Packet marks: a = packet id, b = 0.
  std::uint64_t a = 0, b = 0;
};

/// Assembles the simulator's packet hooks into PacketTrace records. One
/// instance per run; traces() preserves injection order. The collector
/// re-checks its own filter on every event, so it composes correctly with
/// other packet subscribers through a CollectorSet (whose merged filter may
/// be broader).
///
/// Fault-aware: it also subscribes the fault caps, recording every schedule
/// event plus drop/retransmit/lost marks for its own sampled packets, so
/// the exported Perfetto trace pins failure instants onto the timeline.
class PacketTraceCollector final : public Collector {
 public:
  explicit PacketTraceCollector(PacketFilter filter) : filter_(filter) {}

  Caps caps() const override {
    Caps c;
    c.packets = filter_;
    c.faults = true;  // free on fault-free runs: the hooks never fire
    return c;
  }

  void on_run_begin(const sim::Network& net, const sim::SimParams& prm,
                    std::uint64_t measure_begin,
                    std::uint64_t measure_end) override;
  void on_fault(const fault::FaultEvent& ev, std::uint64_t cycle) override;
  void on_packet_fault(const sim::PacketRecord& pkt, PacketFaultKind kind,
                       std::uint64_t cycle) override;
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
  void on_run_end(std::uint64_t cycles, std::uint64_t measure_begin,
                  std::uint64_t measure_end) override;
  void finish(Summary& out) const override;

  const PacketFilter& filter() const { return filter_; }
  const std::vector<PacketTrace>& traces() const { return traces_; }
  /// Moves the records out (collector is spent afterwards).
  std::vector<PacketTrace> take_traces() { return std::move(traces_); }
  /// Failure instants in observation order (empty on fault-free runs).
  const std::vector<FaultMarkRecord>& fault_marks() const {
    return fault_marks_;
  }
  std::vector<FaultMarkRecord> take_fault_marks() {
    return std::move(fault_marks_);
  }
  /// Final cycle count of the observed run (span end for in-flight packets).
  std::uint64_t run_cycles() const { return run_cycles_; }

 private:
  PacketTrace* find(std::uint64_t id);

  PacketFilter filter_;
  std::vector<PacketTrace> traces_;
  std::vector<FaultMarkRecord> fault_marks_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // id -> traces_ pos
  std::uint64_t run_cycles_ = 0;
};

}  // namespace polarstar::telemetry
