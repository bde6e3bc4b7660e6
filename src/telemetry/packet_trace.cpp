#include "telemetry/packet_trace.h"

#include "fault/schedule.h"
#include "sim/simulation.h"

namespace polarstar::telemetry {

// ------------------------------------------------- PacketTraceCollector ---

void PacketTraceCollector::on_run_begin(const sim::Network& /*net*/,
                                        const sim::SimParams& /*prm*/,
                                        std::uint64_t /*measure_begin*/,
                                        std::uint64_t /*measure_end*/) {
  traces_.clear();
  fault_marks_.clear();
  index_.clear();
  run_cycles_ = 0;
}

void PacketTraceCollector::on_fault(const fault::FaultEvent& ev,
                                    std::uint64_t cycle) {
  fault_marks_.push_back(
      {cycle, fault::to_string(ev.kind), ev.a, ev.b});
}

void PacketTraceCollector::on_packet_fault(const sim::PacketRecord& pkt,
                                           PacketFaultKind kind,
                                           std::uint64_t cycle) {
  // Packet-level marks only for our own sampled packets (schedule events
  // above are always recorded -- they are rare and global).
  if (!filter_.matches(pkt.id)) return;
  fault_marks_.push_back({cycle, to_string(kind), pkt.id, 0});
}

PacketTrace* PacketTraceCollector::find(std::uint64_t id) {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &traces_[it->second];
}

void PacketTraceCollector::on_packet_injected(const sim::PacketRecord& pkt,
                                              std::uint64_t cycle) {
  // The simulator fires for the *merged* filter of every attached
  // collector; keep only our own packets.
  if (!filter_.matches(pkt.id)) return;
  index_.emplace(pkt.id, traces_.size());
  PacketTrace t;
  t.id = pkt.id;
  t.src_endpoint = pkt.src_endpoint;
  t.dst_endpoint = pkt.dst_endpoint;
  t.src_router = pkt.src_router;
  t.dst_router = pkt.dst_router;
  t.birth_cycle = cycle;
  t.flits = pkt.flits;
  t.valiant = pkt.valiant;
  t.measured = pkt.measured;
  traces_.push_back(std::move(t));
}

void PacketTraceCollector::on_packet_routed(const sim::PacketRecord& pkt,
                                            std::uint32_t router,
                                            std::uint16_t out_port,
                                            std::uint8_t out_vc, bool eject,
                                            std::uint64_t cycle) {
  PacketTrace* t = find(pkt.id);
  if (t == nullptr) return;
  PacketHopRecord hop;
  hop.router = router;
  hop.port = eject ? kEjectPort : out_port;
  hop.vc = eject ? 0 : out_vc;
  hop.routed = cycle;
  t->hops.push_back(hop);
}

void PacketTraceCollector::on_packet_hop(const sim::PacketRecord& pkt,
                                         std::uint32_t router,
                                         std::uint32_t /*port*/,
                                         std::uint8_t /*vc*/,
                                         std::uint64_t arrival_cycle,
                                         std::uint64_t cycle) {
  PacketTrace* t = find(pkt.id);
  if (t == nullptr || t->hops.empty()) return;
  PacketHopRecord& hop = t->hops.back();
  if (hop.router != router) return;  // defensive; should not happen
  hop.arrival = arrival_cycle;
  hop.departure = cycle;
}

void PacketTraceCollector::on_packet_ejected(const sim::PacketRecord& pkt,
                                             std::uint64_t arrival_cycle,
                                             std::uint64_t cycle) {
  PacketTrace* t = find(pkt.id);
  if (t == nullptr) return;
  t->eject_cycle = cycle;
  t->delivered = true;
  if (!t->hops.empty() && t->hops.back().port == kEjectPort) {
    t->hops.back().arrival = arrival_cycle;
    t->hops.back().departure = cycle;
  }
}

void PacketTraceCollector::on_run_end(std::uint64_t cycles,
                                      std::uint64_t /*measure_begin*/,
                                      std::uint64_t /*measure_end*/) {
  run_cycles_ = cycles;
}

void PacketTraceCollector::finish(Summary& out) const {
  out.has_trace = true;
  out.trace.sampled_packets = traces_.size();
  out.trace.sample_period = filter_.sample_period;
  std::uint64_t delivered = 0;
  for (const PacketTrace& t : traces_) delivered += t.delivered ? 1 : 0;
  out.trace.delivered = delivered;
}

}  // namespace polarstar::telemetry
