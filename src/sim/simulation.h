// Cycle-level flit simulator (the BookSim substitute).
//
// Model: input-queued routers with per-(port, VC) ring buffers and
// credit-based flow control; wormhole switching with per-hop VC allocation
// (VC class = hops taken, so any path of length < num_vcs is deadlock-free);
// separable switch allocation with per-output round-robin arbiters; one-flit
// links of configurable latency; per-endpoint injection queues (source
// queues, unbounded) and 1-flit/cycle ejection ports.
//
// Two path modes: Minimal (deterministic hash pick or adaptive credit-based
// pick among all minimal ports) and UGAL-L (per-packet choice between the
// minimal path and the best of a few Valiant candidates, judged by local
// queue occupancy; §9.3 of the paper).
//
// Runs are deterministic for a fixed seed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "routing/ugal.h"
#include "sim/network.h"
#include "telemetry/collector.h"
#include "telemetry/packet_trace.h"
#include "telemetry/summary.h"

namespace polarstar::fault {
class FaultSchedule;
class FaultAwareRouting;
struct FaultEvent;
}  // namespace polarstar::fault

namespace polarstar::sim {

enum class PathMode { kMinimal, kUgal };
enum class MinSelect { kSingleHash, kAdaptive };

/// Canonical mode string for tables and JSON emission: "min",
/// "min-adaptive" or "ugal" (UGAL's minimal leg is always hash-picked, so
/// MinSelect is not distinguished under kUgal).
const char* to_string(PathMode mode, MinSelect sel);

/// Run knobs. The constructor rejects num_vcs outside [1, 32],
/// vc_buffer_flits or packet_flits outside [1, 65535], and link_latency or
/// credit_latency above 65535 (the link and credit pipelines hold one slot
/// per cycle of latency) with std::invalid_argument. Fixed engine
/// constants, not knobs: a run with no flit movement for 4000 cycles is
/// declared deadlocked; under faults a dropped packet is retransmitted
/// after 64 cycles, doubling per retry, and lost after 8 retries, and a
/// packet that has walked num_vcs * 4 hops is dropped.
struct SimParams {
  std::uint32_t num_vcs = 4;
  std::uint32_t vc_buffer_flits = 32;  // per input VC (4 x 32 = 128 per port)
  std::uint32_t packet_flits = 4;
  std::uint32_t link_latency = 1;
  /// Cycles for a freed buffer slot's credit to reach the upstream router
  /// (0 = instantaneous, the idealized default).
  std::uint32_t credit_latency = 0;
  /// Validate structural invariants every cycle (credit conservation,
  /// wormhole contiguity, VC ownership); throws std::logic_error on
  /// violation. Slow -- for tests.
  bool paranoid_checks = false;
  std::uint64_t warmup_cycles = 2000;
  std::uint64_t measure_cycles = 5000;
  std::uint64_t drain_cycles = 30000;
  std::uint64_t seed = 1;
  PathMode path_mode = PathMode::kMinimal;
  MinSelect min_select = MinSelect::kSingleHash;
  std::uint32_t ugal_candidates = 4;
  /// Live fault injection: events from this schedule (non-owning; must
  /// outlive the Simulation) are applied at their cycles -- links/routers
  /// die, in-flight flits on them are dropped and their packets
  /// source-retransmitted. nullptr (default) = fault-free; every fault
  /// code path is gated so fault-free runs are bit-identical to a build
  /// without the subsystem.
  const fault::FaultSchedule* faults = nullptr;
  /// Testing escape hatch: run the same UGAL-L and fault-filter bodies over
  /// the reference data views (routing::UgalSelector over the virtual
  /// MinimalRouting, FaultAwareRouting::next_hops over link_alive) instead
  /// of the views over the flattened tables resolved at construction, and
  /// run the slow full-scan router sweep; every other phase of the cycle
  /// is the same code. Outputs are bit-identical either way -- `ctest -L
  /// perf` asserts it. Slow; never set outside tests.
  bool reference_impl = false;
  /// Engine self-profiler: attribute wall-clock time to the cycle's phases
  /// (faults, link delivery, injection, switch allocation, end-of-cycle
  /// bookkeeping, telemetry sampling); results land in SimResult::profile.
  /// Wall time only -- simulation outputs are bit-identical with the
  /// profiler on or off. Under reference_impl the route phase times the
  /// reference sweep, so the two reports show what the fast paths buy.
  bool profile = false;
};

/// Wall-clock attribution for the simulator itself (SimParams::profile).
/// Phase seconds cover the cycle loop end to end.
struct EngineProfile {
  bool enabled = false;
  std::uint64_t cycles = 0;        ///< cycles attributed below
  double fault_seconds = 0.0;      ///< phase 0: schedule events + retransmits
  double deliver_seconds = 0.0;    ///< phase 1: link arrivals + credit returns
  double inject_seconds = 0.0;     ///< phase 2: traffic source tick
  double route_seconds = 0.0;      ///< phase 3: allocation + traversal
  /// Phase 4, end-of-cycle bookkeeping: the ejection pass in router order
  /// (delivery counters, latency, on_delivered), deferred fault kills and
  /// the deadlock detector.
  double barrier_seconds = 0.0;
  double telemetry_seconds = 0.0;  ///< end of cycle: occupancy/metrics hooks
};

struct PacketRecord {
  std::uint64_t id = 0;
  std::uint64_t src_endpoint = 0, dst_endpoint = 0;
  std::uint32_t src_router = 0, dst_router = 0;
  std::uint64_t birth_cycle = 0;
  std::uint64_t tag = 0;  // motif message id (0 = pattern traffic)
  std::uint16_t flits = 0;
  std::uint16_t delivered_flits = 0;
  std::uint8_t hops = 0;
  std::uint8_t retries = 0;  // source retransmissions so far (faults only)
  bool valiant = false;
  bool phase2 = false;  // passed the Valiant intermediate
  std::uint32_t intermediate = 0;
  bool measured = false;
};

/// A labeled instant on a source's timeline (collective phase boundaries);
/// runlab merges these into the exported Perfetto trace.
struct SourceMark {
  std::uint64_t cycle = 0;
  std::string label;
};

/// Structured results a closed-loop source hands back through collect():
/// stored in SimResult::source. collective_json, when non-empty, must be a
/// balanced JSON object -- it is emitted verbatim as the per-point
/// "collective" block of POLARSTAR_JSON documents.
struct SourceReport {
  std::string collective_json;
  std::vector<SourceMark> marks;
  bool empty() const { return collective_json.empty() && marks.empty(); }
};

struct SimResult {
  std::uint64_t cycles = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t measured_packets = 0;
  double avg_packet_latency = 0.0;
  /// Exact percentiles over the measured packets: one sorted pass of the
  /// per-packet samples, each read at sample[floor(q * (n - 1))]. The only
  /// latency percentiles the repo computes (telemetry does not recount).
  double p50_packet_latency = 0.0;
  double p90_packet_latency = 0.0;
  double p99_packet_latency = 0.0;
  double p999_packet_latency = 0.0;
  double avg_hops = 0.0;
  /// Ejected flits per endpoint per cycle during the measurement window.
  double accepted_flit_rate = 0.0;
  bool stable = true;
  bool deadlock = false;
  std::uint64_t max_source_queue = 0;
  /// Aggregates from the attached telemetry collector(s); every has_*
  /// flag is false when no collector was attached.
  telemetry::Summary telemetry;
  /// Flight-recorder records, filled by runlab::run_point when its spec
  /// enables tracing (the Simulation itself stays collector-agnostic);
  /// empty otherwise.
  std::vector<telemetry::PacketTrace> packet_traces;
  /// Engine self-profiler report (SimParams::profile); enabled == false
  /// and all-zero otherwise.
  EngineProfile profile;

  // ---- Live fault injection (all zero / 1.0 on fault-free runs) ----
  std::uint64_t fault_events = 0;  ///< schedule events applied
  /// Packets whose in-flight flits a failure dropped (counted once per
  /// drop; a packet dropped twice counts twice).
  std::uint64_t packets_dropped = 0;
  std::uint64_t retransmits = 0;  ///< source re-injections performed
  /// Packets given up (retry budget exhausted or destination unreachable).
  std::uint64_t packets_lost = 0;
  std::uint64_t measured_lost = 0;  ///< of those, measurement-window births
  /// measured delivered / (delivered + lost + still outstanding at end):
  /// the availability sweep's headline number. 1.0 when fault-free.
  double delivered_fraction = 1.0;
  /// Largest delivered latency of a measured packet that was retransmitted
  /// at least once (0 = none): the recovery-time proxy.
  std::uint64_t max_recovery_latency = 0;
  /// Failure instants observed by the flight recorder, filled by
  /// runlab::run_point alongside packet_traces; empty otherwise.
  std::vector<telemetry::FaultMarkRecord> fault_marks;
  /// Whatever the traffic source reported at collect() time (collective
  /// completion stats, phase marks); empty for plain pattern sources.
  SourceReport source;
};

class Simulation;

/// Traffic generators and motif engines implement this.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;
  /// Called once per cycle before switch allocation; enqueue packets here.
  virtual void tick(Simulation& sim) = 0;
  /// Called when a packet's tail flit is ejected.
  virtual void on_delivered(Simulation& sim, const PacketRecord& pkt) {
    (void)sim;
    (void)pkt;
  }
  /// For application runs (run_app): all work generated and none pending?
  virtual bool finished(const Simulation& sim) const {
    (void)sim;
    return false;
  }
  /// Called once at collect() time. Default: nothing to report.
  virtual SourceReport report() const { return {}; }
};

class Simulation {
 public:
  /// `collector` (optional, non-owning, may be a telemetry::CollectorSet)
  /// observes the run; it must outlive the Simulation. With no collector,
  /// every telemetry hook site reduces to one predictable flag check on
  /// the hot path.
  Simulation(const Network& net, const SimParams& prm, TrafficSource& source,
             telemetry::Collector* collector = nullptr);
  ~Simulation();

  /// Open-loop pattern run: warmup, measurement, then drain (sources keep
  /// injecting) until every measured packet is delivered or the drain
  /// budget is exhausted (-> unstable).
  SimResult run();

  /// Closed-loop application run: cycles until the source is finished and
  /// the network has drained (Fig 11 completion-time metric).
  SimResult run_app(std::uint64_t max_cycles);

  /// Enqueue a packet of packet_flits flits into the source queue.
  /// Unchecked, as it is on the injection hot path: src_ep and dst_ep must
  /// be below the topology's num_endpoints(), or it reads and writes past
  /// the per-endpoint arrays.
  void enqueue_packet(std::uint64_t src_ep, std::uint64_t dst_ep,
                      std::uint64_t tag = 0);

  std::uint64_t cycle() const { return cycle_; }
  const Network& network() const { return *net_; }
  const SimParams& params() const { return prm_; }
  std::uint64_t outstanding_packets() const { return live_packets_; }

 private:
  struct Flit {
    std::uint32_t pkt;
    std::uint16_t seq;
  };
  struct VcState {
    std::uint16_t out_port = 0;
    std::uint8_t out_vc = 0;
    bool active = false;
  };
  struct Arrival {
    std::uint32_t buffer;  // destination input-buffer index
    Flit flit;
  };

  std::size_t buffer_index(graph::Vertex r, std::uint32_t port,
                           std::uint32_t vc) const {
    return (net_->port_base(r) + port) * prm_.num_vcs + vc;
  }

  bool buffer_empty(std::size_t b) const { return buf_size_[b] == 0; }
  // The front flit: the front run's packet, and its seq is the number of
  // that packet's flits already forwarded.
  Flit buffer_front(std::size_t b) const {
    return {run_store_[b * run_cap_ + buf_head_[b]], buf_sent_[b]};
  }
  // The packet of buffer b's i-th run from the front.
  std::uint32_t run_packet(std::size_t b, std::uint32_t i) const {
    return run_store_[b * run_cap_ + (buf_head_[b] + i) % run_cap_];
  }
  void buffer_push(std::size_t b, Flit f);
  void buffer_pop(std::size_t b);

  std::uint32_t new_packet(std::uint64_t src_ep, std::uint64_t dst_ep,
                           std::uint64_t tag);
  void free_packet(std::uint32_t idx);

  // Pooled per-endpoint injection queues: singly linked FIFOs over one
  // shared node pool with a free list, so steady-state push/pop never
  // allocates (a deque per endpoint did).
  static constexpr std::uint32_t kNilNode = 0xFFFFFFFFu;
  struct InjNode {
    std::uint32_t pkt;
    std::uint32_t next;
  };
  void inj_push(std::uint64_t ep, std::uint32_t pkt_idx);
  void inj_pop_front(std::uint64_t ep);

  // Occupied flits in the downstream input buffers toward `next` (the
  // UGAL-L local queue estimate), as the reference UgalSelector asks for it.
  double occupancy(graph::Vertex r, graph::Vertex next) const;
  // occupancy() resolved to a directed link index (= port_base(r) + port).
  double occupancy_by_port(std::size_t link) const;
  // routing::ugal_select's view over the Network's flattened distance and
  // route-port tables and occupancy_by_port (defined in simulation.cpp).
  struct UgalView;

  // One switch-allocation request: req_stride_ slots per output port
  // (enough for every input of the widest router), with per-output counts
  // -- resetting a router's requests is nout stores.
  struct Request {
    std::uint32_t input_key;  // link-buffer index | 0x80000000 + endpoint
    std::uint32_t pkt;
    std::uint16_t inport;     // arbitration input-port index at this router
    std::uint8_t ovc;
  };

  // Route the head flit of packet pkt_idx at router r; fills out/ovc.
  // Fault-free a minimal next hop always exists and this returns true;
  // under faults it returns false when no live route remains (or the hop
  // budget is spent) and the caller queues the packet for a drop.
  bool compute_route(std::uint32_t pkt_idx, graph::Vertex r,
                     std::uint16_t& out, std::uint8_t& ovc);

  // One full cycle: faults, link delivery, the source tick, the router
  // sweep, end-of-cycle bookkeeping and telemetry samples (DESIGN.md
  // section 7). Telemetry, fault and profiler hooks are runtime flag
  // checks; only the router sweep differs under SimParams::reference_impl.
  void step();
  // Phase 3: allocation + switch traversal over the routers with a busy
  // input, in ascending order.
  void route_routers();
  // End-of-cycle ejection pass: finalize_flit for every flit ejected this
  // cycle, in router order.
  void finalize_ejected();
  // Phase 3 under SimParams::reference_impl: the pre-optimization router
  // loop, kept verbatim (adapted only to the pooled queue storage): scans
  // every router/VC instead of the work masks, recomputes receive-buffer
  // indexes and arbitration input ports the long way, and uses modulo ring
  // arithmetic. The `perf` test label diffs it against route_routers.
  void route_reference();
  // Fault machinery (only called when has_faults_).
  void process_faults();       // apply due schedule events, kill casualties
  // Removes every flit of the given packets from buffers, arrivals and
  // injection queues, restoring credits; sorts + dedupes `victims` in place.
  void purge_packets(std::vector<std::uint32_t>& victims);
  void drop_packet(std::uint32_t pkt_idx);  // schedule retransmit or lose
  void lose_packet(std::uint32_t pkt_idx);
  void process_retransmits();  // re-enqueue packets whose backoff expired
  void process_pending_kills();
  bool fault_progress_pending() const;  // work left besides in-network flits
  // Classify and report this cycle's non-moving output link ports of r
  // (stall telemetry only).
  void report_output_stalls(graph::Vertex r, std::uint32_t deg);
  void finalize_flit(std::uint32_t pkt_idx);
  void check_push(std::size_t b, Flit f) const;  // paranoid mode
  void check_invariants() const;                 // paranoid mode

  SimResult collect(std::uint64_t cycles);

  const Network* net_;
  SimParams prm_;
  TrafficSource* source_;
  std::mt19937_64 rng_;

  // Telemetry plumbing. collector_ is the caller's collector (possibly a
  // telemetry::CollectorSet); the flags cache its caps() so hot-path hook
  // sites cost one branch each.
  telemetry::Collector* collector_ = nullptr;
  bool link_telemetry_ = false;
  bool stall_telemetry_ = false;
  bool ugal_telemetry_ = false;
  std::uint32_t occupancy_period_ = 0;
  // Periodic counter sampling (caps().metrics_period). Every counter a
  // MetricsFrame reads is mutated by helpers both engines share (injection
  // in the source tick, ejection/latency in the end-of-cycle finalize
  // pass, fault counters in phase 0), and the sample fires at the end of
  // the cycle, so the optimized and reference engines emit identical
  // frames. The MetricsState snapshots turn the cumulative counters into
  // interval diffs.
  std::uint32_t metrics_period_ = 0;
  std::uint64_t metrics_accepted_flits_ = 0;  // cumulative ejected flits
  struct MetricsState {
    std::uint64_t last_cycle = 0;  // start of the open interval
    std::uint64_t injected = 0;
    std::uint64_t offered_flits = 0;
    std::uint64_t ejected_pkts = 0;
    std::uint64_t accepted_flits = 0;
    std::uint64_t dropped = 0, retx = 0, lost = 0;
    // Interval latency accumulators, reset every frame.
    std::uint64_t lat_count = 0;
    double lat_sum = 0.0;
    std::uint64_t lat_max = 0;
  };
  MetricsState metrics_;
  void emit_metrics_frame(std::uint64_t end_cycle);

  // Engine self-profiler (SimParams::profile): phase wall-clock
  // accumulators, folded into SimResult::profile by collect(). Never
  // touches simulation state, so results are identical with it on or off.
  EngineProfile prof_;
  // Flight recorder: which packets fire the on_packet_* hooks. traced_ /
  // trace_arrival_ shadow the packet pool and are only touched when
  // packet_telemetry_ (one branch per site otherwise).
  bool packet_telemetry_ = false;
  telemetry::PacketFilter trace_filter_;
  std::vector<std::uint8_t> traced_;
  std::vector<std::uint64_t> trace_arrival_;

  std::uint64_t cycle_ = 0;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t live_packets_ = 0;
  std::uint64_t moved_this_cycle_ = 0;
  std::uint64_t last_progress_cycle_ = 0;
  bool deadlock_ = false;

  // Measurement window [measure_begin_, measure_end_).
  std::uint64_t measure_begin_ = 0, measure_end_ = ~0ull;
  std::uint64_t measured_outstanding_ = 0;
  std::uint64_t measured_delivered_ = 0;
  std::uint64_t packets_delivered_total_ = 0;
  std::uint64_t ejected_flits_in_window_ = 0;
  double latency_sum_ = 0;
  std::uint64_t hop_sum_ = 0;
  std::vector<std::uint32_t> latency_samples_;

  // Packet pool.
  std::vector<PacketRecord> packets_;
  std::vector<std::uint32_t> packet_free_;

  // Input buffers (link ports only). Wormhole switching keeps a packet's
  // flits contiguous in a VC, so a buffer is a ring of runs, one packet
  // pool index per packet with flits here (or, for the front run, flits
  // still to come): run_cap_ runs per buffer (DESIGN.md section 6).
  // buf_head_ is the front run's ring slot, buf_runs_ the number of runs,
  // buf_size_ the number of flits and buf_sent_ the front packet's flits
  // already forwarded.
  std::uint32_t run_cap_ = 1;
  std::vector<std::uint32_t> run_store_;
  std::vector<std::uint16_t> buf_head_, buf_size_, buf_runs_, buf_sent_;
  std::vector<VcState> vc_state_;
  std::vector<std::uint16_t> credits_;  // free slots per input buffer
  // Output VC ownership: packet currently holding (directed link, vc),
  // 0 = free (packet pool index + 1 otherwise).
  std::vector<std::uint32_t> out_owner_;

  // Injection: per endpoint (pooled linked FIFOs, see InjNode).
  std::vector<InjNode> inj_pool_;
  std::uint32_t inj_free_head_ = kNilNode;
  std::vector<std::uint32_t> inj_head_, inj_tail_;
  std::vector<std::uint32_t> inj_count_;
  std::vector<std::uint16_t> inj_sent_;  // flits of head packet already sent
  std::vector<VcState> inj_state_;

  // Link pipeline: rings indexed by cycle % depth. An arrival slot holds
  // the flits landing in input buffers that cycle; a credit slot the
  // buffers whose freed slot becomes visible upstream that cycle.
  std::vector<std::vector<Arrival>> arrivals_;
  std::vector<std::vector<std::uint32_t>> credit_returns_;
  std::size_t arr_depth_ = 1, cred_depth_ = 1;

  // Per-output round-robin pointers, indexed by router-port (links) and
  // ejection slots.
  std::vector<std::uint16_t> out_rr_link_;
  std::vector<std::uint16_t> out_rr_ej_;

  // Switch-allocation scratch, reused router to router. Only the outputs
  // flagged in out_req_ hold requests, so resetting a router costs its
  // requested outputs, not its radix.
  std::size_t req_stride_ = 0;
  std::vector<Request> req_store_;
  std::vector<std::uint32_t> req_count_;
  std::vector<std::uint64_t> out_req_;      // bit per output with requests
  std::vector<std::uint64_t> inport_used_;  // bit per input port granted
  std::vector<std::uint8_t> out_want_credit_, out_want_vc_, out_granted_;
  std::vector<graph::Vertex> fault_hops_;
  std::vector<std::uint16_t> fault_ports_;
  // Deferred to the end of the cycle: packets found unroutable (killed
  // after the router loop, so no purge edits a buffer mid-sweep) and
  // flits ejected this cycle (finalized in router order, because
  // on_delivered may enqueue new packets).
  std::vector<std::uint32_t> pending_kills_;
  std::vector<std::uint32_t> ejected_;

  routing::UgalSelector ugal_;  // reference selector (reference_impl mode)

  // Flat lookup tables resolved once at construction so the cycle loop
  // never re-derives them (binary searches, pointer chases). A buffer's
  // directed link and VC are b / num_vcs and b % num_vcs.
  std::vector<graph::Vertex> ep_router_;     // endpoint -> router
  std::vector<std::uint32_t> recv_buf_base_; // directed link -> first
                                             // downstream input-buffer index
  // Occupancy index, which makes the optimized allocator's cost follow the
  // work instead of the radix. port_mask_ has a bit per non-empty VC
  // buffer of each directed link (num_vcs <= 32 enforced at construction).
  // Each router owns input_words_ whole words of input_busy_: bit p for a
  // link port with port_mask_ != 0, bit slot_bit0_ + s for an endpoint slot
  // with a queued packet. router_busy_ has bit r for each router r with
  // any input busy. Walking a bitset visits set bits ascending, the order
  // of the full scans it replaces; a router with no busy input is skipped
  // whole (it would collect, grant and report nothing).
  std::vector<std::uint32_t> port_mask_;
  std::size_t input_words_ = 0;
  std::uint32_t slot_bit0_ = 0;  // first endpoint-slot bit (max degree)
  std::vector<std::uint64_t> input_busy_;
  std::vector<std::uint64_t> router_busy_;
  std::vector<std::uint16_t> link_port_;   // directed link -> port at router
  // Flag / unflag input `bit` of router r, keeping router_busy_ in step.
  void input_up(graph::Vertex r, std::uint32_t bit);
  void input_down(graph::Vertex r, std::uint32_t bit);
  // Flag buffer b (= directed link * num_vcs + vc) as non-empty.
  void vc_up(std::size_t b);
  // Recomputes port_mask_ and the busy bitsets from the buffers and
  // injection queues (after a fault purge).
  void rebuild_work_index();

  // ---- Live fault injection (inert unless has_faults_) ----
  bool has_faults_ = false;      // a schedule was attached
  bool faults_active_ = false;   // network currently degraded
  bool fault_telemetry_ = false;
  std::size_t next_fault_ = 0;  // cursor into the schedule's event list
  std::unique_ptr<fault::FaultAwareRouting> fault_routing_;
  // Liveness masks recomputed per epoch: per directed link / per router.
  std::vector<std::uint8_t> link_down_, router_down_;
  // Backoff queue: retransmission due-cycle -> packet pool index.
  std::multimap<std::uint64_t, std::uint32_t> retx_queue_;
  std::uint64_t fault_events_applied_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t retransmits_done_ = 0;
  std::uint64_t packets_lost_ = 0;
  std::uint64_t measured_lost_ = 0;
  std::uint64_t max_recovery_latency_ = 0;
};

}  // namespace polarstar::sim
