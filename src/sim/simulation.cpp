#include "sim/simulation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>
#include <span>
#include <stdexcept>

#include "fault/fault_routing.h"
#include "fault/schedule.h"
#include "telemetry/collector.h"

namespace polarstar::sim {

using graph::Vertex;

namespace {
constexpr std::uint32_t kInjectionFlag = 0x80000000u;
// Cycles with no flit movement before a run is declared deadlocked.
constexpr std::uint64_t kDeadlockThreshold = 4000;
// Cycles from a fault drop until the source re-enqueues the packet; doubles
// per retry (exponential backoff).
constexpr std::uint64_t kRetransmitTimeout = 64;
// Retransmit attempts before a packet is counted lost (fits the uint8
// PacketRecord::retries).
constexpr std::uint8_t kMaxRetransmits = 8;
// Hop budget under faults, per VC: survivor paths can exceed the pristine
// diameter, and a packet over num_vcs * 4 hops (at most 128, within the
// uint8 PacketRecord::hops) is dropped and retransmitted.
constexpr std::uint32_t kFaultHopsPerVc = 4;

// Calls f(i) for each set bit i of words[0, n), ascending. Each word is
// read once, so f may clear bits the walk has already passed.
template <class F>
void for_each_bit(const std::uint64_t* words, std::size_t n, F&& f) {
  for (std::size_t w = 0; w < n; ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}
}  // namespace

const char* to_string(PathMode mode, MinSelect sel) {
  if (mode == PathMode::kUgal) return "ugal";
  return sel == MinSelect::kAdaptive ? "min-adaptive" : "min";
}

Simulation::~Simulation() = default;

Simulation::Simulation(const Network& net, const SimParams& prm,
                       TrafficSource& source, telemetry::Collector* collector)
    : net_(&net),
      prm_(prm),
      source_(&source),
      rng_(prm.seed),
      collector_(collector),
      ugal_(net.routing(), net.num_routers(), prm.ugal_candidates) {
  if (collector_ != nullptr) {
    const auto caps = collector_->caps();
    link_telemetry_ = caps.link_flits;
    stall_telemetry_ = caps.stalls;
    ugal_telemetry_ = caps.ugal;
    occupancy_period_ = caps.occupancy_period;
    metrics_period_ = caps.metrics_period;
    trace_filter_ = caps.packets;
    packet_telemetry_ = trace_filter_.enabled();
    fault_telemetry_ = caps.faults;
  }
  if (prm_.num_vcs == 0 || prm_.num_vcs > 32) {
    throw std::invalid_argument(
        "Simulation: num_vcs must be in [1, 32] (the VC occupancy index is "
        "one 32-bit mask per link port)");
  }
  // Buffer state and PacketRecord::flits are 16-bit.
  if (prm_.vc_buffer_flits == 0 || prm_.vc_buffer_flits > 0xFFFF) {
    throw std::invalid_argument(
        "Simulation: vc_buffer_flits must be in [1, 65535]");
  }
  if (prm_.packet_flits == 0 || prm_.packet_flits > 0xFFFF) {
    throw std::invalid_argument(
        "Simulation: packet_flits must be in [1, 65535]");
  }
  // The link and credit pipelines are rings of latency + 1 slots, one
  // vector each.
  if (prm_.link_latency > 0xFFFF || prm_.credit_latency > 0xFFFF) {
    throw std::invalid_argument(
        "Simulation: link_latency and credit_latency must be in [0, 65535]");
  }
  // The run ends at warmup + measure + drain cycles; a sum that wraps
  // would end the window before it starts.
  constexpr auto kMaxCycles = std::numeric_limits<std::uint64_t>::max();
  if (prm_.measure_cycles > kMaxCycles - prm_.warmup_cycles ||
      prm_.drain_cycles >
          kMaxCycles - prm_.warmup_cycles - prm_.measure_cycles) {
    throw std::invalid_argument(
        "Simulation: warmup_cycles + measure_cycles + drain_cycles "
        "overflows uint64");
  }
  if (prm_.faults != nullptr && !prm_.faults->empty()) {
    // A malformed event fails here, before cycle 0.
    for (const auto& ev : prm_.faults->events()) {
      fault::check_event(net.topology(), ev);
    }
    has_faults_ = true;
    fault_routing_ = std::make_unique<fault::FaultAwareRouting>(
        net.topology_ptr(), net.routing_ptr());
    link_down_.assign(net.total_link_ports(), 0);
    router_down_.assign(net.num_routers(), 0);
  }
  const std::size_t nbuf = net.total_link_ports() * prm_.num_vcs;
  // A buffer holds at most a partial front packet, whole packets and a
  // partial back packet, at least one flit each: 2 + (cap - 2) / flits
  // runs, never more than cap.
  const std::uint32_t cap = prm_.vc_buffer_flits;
  run_cap_ = cap == 1 ? 1 : std::min(cap, 2 + (cap - 2) / prm_.packet_flits);
  run_store_.resize(nbuf * run_cap_);
  buf_head_.assign(nbuf, 0);
  buf_size_.assign(nbuf, 0);
  buf_runs_.assign(nbuf, 0);
  buf_sent_.assign(nbuf, 0);
  vc_state_.assign(nbuf, {});
  credits_.assign(nbuf, static_cast<std::uint16_t>(prm_.vc_buffer_flits));
  out_owner_.assign(nbuf, 0);

  const auto& topo = net.topology();
  const std::uint64_t eps = topo.num_endpoints();
  inj_head_.assign(eps, kNilNode);
  inj_tail_.assign(eps, kNilNode);
  inj_count_.assign(eps, 0);
  inj_sent_.assign(eps, 0);
  inj_state_.assign(eps, {});
  out_rr_ej_.assign(eps, 0);
  out_rr_link_.assign(net.total_link_ports(), 0);

  arr_depth_ = prm_.link_latency + 1;
  cred_depth_ = prm_.credit_latency + 1;
  arrivals_.resize(arr_depth_);
  credit_returns_.resize(cred_depth_);

  std::uint32_t max_out = 0, max_in = 0, max_deg = 0, max_conc = 0;
  for (Vertex r = 0; r < net.num_routers(); ++r) {
    const std::uint32_t deg = net.num_link_ports(r);
    max_out = std::max(max_out, deg + topo.conc[r]);
    max_in = std::max(max_in, deg * prm_.num_vcs + topo.conc[r]);
    max_deg = std::max(max_deg, deg);
    max_conc = std::max(max_conc, topo.conc[r]);
  }
  const auto words = [](std::size_t bits) {
    return std::max<std::size_t>(1, (bits + 63) / 64);
  };
  req_stride_ = max_in;
  req_store_.resize(static_cast<std::size_t>(max_out) * req_stride_);
  req_count_.assign(max_out, 0);
  out_req_.assign(words(max_out), 0);
  inport_used_.assign(words(max_out), 0);
  if (stall_telemetry_) {
    out_want_credit_.assign(max_out, 0);
    out_want_vc_.assign(max_out, 0);
    out_granted_.assign(max_out, 0);
  }

  // Flat lookups: endpoint->router and downstream receive-buffer bases.
  ep_router_.resize(eps);
  for (std::uint64_t ep = 0; ep < eps; ++ep) {
    ep_router_[ep] = topo.router_of_endpoint(ep);
  }
  recv_buf_base_.resize(net.total_link_ports());
  for (std::size_t link = 0; link < net.total_link_ports(); ++link) {
    recv_buf_base_[link] =
        static_cast<std::uint32_t>(net.peer_port(link) * prm_.num_vcs);
  }
  port_mask_.assign(net.total_link_ports(), 0);
  slot_bit0_ = max_deg;
  input_words_ = words(max_deg + max_conc);
  input_busy_.assign(net.num_routers() * input_words_, 0);
  link_port_.resize(net.total_link_ports());
  for (std::size_t link = 0; link < net.total_link_ports(); ++link) {
    link_port_[link] = static_cast<std::uint16_t>(
        link - net.port_base(net.link_router(link)));
  }
  router_busy_.assign(words(net.num_routers()), 0);
}

void Simulation::buffer_push(std::size_t b, Flit f) {
  assert(buf_size_[b] < prm_.vc_buffer_flits);
  if (prm_.paranoid_checks) check_push(b, f);
  if (f.seq == 0) {  // a head opens a run; a body flit joins the back one
    assert(buf_runs_[b] < run_cap_);
    std::uint32_t pos = static_cast<std::uint32_t>(buf_head_[b]) + buf_runs_[b];
    if (pos >= run_cap_) pos -= run_cap_;  // one conditional subtract
    run_store_[b * run_cap_ + pos] = f.pkt;
    ++buf_runs_[b];
  }
  if (buf_size_[b]++ == 0) vc_up(b);
}

void Simulation::buffer_pop(std::size_t b) {
  if (++buf_sent_[b] == prm_.packet_flits) {  // the tail left: drop its run
    buf_sent_[b] = 0;
    std::uint32_t h = static_cast<std::uint32_t>(buf_head_[b]) + 1;
    if (h == run_cap_) h = 0;
    buf_head_[b] = static_cast<std::uint16_t>(h);
    --buf_runs_[b];
  }
  if (--buf_size_[b] == 0) {
    const std::size_t link = b / prm_.num_vcs;
    port_mask_[link] &= ~(1u << (b % prm_.num_vcs));
    if (port_mask_[link] == 0) {
      input_down(net_->link_router(link), link_port_[link]);
    }
  }
}

void Simulation::vc_up(std::size_t b) {
  const std::size_t link = b / prm_.num_vcs;
  if (port_mask_[link] == 0) {
    input_up(net_->link_router(link), link_port_[link]);
  }
  port_mask_[link] |= 1u << (b % prm_.num_vcs);
}

void Simulation::input_up(Vertex r, std::uint32_t bit) {
  std::uint64_t* words = &input_busy_[r * input_words_];
  bool idle = true;
  for (std::size_t w = 0; w < input_words_; ++w) idle = idle && words[w] == 0;
  words[bit / 64] |= 1ull << (bit % 64);
  if (idle) router_busy_[r / 64] |= 1ull << (r % 64);
}

void Simulation::input_down(Vertex r, std::uint32_t bit) {
  std::uint64_t* words = &input_busy_[r * input_words_];
  words[bit / 64] &= ~(1ull << (bit % 64));
  for (std::size_t w = 0; w < input_words_; ++w) {
    if (words[w] != 0) return;
  }
  router_busy_[r / 64] &= ~(1ull << (r % 64));
}

void Simulation::inj_push(std::uint64_t ep, std::uint32_t pkt_idx) {
  std::uint32_t node;
  if (inj_free_head_ != kNilNode) {
    node = inj_free_head_;
    inj_free_head_ = inj_pool_[node].next;
  } else {
    node = static_cast<std::uint32_t>(inj_pool_.size());
    inj_pool_.emplace_back();
  }
  inj_pool_[node] = {pkt_idx, kNilNode};
  if (inj_head_[ep] == kNilNode) {
    inj_head_[ep] = node;
    const Vertex r = ep_router_[ep];
    input_up(r, slot_bit0_ + static_cast<std::uint32_t>(
                                 ep - net_->topology().first_endpoint(r)));
  } else {
    inj_pool_[inj_tail_[ep]].next = node;
  }
  inj_tail_[ep] = node;
  ++inj_count_[ep];
}

void Simulation::inj_pop_front(std::uint64_t ep) {
  const std::uint32_t node = inj_head_[ep];
  assert(node != kNilNode);
  inj_head_[ep] = inj_pool_[node].next;
  inj_pool_[node].next = inj_free_head_;
  inj_free_head_ = node;
  if (inj_head_[ep] == kNilNode) {
    inj_tail_[ep] = kNilNode;
    const Vertex r = ep_router_[ep];
    input_down(r, slot_bit0_ + static_cast<std::uint32_t>(
                                   ep - net_->topology().first_endpoint(r)));
  }
  --inj_count_[ep];
}

double Simulation::occupancy(Vertex r, Vertex next) const {
  const std::uint32_t port = net_->port_toward(r, next);
  const Vertex nbr = net_->neighbor_at(r, port);
  const std::uint32_t rev = net_->reverse_port(r, port);
  double occupied = 0;
  for (std::uint32_t vc = 0; vc < prm_.num_vcs; ++vc) {
    const std::size_t b = buffer_index(nbr, rev, vc);
    occupied += prm_.vc_buffer_flits - credits_[b];
  }
  return occupied;  // absolute flits: the classic UGAL-L queue estimate
}

double Simulation::occupancy_by_port(std::size_t link) const {
  // Every term is a small integer, so an integer sum converted once equals
  // occupancy()'s double accumulation exactly (and vectorizes).
  const std::uint16_t* credits = &credits_[recv_buf_base_[link]];
  std::uint32_t free_slots = 0;
  for (std::uint32_t vc = 0; vc < prm_.num_vcs; ++vc) free_slots += credits[vc];
  return static_cast<double>(prm_.num_vcs * prm_.vc_buffer_flits - free_slots);
}

struct Simulation::UgalView {
  const Simulation& sim;

  std::uint32_t distance(Vertex a, Vertex b) const {
    return sim.net_->distance(a, b);
  }
  std::uint32_t num_routers() const { return sim.net_->num_routers(); }
  // The Network flattened each route-port list in MinimalRouting::next_hops
  // order, so candidates arrive in the reference view's order.
  template <typename F>
  void first_hop_occupancy(Vertex src, Vertex toward, F&& f) const {
    const std::size_t pb = sim.net_->port_base(src);
    for (std::uint16_t p : sim.net_->route_ports(src, toward)) {
      f(sim.occupancy_by_port(pb + p));
    }
  }
};

std::uint32_t Simulation::new_packet(std::uint64_t src_ep, std::uint64_t dst_ep,
                                     std::uint64_t tag) {
  std::uint32_t idx;
  if (!packet_free_.empty()) {
    idx = packet_free_.back();
    packet_free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(packets_.size());
    packets_.emplace_back();
  }
  PacketRecord& pk = packets_[idx];
  pk = PacketRecord{};
  pk.id = next_packet_id_++;
  pk.src_endpoint = src_ep;
  pk.dst_endpoint = dst_ep;
  pk.src_router = ep_router_[src_ep];
  pk.dst_router = ep_router_[dst_ep];
  pk.birth_cycle = cycle_;
  pk.tag = tag;
  pk.flits = static_cast<std::uint16_t>(prm_.packet_flits);
  pk.measured = cycle_ >= measure_begin_ && cycle_ < measure_end_;
  if (pk.measured) ++measured_outstanding_;
  ++live_packets_;

  if (prm_.path_mode == PathMode::kUgal && pk.src_router != pk.dst_router) {
    routing::PathChoice choice;
    if (prm_.reference_impl) {
      auto occ = [this](Vertex r, Vertex next) { return occupancy(r, next); };
      choice = ugal_.select(pk.src_router, pk.dst_router, occ, rng_);
    } else {
      choice = routing::ugal_select(UgalView{*this}, pk.src_router,
                                    pk.dst_router, prm_.ugal_candidates, rng_);
    }
    pk.valiant = choice.valiant;
    pk.intermediate = choice.intermediate;
    if (ugal_telemetry_) {
      collector_->on_ugal_decision(
          {choice.valiant, choice.min_hops, choice.hops,
           choice.candidates_evaluated, choice.min_cost, choice.cost},
          cycle_);
    }
  }
  if (packet_telemetry_) {
    // After the UGAL decision so the injected event sees the final
    // valiant/intermediate fields.
    if (idx >= traced_.size()) {
      traced_.resize(idx + 1, 0);
      trace_arrival_.resize(idx + 1, 0);
    }
    traced_[idx] = trace_filter_.matches(pk.id) ? 1 : 0;
    if (traced_[idx]) {
      trace_arrival_[idx] = cycle_;  // hop-0 wait counts from birth
      collector_->on_packet_injected(pk, cycle_);
    }
  }
  return idx;
}

void Simulation::free_packet(std::uint32_t idx) {
  packet_free_.push_back(idx);
  --live_packets_;
}

void Simulation::enqueue_packet(std::uint64_t src_ep, std::uint64_t dst_ep,
                                std::uint64_t tag) {
  const std::uint32_t idx = new_packet(src_ep, dst_ep, tag);
  if (faults_active_ &&
      !fault_routing_->router_alive(packets_[idx].src_router)) {
    lose_packet(idx);  // the source NIC's router is down: nothing to inject
    return;
  }
  inj_push(src_ep, idx);
}

bool Simulation::compute_route(std::uint32_t pkt_idx, Vertex r,
                               std::uint16_t& out, std::uint8_t& ovc) {
  PacketRecord& pk = packets_[pkt_idx];
  if (pk.valiant && !pk.phase2 && r == pk.intermediate) pk.phase2 = true;
  if (faults_active_ && pk.valiant && !pk.phase2 &&
      (!fault_routing_->router_alive(pk.intermediate) ||
       fault_routing_->distance(r, pk.intermediate) == graph::kUnreachable)) {
    pk.phase2 = true;  // Valiant leg broken: head straight for the dst
  }
  const Vertex target =
      (pk.valiant && !pk.phase2) ? pk.intermediate : pk.dst_router;
  const std::uint32_t deg = net_->num_link_ports(r);
  if (target == r) {
    // Only reachable when the target is the destination router: eject.
    out = static_cast<std::uint16_t>(
        deg + (pk.dst_endpoint - net_->topology().first_endpoint(r)));
    ovc = 0;
    if (packet_telemetry_ && traced_[pkt_idx]) {
      collector_->on_packet_routed(pk, r, out, ovc, /*eject=*/true, cycle_);
    }
    return true;
  }
  std::span<const std::uint16_t> ports;
  if (faults_active_) {
    // Walked too far: drop.
    if (pk.hops >= prm_.num_vcs * kFaultHopsPerVc) return false;
    // One decision, two views: FaultAwareRouting::next_hops over the
    // virtual base scheme, or survivor_filter over the flattened pristine
    // ports (same order) and the per-epoch link_down_ mask. Either way the
    // vertices left in fault_hops_ are mapped to ports here.
    fault_ports_.clear();
    fault_hops_.clear();
    if (prm_.reference_impl) {
      fault_routing_->next_hops(r, target, fault_hops_);
    } else {
      struct Ports {
        Simulation& sim;
        std::span<const std::uint16_t> route;
        std::size_t pb;
        std::span<const std::uint16_t> candidates() const { return route; }
        Vertex neighbor(std::uint16_t p) const {
          return sim.net_->link_neighbor(pb + p);
        }
        bool alive(std::uint16_t p) const {
          return sim.link_down_[pb + p] == 0;
        }
        void keep(std::uint16_t p) { sim.fault_ports_.push_back(p); }
      };
      Ports view{*this, net_->route_ports(r, target), net_->port_base(r)};
      fault_routing_->survivor_filter(r, target, view, fault_hops_);
    }
    for (Vertex h : fault_hops_) {
      fault_ports_.push_back(
          static_cast<std::uint16_t>(net_->port_toward(r, h)));
    }
    if (fault_ports_.empty()) return false;  // target unreachable
    ports = fault_ports_;
  } else {
    ports = net_->route_ports(r, target);
    assert(!ports.empty());
  }
  ovc = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(pk.hops, prm_.num_vcs - 1));
  if (prm_.min_select == MinSelect::kSingleHash || ports.size() == 1) {
    // Deterministic single minpath per (source router, target) flow, as in
    // destination-based table routing with one stored next hop. The current
    // router participates in the hash so successive stages decorrelate
    // (otherwise e.g. a fat-tree would funnel each mid's transit traffic
    // into a single top router); the path of a flow is still fixed.
    out = ports[flow_path_hash(pk.src_router, target, r) % ports.size()];
  } else {
    // Adaptive: the candidate with the most downstream credits on ovc.
    const std::size_t pb = net_->port_base(r);
    std::uint16_t best = ports[0];
    int best_credit = -1;
    for (std::uint16_t p : ports) {
      const int c = credits_[recv_buf_base_[pb + p] + ovc];
      if (c > best_credit) {
        best_credit = c;
        best = p;
      }
    }
    out = best;
  }
  if (packet_telemetry_ && traced_[pkt_idx]) {
    collector_->on_packet_routed(pk, r, out, ovc, /*eject=*/false, cycle_);
  }
  return true;
}

void Simulation::finalize_flit(std::uint32_t pkt_idx) {
  PacketRecord& pk = packets_[pkt_idx];
  ++pk.delivered_flits;
  if (cycle_ >= measure_begin_ && cycle_ < measure_end_) {
    ++ejected_flits_in_window_;
  }
  if (metrics_period_ != 0) ++metrics_accepted_flits_;
  if (pk.delivered_flits == pk.flits) {
    ++packets_delivered_total_;
    hop_sum_ += pk.hops;
    if (metrics_period_ != 0) {
      // Interval latency covers every delivery (warmup/drain included):
      // the time series is about when packets arrive, not the measurement
      // window.
      const std::uint64_t mlat = cycle_ - pk.birth_cycle + 1;
      ++metrics_.lat_count;
      metrics_.lat_sum += static_cast<double>(mlat);
      if (mlat > metrics_.lat_max) metrics_.lat_max = mlat;
    }
    if (pk.measured) {
      --measured_outstanding_;
      ++measured_delivered_;
      const std::uint64_t lat = cycle_ - pk.birth_cycle + 1;
      latency_sum_ += static_cast<double>(lat);
      latency_samples_.push_back(static_cast<std::uint32_t>(lat));
      if (pk.retries > 0 && lat > max_recovery_latency_) {
        max_recovery_latency_ = lat;  // recovery time of a retransmitted pkt
      }
    }
    if (packet_telemetry_ && traced_[pkt_idx]) {
      collector_->on_packet_ejected(pk, trace_arrival_[pkt_idx], cycle_);
    }
    source_->on_delivered(*this, pk);
    free_packet(pkt_idx);
  }
}

// ------------------------------------------------- live fault injection ---
// Everything below is only reached when a FaultSchedule is attached; a
// fault-free run never executes any of it (bit-identical to the pre-fault
// simulator).

void Simulation::process_faults() {
  const auto& evs = prm_.faults->events();
  if (next_fault_ >= evs.size() || evs[next_fault_].cycle > cycle_) return;

  // 1. Fold the due batch into the fault routing as one epoch.
  while (next_fault_ < evs.size() && evs[next_fault_].cycle <= cycle_) {
    const fault::FaultEvent& ev = evs[next_fault_++];
    fault_routing_->apply(ev);
    ++fault_events_applied_;
    if (fault_telemetry_) collector_->on_fault(ev, cycle_);
  }
  fault_routing_->commit();
  faults_active_ = fault_routing_->degraded();

  // 2. Recompute the liveness masks the hot path consults.
  for (Vertex r = 0; r < net_->num_routers(); ++r) {
    router_down_[r] = fault_routing_->router_alive(r) ? 0 : 1;
    const std::uint32_t deg = net_->num_link_ports(r);
    for (std::uint32_t p = 0; p < deg; ++p) {
      link_down_[net_->link_index(r, p)] =
          fault_routing_->link_alive(r, net_->neighbor_at(r, p)) ? 0 : 1;
    }
  }

  // 3. Collect the casualties: packets with flits in flight on a dead
  // link, mid-stream across one (upstream remainder can't follow the cut
  // wormhole), buffered at a dead router, or queued at its endpoints.
  // Flits already fully across a dead link survive at the live far side.
  std::vector<std::uint32_t> victims;
  for (const auto& slot : arrivals_) {
    for (const Arrival& a : slot) {
      if (link_down_[a.buffer / prm_.num_vcs] != 0) victims.push_back(a.flit.pkt);
    }
  }
  for (std::size_t recv = 0; recv < out_owner_.size(); ++recv) {
    if (out_owner_[recv] != 0 && link_down_[recv / prm_.num_vcs] != 0) {
      victims.push_back(out_owner_[recv] - 1);
    }
  }
  const auto& topo = net_->topology();
  for (Vertex r = 0; r < net_->num_routers(); ++r) {
    if (router_down_[r] == 0) continue;
    const std::size_t b0 = net_->port_base(r) * prm_.num_vcs;
    const std::size_t b1 =
        (net_->port_base(r) + net_->num_link_ports(r)) * prm_.num_vcs;
    for (std::size_t b = b0; b < b1; ++b) {
      for (std::uint32_t i = 0; i < buf_runs_[b]; ++i) {
        victims.push_back(run_packet(b, i));
      }
    }
    const std::uint64_t ep0 = topo.first_endpoint(r);
    for (std::uint32_t s = 0; s < topo.conc[r]; ++s) {
      for (std::uint32_t nd = inj_head_[ep0 + s]; nd != kNilNode;
           nd = inj_pool_[nd].next) {
        victims.push_back(inj_pool_[nd].pkt);
      }
    }
  }

  // 4. Purge their flits everywhere, then drop each exactly once.
  if (!victims.empty()) {
    purge_packets(victims);
    for (std::uint32_t v : victims) drop_packet(v);
  }

  // 5. Invalidate surviving route decisions that point at a dead link (only
  // heads that never moved a flit can still be active here -- a mid-stream
  // packet on a dead link held the downstream VC and was purged above).
  for (Vertex r = 0; r < net_->num_routers(); ++r) {
    if (router_down_[r] != 0) continue;
    const std::uint32_t deg = net_->num_link_ports(r);
    for (std::uint32_t p = 0; p < deg; ++p) {
      for (std::uint32_t vc = 0; vc < prm_.num_vcs; ++vc) {
        VcState& st = vc_state_[buffer_index(r, p, vc)];
        if (st.active && st.out_port < deg &&
            link_down_[net_->link_index(r, st.out_port)] != 0) {
          st.active = false;
        }
      }
    }
    const std::uint64_t ep0 = topo.first_endpoint(r);
    for (std::uint32_t s = 0; s < topo.conc[r]; ++s) {
      VcState& st = inj_state_[ep0 + s];
      if (st.active && st.out_port < deg &&
          link_down_[net_->link_index(r, st.out_port)] != 0) {
        st.active = false;
      }
    }
  }
}

void Simulation::purge_packets(std::vector<std::uint32_t>& victims) {
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  std::vector<std::uint8_t> is_victim(packets_.size(), 0);
  for (std::uint32_t v : victims) is_victim[v] = 1;

  // Downstream VC ownership.
  for (std::uint32_t& owner : out_owner_) {
    if (owner != 0 && is_victim[owner - 1]) owner = 0;
  }
  // Link pipeline: each removed arrival returns the credit its sender took.
  for (auto& slot : arrivals_) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
      if (is_victim[slot[i].flit.pkt]) {
        ++credits_[slot[i].buffer];
      } else {
        slot[w++] = slot[i];
      }
    }
    slot.resize(w);
  }
  // Input buffers: rebuild each ring keeping the surviving runs in order;
  // a removed run frees its flits' slots (credits). The front run owns the
  // VC's route, so removing it clears the route, also when none of its
  // flits is left here (a mid-stream packet whose remaining flits were
  // upstream): the next head into this VC must route itself.
  const std::uint32_t pf = prm_.packet_flits;
  std::vector<std::uint32_t> kept;
  for (std::size_t b = 0; b < buf_runs_.size(); ++b) {
    const std::uint32_t runs = buf_runs_[b];
    if (runs == 0) continue;
    const std::uint32_t front = run_packet(b, 0);
    // The front run holds the front packet's unforwarded flits (the whole
    // buffer when it is alone), later runs whole packets, the back run the
    // flits that have arrived.
    std::uint32_t left = buf_size_[b], size = 0;
    kept.clear();
    for (std::uint32_t i = 0; i < runs; ++i) {
      const std::uint32_t pkt = run_packet(b, i);
      const std::uint32_t flits =
          std::min<std::uint32_t>(left, i == 0 ? pf - buf_sent_[b] : pf);
      left -= flits;
      if (is_victim[pkt] == 0) {
        kept.push_back(pkt);
        size += flits;
      }
    }
    if (kept.size() == runs) continue;
    if (is_victim[front] != 0) {
      buf_sent_[b] = 0;
      vc_state_[b].active = false;
    }
    credits_[b] += static_cast<std::uint16_t>(buf_size_[b] - size);
    buf_head_[b] = 0;
    buf_runs_[b] = static_cast<std::uint16_t>(kept.size());
    buf_size_[b] = static_cast<std::uint16_t>(size);
    std::copy(kept.begin(), kept.end(), &run_store_[b * run_cap_]);
  }
  // Injection queues (a victim mid-injection resets its sent counter):
  // relink each pooled FIFO keeping survivors in order, returning victim
  // nodes to the free list.
  for (std::size_t ep = 0; ep < inj_head_.size(); ++ep) {
    std::uint32_t node = inj_head_[ep];
    if (node == kNilNode) continue;
    const bool front_victim = is_victim[inj_pool_[node].pkt] != 0;
    std::uint32_t head = kNilNode, tail = kNilNode, count = 0;
    while (node != kNilNode) {
      const std::uint32_t next = inj_pool_[node].next;
      if (is_victim[inj_pool_[node].pkt]) {
        inj_pool_[node].next = inj_free_head_;
        inj_free_head_ = node;
      } else {
        if (head == kNilNode) {
          head = node;
        } else {
          inj_pool_[tail].next = node;
        }
        inj_pool_[node].next = kNilNode;
        tail = node;
        ++count;
      }
      node = next;
    }
    inj_head_[ep] = head;
    inj_tail_[ep] = tail;
    inj_count_[ep] = count;
    if (front_victim) {
      inj_sent_[ep] = 0;
      inj_state_[ep].active = false;
    }
  }

  // The purge edited buffers and queues wholesale: rebuild the occupancy
  // index (cold path, once per fault batch).
  rebuild_work_index();
}

void Simulation::rebuild_work_index() {
  std::fill(port_mask_.begin(), port_mask_.end(), 0u);
  std::fill(input_busy_.begin(), input_busy_.end(), 0ull);
  std::fill(router_busy_.begin(), router_busy_.end(), 0ull);
  for (std::size_t b = 0; b < buf_size_.size(); ++b) {
    if (buf_size_[b] != 0) vc_up(b);
  }
  const auto& topo = net_->topology();
  for (std::size_t ep = 0; ep < inj_head_.size(); ++ep) {
    if (inj_head_[ep] == kNilNode) continue;
    const Vertex r = ep_router_[ep];
    input_up(r, slot_bit0_ +
                    static_cast<std::uint32_t>(ep - topo.first_endpoint(r)));
  }
}

void Simulation::drop_packet(std::uint32_t pkt_idx) {
  PacketRecord& pk = packets_[pkt_idx];
  ++packets_dropped_;
  if (fault_telemetry_) {
    collector_->on_packet_fault(pk, telemetry::PacketFaultKind::kDropped,
                                cycle_);
  }
  if (pk.retries >= kMaxRetransmits ||
      !fault_routing_->router_alive(pk.src_router) ||
      !fault_routing_->router_alive(pk.dst_router)) {
    lose_packet(pkt_idx);
    return;
  }
  ++pk.retries;
  pk.delivered_flits = 0;
  pk.hops = 0;
  pk.phase2 = false;
  // Exponential backoff: timeout, 2x timeout, 4x timeout, ...
  const std::uint64_t delay = kRetransmitTimeout << (pk.retries - 1);
  retx_queue_.emplace(cycle_ + delay, pkt_idx);
}

void Simulation::lose_packet(std::uint32_t pkt_idx) {
  PacketRecord& pk = packets_[pkt_idx];
  ++packets_lost_;
  if (fault_telemetry_) {
    collector_->on_packet_fault(pk, telemetry::PacketFaultKind::kLost, cycle_);
  }
  if (pk.measured) {
    ++measured_lost_;
    --measured_outstanding_;
  }
  free_packet(pkt_idx);
}

void Simulation::process_retransmits() {
  while (!retx_queue_.empty() && retx_queue_.begin()->first <= cycle_) {
    const std::uint32_t idx = retx_queue_.begin()->second;
    retx_queue_.erase(retx_queue_.begin());
    PacketRecord& pk = packets_[idx];
    if (!fault_routing_->router_alive(pk.src_router) ||
        !fault_routing_->router_alive(pk.dst_router)) {
      lose_packet(idx);  // an endpoint died during the backoff
      continue;
    }
    ++retransmits_done_;
    if (fault_telemetry_) {
      collector_->on_packet_fault(
          pk, telemetry::PacketFaultKind::kRetransmitted, cycle_);
    }
    if (pk.valiant && !fault_routing_->router_alive(pk.intermediate)) {
      pk.valiant = false;  // stale UGAL choice; go minimal on the survivors
    }
    inj_push(pk.src_endpoint, idx);
  }
}

void Simulation::process_pending_kills() {
  // purge_packets sorts and dedupes, so drops happen in ascending
  // packet-pool order.
  if (pending_kills_.empty()) return;
  purge_packets(pending_kills_);
  for (std::uint32_t v : pending_kills_) drop_packet(v);
  pending_kills_.clear();
}

bool Simulation::fault_progress_pending() const {
  if (!retx_queue_.empty()) return true;
  return next_fault_ < prm_.faults->events().size();
}

// Phase 3: separable allocation + switch traversal over every router with
// a busy input, in ascending router order. Credits freed here return
// through the credit ring and ejected flits are finalized after the loop,
// so nothing a router does this cycle is visible to a later router in the
// same sweep except through state it owns (its buffers, VC state, RR
// pointers and the downstream credits of its own output links).
void Simulation::route_routers() {
  const auto& topo = net_->topology();
  const std::uint32_t num_vcs = prm_.num_vcs;
  // The rings are latency+1 deep, so this cycle's send slot is the one
  // just before the deliver slot -- computed once, no per-flit modulo.
  const std::size_t arr_slot = cycle_ % arr_depth_;
  auto& arr_out = arrivals_[arr_slot == 0 ? arr_depth_ - 1 : arr_slot - 1];
  const std::size_t cred_slot = cycle_ % cred_depth_;
  auto& cred_out =
      credit_returns_[cred_slot == 0 ? cred_depth_ - 1 : cred_slot - 1];
  // A router's processing changes only its own busy bits, so the walk
  // (one read per word) sees every router that was busy at its start.
  for_each_bit(router_busy_.data(), router_busy_.size(), [&](Vertex r) {
    if (faults_active_ && router_down_[r] != 0) return;  // dead router
    const std::size_t pb = net_->port_base(r);
    const std::uint32_t deg = net_->num_link_ports(r);
    const std::uint32_t conc = topo.conc[r];
    const std::uint32_t nout = deg + conc;

    // Collect feasible requests per output. req_count_ is all zero between
    // routers; out_req_ flags the outputs this router's requests touch.
    bool any = false;
    if (stall_telemetry_) {
      for (std::uint32_t o = 0; o < nout; ++o) {
        out_want_credit_[o] = out_want_vc_[o] = out_granted_[o] = 0;
      }
    }

    auto consider = [&](std::uint32_t input_key, std::uint32_t inport,
                        std::uint32_t pkt, std::uint16_t out, std::uint8_t ovc,
                        std::uint16_t seq) {
      if (out < deg) {
        const std::size_t recv = recv_buf_base_[pb + out] + ovc;
        if (credits_[recv] == 0) {
          if (stall_telemetry_) out_want_credit_[out] = 1;
          return;
        }
        const std::uint32_t owner = out_owner_[recv];
        // Head: VC must be free or already ours. Body: must follow its head.
        if (seq == 0 ? (owner != 0 && owner != pkt + 1) : (owner != pkt + 1)) {
          if (stall_telemetry_) out_want_vc_[out] = 1;
          return;
        }
      }
      std::uint32_t& k = req_count_[out];
      if (k == 0) out_req_[out / 64] |= 1ull << (out % 64);
      req_store_[out * req_stride_ + k++] = {
          input_key, pkt, static_cast<std::uint16_t>(inport), ovc};
      any = true;
    };

    // Busy inputs only: link ports, each port's non-empty VCs lowest first,
    // then endpoint slots -- the order of the generic port x VC scan.
    const std::uint64_t ep0 = topo.first_endpoint(r);
    for_each_bit(&input_busy_[r * input_words_], input_words_,
                 [&](std::uint32_t in) {
      if (in >= slot_bit0_) {
        const std::uint32_t s = in - slot_bit0_;
        const std::uint64_t ep = ep0 + s;
        const std::uint32_t pkt = inj_pool_[inj_head_[ep]].pkt;
        VcState& st = inj_state_[ep];
        if (!st.active) {
          if (!compute_route(pkt, r, st.out_port, st.out_vc)) {
            pending_kills_.push_back(pkt);
            return;
          }
          st.active = true;
        }
        consider(kInjectionFlag | static_cast<std::uint32_t>(ep), deg + s,
                 pkt, st.out_port, st.out_vc, inj_sent_[ep]);
        return;
      }
      const std::uint32_t port = in;
      std::uint32_t m = port_mask_[pb + port];
      while (m != 0) {
        const auto vc = static_cast<std::uint32_t>(std::countr_zero(m));
        m &= m - 1;
        const std::size_t b = (pb + port) * num_vcs + vc;
        const Flit f = buffer_front(b);
        VcState& st = vc_state_[b];
        if (!st.active) {
          // A head flit must be at the front (wormhole order).
          if (!compute_route(f.pkt, r, st.out_port, st.out_vc)) {
            pending_kills_.push_back(f.pkt);  // unroutable: killed at cycle end
            continue;
          }
          st.active = true;
        }
        consider(static_cast<std::uint32_t>(b), port, f.pkt, st.out_port,
                 st.out_vc, f.seq);
      }
    });
    if (!any) {
      // Nothing reached arbitration; blocked inputs may still want ports.
      if (stall_telemetry_) report_output_stalls(r, deg);
      return;
    }

    // Grant: per requested output in ascending order, round-robin over its
    // requesters; an input port moves at most one flit per cycle.
    std::fill(inport_used_.begin(), inport_used_.end(), 0ull);
    for_each_bit(out_req_.data(), out_req_.size(), [&](std::uint32_t o) {
      const std::uint32_t k = req_count_[o];
      const Request* reqs = &req_store_[o * req_stride_];
      std::uint16_t& rr =
          o < deg ? out_rr_link_[pb + o] : out_rr_ej_[ep0 + (o - deg)];
      std::uint32_t winner = k;
      std::uint32_t cand = rr % k;  // same probe sequence as (rr + i) % k
      for (std::uint32_t i = 0; i < k; ++i) {
        const std::uint32_t inport = reqs[cand].inport;
        const std::uint64_t in_bit = 1ull << (inport % 64);
        if ((inport_used_[inport / 64] & in_bit) == 0) {
          winner = cand;
          inport_used_[inport / 64] |= in_bit;
          rr = static_cast<std::uint16_t>((cand + 1) % k);
          break;
        }
        if (++cand == k) cand = 0;
      }
      if (winner == k) return;
      const Request& req = reqs[winner];
      const std::uint32_t pkt_idx = req.pkt;
      PacketRecord& pk = packets_[pkt_idx];

      // Pop the flit from its input. Credits return through the ring even
      // at credit_latency == 0: the freed slot becomes visible next cycle,
      // never mid-sweep.
      Flit f;
      if (req.input_key & kInjectionFlag) {
        const std::uint64_t ep = req.input_key & ~kInjectionFlag;
        f = {pkt_idx, inj_sent_[ep]};
        ++inj_sent_[ep];
        if (f.seq + 1u == pk.flits) {
          inj_pop_front(ep);
          inj_sent_[ep] = 0;
          inj_state_[ep].active = false;
        }
      } else {
        const std::size_t b = req.input_key;
        f = buffer_front(b);
        buffer_pop(b);
        cred_out.push_back(static_cast<std::uint32_t>(b));
        if (f.seq + 1u == pk.flits) vc_state_[b].active = false;
      }

      // Forward.
      if (o < deg) {
        const std::size_t recv = recv_buf_base_[pb + o] + req.ovc;
        if (f.seq == 0) {
          out_owner_[recv] = pkt_idx + 1;
          ++pk.hops;
          if (packet_telemetry_ && traced_[pkt_idx]) {
            collector_->on_packet_hop(pk, r, o, req.ovc,
                                      trace_arrival_[pkt_idx], cycle_);
            // Head flit lands at the neighbour after the link latency; the
            // next hop's wait is measured from that arrival.
            trace_arrival_[pkt_idx] = cycle_ + prm_.link_latency;
          }
        }
        if (f.seq + 1u == pk.flits) out_owner_[recv] = 0;
        --credits_[recv];
        arr_out.push_back({static_cast<std::uint32_t>(recv), f});
        if (link_telemetry_) collector_->on_link_flit(pb + o, cycle_);
      } else {
        ejected_.push_back(pkt_idx);  // delivery bookkeeping at cycle end
      }
      if (stall_telemetry_) out_granted_[o] = 1;
      ++moved_this_cycle_;
    });
    if (stall_telemetry_) report_output_stalls(r, deg);
    for_each_bit(out_req_.data(), out_req_.size(),
                 [&](std::uint32_t o) { req_count_[o] = 0; });
    std::fill(out_req_.begin(), out_req_.end(), 0ull);
  });
}

// finalize_flit may re-enter the packet pool and the injection queues
// (on_delivered), so it runs after the router sweep, in the order the
// sweep ejected: delivered counters, latency accumulation order, pool-index
// reuse and any traffic a closed-loop source enqueues all follow router
// order.
void Simulation::finalize_ejected() {
  for (std::uint32_t pkt : ejected_) finalize_flit(pkt);
  ejected_.clear();
}

void Simulation::step() {
  // Self-profiler lap clock: phase boundaries accumulate wall time into
  // prof_. One predictable branch per boundary when profiling is off;
  // never touches simulation state either way.
  using prof_clock = std::chrono::steady_clock;
  prof_clock::time_point prof_t{};
  if (prm_.profile) prof_t = prof_clock::now();
  const auto prof_lap = [&](double& acc) {
    if (!prm_.profile) return;
    const auto now = prof_clock::now();
    acc += std::chrono::duration<double>(now - prof_t).count();
    prof_t = now;
  };

  // Phase 0 -- live faults: apply due schedule events (dropping
  // casualties), then re-enqueue packets whose retransmission backoff
  // expired.
  if (has_faults_) {
    process_faults();
    process_retransmits();
  }
  prof_lap(prof_.fault_seconds);

  // Phase 1 -- deliver the link arrivals and credit returns scheduled for
  // this cycle. Every arrival in a slot targets a distinct buffer (a
  // directed link carries at most one flit per cycle).
  auto& arr_slot = arrivals_[cycle_ % arr_depth_];
  for (const Arrival& a : arr_slot) buffer_push(a.buffer, a.flit);
  arr_slot.clear();
  auto& credit_slot = credit_returns_[cycle_ % cred_depth_];
  for (std::uint32_t b : credit_slot) ++credits_[b];
  credit_slot.clear();
  prof_lap(prof_.deliver_seconds);

  // Phase 2 -- traffic generation. Injection and UGAL path selection
  // draw from the simulation's one RNG in enqueue order.
  source_->tick(*this);
  prof_lap(prof_.inject_seconds);

  // Phase 3 -- per-router separable allocation + switch traversal, the
  // one phase the reference engine replaces.
  moved_this_cycle_ = 0;
  if (prm_.reference_impl) {
    route_reference();
  } else {
    route_routers();
  }
  prof_lap(prof_.route_seconds);

  // Phase 4 -- end-of-cycle bookkeeping: finalize this cycle's ejections,
  // kill the packets found unroutable, run the deadlock detector. Pending
  // retransmission backoffs and unapplied schedule events (e.g. a repair
  // that will unblock traffic) count as progress, not deadlock.
  finalize_ejected();
  if (has_faults_) process_pending_kills();
  if (moved_this_cycle_ > 0 || live_packets_ == 0 ||
      (has_faults_ && fault_progress_pending())) {
    last_progress_cycle_ = cycle_;
  } else if (cycle_ - last_progress_cycle_ > kDeadlockThreshold) {
    deadlock_ = true;
  }
  prof_lap(prof_.barrier_seconds);
  if (occupancy_period_ != 0 && cycle_ % occupancy_period_ == 0) {
    collector_->on_occupancy_sample(
        cycle_, {std::span<const std::uint16_t>(buf_size_), prm_.num_vcs});
  }
  // Metrics frames close end-of-cycle so an interval of K covers exactly
  // K source ticks and finalize passes: [0,K), [K,2K), ...
  if (metrics_period_ != 0 && (cycle_ + 1) % metrics_period_ == 0) {
    emit_metrics_frame(cycle_ + 1);
  }
  if (prm_.paranoid_checks) check_invariants();
  prof_lap(prof_.telemetry_seconds);
  if (prm_.profile) ++prof_.cycles;
  ++cycle_;
}

// The reference router sweep (see the header). Must stay semantically
// frozen: tests/test_perf_equivalence.cpp diffs entire runs against
// route_routers.
void Simulation::route_reference() {
  const auto& topo = net_->topology();
  for (Vertex r = 0; r < net_->num_routers(); ++r) {
    if (faults_active_ && router_down_[r] != 0) continue;  // dead: no switch
    const std::uint32_t deg = net_->num_link_ports(r);
    const std::uint32_t conc = topo.conc[r];
    const std::uint32_t nout = deg + conc;

    bool any = false;
    for (std::uint32_t o = 0; o < nout; ++o) req_count_[o] = 0;
    if (stall_telemetry_) {
      for (std::uint32_t o = 0; o < nout; ++o) {
        out_want_credit_[o] = out_want_vc_[o] = out_granted_[o] = 0;
      }
    }

    auto consider = [&](std::uint32_t input_key, std::uint32_t inport,
                        std::uint32_t pkt, std::uint16_t out, std::uint8_t ovc,
                        std::uint16_t seq) {
      if (out < deg) {
        const Vertex nbr = net_->neighbor_at(r, out);
        const std::uint32_t rev = net_->reverse_port(r, out);
        const std::size_t recv = buffer_index(nbr, rev, ovc);
        if (credits_[recv] == 0) {
          if (stall_telemetry_) out_want_credit_[out] = 1;
          return;
        }
        const std::uint32_t owner = out_owner_[recv];
        if (seq == 0) {
          if (owner != 0 && owner != pkt + 1) {  // VC held by another
            if (stall_telemetry_) out_want_vc_[out] = 1;
            return;
          }
        } else {
          if (owner != pkt + 1) {  // body must follow its head
            if (stall_telemetry_) out_want_vc_[out] = 1;
            return;
          }
        }
      }
      req_store_[out * req_stride_ + req_count_[out]++] = {
          input_key, pkt, static_cast<std::uint16_t>(inport), ovc};
      any = true;
    };

    for (std::uint32_t port = 0; port < deg; ++port) {
      for (std::uint32_t vc = 0; vc < prm_.num_vcs; ++vc) {
        const std::size_t b = buffer_index(r, port, vc);
        if (buffer_empty(b)) continue;
        const Flit f = buffer_front(b);
        VcState& st = vc_state_[b];
        if (!st.active) {
          if (!compute_route(f.pkt, r, st.out_port, st.out_vc)) {
            pending_kills_.push_back(f.pkt);
            continue;
          }
          st.active = true;
        }
        consider(static_cast<std::uint32_t>(b), port, f.pkt, st.out_port,
                 st.out_vc, f.seq);
      }
    }
    const std::uint64_t ep0 = topo.first_endpoint(r);
    for (std::uint32_t s = 0; s < conc; ++s) {
      const std::uint64_t ep = ep0 + s;
      if (inj_head_[ep] == kNilNode) continue;
      const std::uint32_t pkt = inj_pool_[inj_head_[ep]].pkt;
      VcState& st = inj_state_[ep];
      if (!st.active) {
        if (!compute_route(pkt, r, st.out_port, st.out_vc)) {
          pending_kills_.push_back(pkt);
          continue;
        }
        st.active = true;
      }
      consider(kInjectionFlag | static_cast<std::uint32_t>(ep), deg + s, pkt,
               st.out_port, st.out_vc, inj_sent_[ep]);
    }
    if (!any) {
      if (stall_telemetry_) report_output_stalls(r, deg);
      continue;
    }

    std::vector<std::uint8_t> inport_used(nout, 0);
    for (std::uint32_t o = 0; o < nout; ++o) {
      const std::uint32_t k = req_count_[o];
      if (k == 0) continue;
      const Request* reqs = &req_store_[o * req_stride_];
      std::uint16_t& rr = o < deg ? out_rr_link_[net_->link_index(r, o)]
                                  : out_rr_ej_[ep0 + (o - deg)];
      std::size_t winner = k;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t cand = (rr + i) % k;
        const std::uint32_t key = reqs[cand].input_key;
        // Recomputed from the input key (not Request::inport) on purpose:
        // the reference twin cross-checks the stored field's derivation.
        const std::uint32_t inport =
            key & kInjectionFlag
                ? deg + static_cast<std::uint32_t>((key & ~kInjectionFlag) - ep0)
                : static_cast<std::uint32_t>(key / prm_.num_vcs -
                                             net_->port_base(r));
        if (!inport_used[inport]) {
          winner = cand;
          inport_used[inport] = 1;
          rr = static_cast<std::uint16_t>((cand + 1) % k);
          break;
        }
      }
      if (winner == k) continue;
      const Request& req = reqs[winner];
      const std::uint32_t pkt_idx = req.pkt;
      PacketRecord& pk = packets_[pkt_idx];

      Flit f;
      if (req.input_key & kInjectionFlag) {
        const std::uint64_t ep = req.input_key & ~kInjectionFlag;
        f = {pkt_idx, inj_sent_[ep]};
        ++inj_sent_[ep];
        if (f.seq + 1u == pk.flits) {
          inj_pop_front(ep);
          inj_sent_[ep] = 0;
          inj_state_[ep].active = false;
        }
      } else {
        const std::size_t b = req.input_key;
        f = buffer_front(b);
        buffer_pop(b);
        // Even credit_latency == 0 returns through the ring (the one slot
        // was drained this cycle; visible next cycle).
        credit_returns_[(cycle_ + prm_.credit_latency) %
                        credit_returns_.size()]
            .push_back(static_cast<std::uint32_t>(b));
        if (f.seq + 1u == pk.flits) vc_state_[b].active = false;
      }

      if (o < deg) {
        const Vertex nbr = net_->neighbor_at(r, o);
        const std::uint32_t rev = net_->reverse_port(r, o);
        const std::size_t recv = buffer_index(nbr, rev, req.ovc);
        if (f.seq == 0) {
          out_owner_[recv] = pkt_idx + 1;
          ++pk.hops;
          if (packet_telemetry_ && traced_[pkt_idx]) {
            collector_->on_packet_hop(pk, r, o, req.ovc,
                                      trace_arrival_[pkt_idx], cycle_);
            trace_arrival_[pkt_idx] = cycle_ + prm_.link_latency;
          }
        }
        if (f.seq + 1u == pk.flits) out_owner_[recv] = 0;
        --credits_[recv];
        arrivals_[(cycle_ + prm_.link_latency) % arrivals_.size()]
            .push_back({static_cast<std::uint32_t>(recv), f});
        if (link_telemetry_) {
          collector_->on_link_flit(net_->link_index(r, o), cycle_);
        }
      } else {
        ejected_.push_back(pkt_idx);  // delivered at end-of-sweep
      }
      if (stall_telemetry_) out_granted_[o] = 1;
      ++moved_this_cycle_;
    }
    if (stall_telemetry_) report_output_stalls(r, deg);
  }
}

// Attribute every output link port of r that moved nothing this cycle:
// requests that reached arbitration but lost to input-port conflicts, else
// flits blocked upstream of arbitration on credits or VC ownership. Ports
// with no waiting traffic are idle and not reported (the collector derives
// idle from the window length). Ejection ports are excluded.
void Simulation::report_output_stalls(Vertex r, std::uint32_t deg) {
  for (std::uint32_t o = 0; o < deg; ++o) {
    if (out_granted_[o]) continue;
    telemetry::StallCause cause;
    if (req_count_[o] != 0) {
      cause = telemetry::StallCause::kArbitrationLost;
    } else if (out_want_credit_[o]) {
      cause = telemetry::StallCause::kCreditStarved;
    } else if (out_want_vc_[o]) {
      cause = telemetry::StallCause::kVcBlocked;
    } else {
      continue;  // empty: no buffered flit wanted this port
    }
    collector_->on_output_stall(r, o, cause, cycle_);
  }
}

// Paranoid mode, as flit f lands in buffer b: a body flit continues the
// back run with the next seq; a head may only follow a complete back run,
// and only into an empty VC whose last packet released its route.
void Simulation::check_push(std::size_t b, Flit f) const {
  const std::uint32_t runs = buf_runs_[b];
  const std::uint32_t pf = prm_.packet_flits;
  if (f.seq != 0) {
    // Flits of the back run so far: every run before it holds a whole
    // packet, less the front packet's forwarded flits.
    const std::uint32_t back_arrived =
        buf_sent_[b] + buf_size_[b] - (runs - 1) * pf;
    if (runs == 0 || run_packet(b, runs - 1) != f.pkt ||
        f.seq != back_arrived) {
      throw std::logic_error("sim invariant: wormhole order broken");
    }
  } else if (runs != 0) {
    if (buf_sent_[b] + buf_size_[b] != runs * pf) {
      throw std::logic_error(
          "sim invariant: packet interleaved mid-stream in one VC");
    }
  } else if (vc_state_[b].active) {
    throw std::logic_error(
        "sim invariant: head flit lands on an empty VC still routed for "
        "another packet");
  }
}

void Simulation::check_invariants() const {
  const std::uint32_t cap = prm_.vc_buffer_flits;
  const std::uint32_t pf = prm_.packet_flits;
  std::size_t credits_in_flight = 0;
  for (const auto& slot : credit_returns_) credits_in_flight += slot.size();
  std::size_t arrivals_in_flight = 0;
  for (const auto& slot : arrivals_) arrivals_in_flight += slot.size();

  const std::size_t nbuf = buf_size_.size();
  std::size_t total_buffered = 0, total_credits = 0;
  for (std::size_t b = 0; b < nbuf; ++b) {
    if (buf_size_[b] > cap || credits_[b] > cap) {
      throw std::logic_error("sim invariant: buffer/credit over capacity");
    }
    total_buffered += buf_size_[b];
    total_credits += credits_[b];
    // Run accounting: the runs hold exactly size flits -- the front run
    // the front packet's pf - sent unforwarded flits, each later run a
    // whole packet, the back run 1 to pf -- and only a lone mid-stream run
    // (sent > 0, the rest of its packet upstream) may hold none. Wormhole
    // order itself is checked as each flit lands (check_push).
    const std::uint32_t runs = buf_runs_[b], sent = buf_sent_[b];
    const std::uint32_t size = buf_size_[b];
    bool ok = runs <= run_cap_ && sent < pf;
    if (runs == 0) {
      ok = ok && size == 0 && sent == 0;
    } else if (runs == 1) {
      ok = ok && size <= pf - sent && (size > 0 || sent > 0);
    } else {
      const std::uint32_t before_back = (pf - sent) + (runs - 2) * pf;
      ok = ok && size > before_back && size <= before_back + pf;
    }
    if (!ok) throw std::logic_error("sim invariant: VC run accounting broken");
    if (vc_state_[b].active && runs == 0) {
      throw std::logic_error("sim invariant: routed VC holds no packet");
    }
  }
  // Credit conservation: every slot is either free (credit), occupied,
  // in-flight toward the buffer, or a credit still in the return pipeline.
  if (total_credits + total_buffered + arrivals_in_flight +
          credits_in_flight !=
      nbuf * static_cast<std::size_t>(cap)) {
    throw std::logic_error("sim invariant: credit conservation violated");
  }

  // Occupancy index consistency: every port mask bit mirrors its buffer's
  // emptiness, injection FIFO counts match their lists, a router's input
  // bits are exactly its non-empty ports and queues, and its busy bit is
  // set exactly when one of them is.
  std::vector<std::uint64_t> inputs(input_busy_.size(), 0);
  const auto set = [](std::uint64_t* words, std::size_t i) {
    words[i / 64] |= 1ull << (i % 64);
  };
  for (std::size_t b = 0; b < nbuf; ++b) {
    const std::size_t link = b / prm_.num_vcs;
    const bool bit = ((port_mask_[link] >> (b % prm_.num_vcs)) & 1u) != 0;
    if (bit != (buf_size_[b] != 0)) {
      throw std::logic_error("sim invariant: VC occupancy mask out of sync");
    }
    if (buf_size_[b] != 0) {
      set(&inputs[net_->link_router(link) * input_words_], link_port_[link]);
    }
  }
  const auto& topo = net_->topology();
  for (std::size_t ep = 0; ep < inj_head_.size(); ++ep) {
    std::uint32_t count = 0;
    for (std::uint32_t nd = inj_head_[ep]; nd != kNilNode;
         nd = inj_pool_[nd].next) {
      ++count;
      if (count > inj_pool_.size()) {
        throw std::logic_error("sim invariant: injection FIFO cycle");
      }
    }
    if (count != inj_count_[ep]) {
      throw std::logic_error("sim invariant: injection FIFO count mismatch");
    }
    if (count != 0) {
      const Vertex r = ep_router_[ep];
      set(&inputs[r * input_words_], slot_bit0_ + (ep - topo.first_endpoint(r)));
    }
  }
  if (inputs != input_busy_) {
    throw std::logic_error("sim invariant: busy-input bits out of sync");
  }
  for (Vertex r = 0; r < net_->num_routers(); ++r) {
    const auto first = inputs.begin() + r * input_words_;
    const bool busy = std::any_of(first, first + input_words_,
                                  [](std::uint64_t w) { return w != 0; });
    if (((router_busy_[r / 64] >> (r % 64)) & 1u) != busy) {
      throw std::logic_error("sim invariant: busy-router bit out of sync");
    }
  }
}

// Close the metrics interval [metrics_.last_cycle, end_cycle): hand the
// collector the diffs of the cumulative counters since the last frame plus
// the end-of-interval gauges, then snapshot for the next interval. Runs in
// the serial end-of-cycle tail (or the collect() epilogue for the final
// remainder), after every serial-phase counter mutation of the cycle.
void Simulation::emit_metrics_frame(std::uint64_t end_cycle) {
  telemetry::MetricsFrame f;
  f.begin_cycle = metrics_.last_cycle;
  f.end_cycle = end_cycle;
  const std::uint64_t injected = next_packet_id_ - 1;
  // Offered = every packet handed to a source queue, retransmissions
  // included (each re-enqueue offers the packet's flits again).
  const std::uint64_t offered =
      (injected + retransmits_done_) * prm_.packet_flits;
  f.injected = injected - metrics_.injected;
  f.offered_flits = offered - metrics_.offered_flits;
  f.ejected = packets_delivered_total_ - metrics_.ejected_pkts;
  f.accepted_flits = metrics_accepted_flits_ - metrics_.accepted_flits;
  f.lat_count = metrics_.lat_count;
  f.lat_sum = metrics_.lat_sum;
  f.lat_max = metrics_.lat_max;
  std::uint64_t buffered = 0;
  for (const std::uint16_t s : buf_size_) buffered += s;
  f.buffered_flits = buffered;
  f.in_flight = live_packets_;
  f.dropped = packets_dropped_ - metrics_.dropped;
  f.retransmits = retransmits_done_ - metrics_.retx;
  f.lost = packets_lost_ - metrics_.lost;
  collector_->on_metrics_sample(f);
  metrics_.last_cycle = end_cycle;
  metrics_.injected = injected;
  metrics_.offered_flits = offered;
  metrics_.ejected_pkts = packets_delivered_total_;
  metrics_.accepted_flits = metrics_accepted_flits_;
  metrics_.dropped = packets_dropped_;
  metrics_.retx = retransmits_done_;
  metrics_.lost = packets_lost_;
  metrics_.lat_count = 0;
  metrics_.lat_sum = 0.0;
  metrics_.lat_max = 0;
}

SimResult Simulation::collect(std::uint64_t cycles) {
  SimResult res;
  res.cycles = cycles;
  res.packets_delivered = packets_delivered_total_;
  res.measured_packets = measured_delivered_;
  res.deadlock = deadlock_;
  res.stable = !deadlock_ && measured_outstanding_ == 0;
  if (!latency_samples_.empty()) {
    res.avg_packet_latency = latency_sum_ / latency_samples_.size();
    // One full sort yields every percentile; the rank convention
    // floor(q * (n-1)) matches the previous nth_element p99 exactly.
    std::sort(latency_samples_.begin(), latency_samples_.end());
    const std::size_t n = latency_samples_.size();
    const auto rank = [n](double q) {
      return static_cast<std::ptrdiff_t>(q * (n - 1));
    };
    res.p50_packet_latency = latency_samples_[rank(0.50)];
    res.p90_packet_latency = latency_samples_[rank(0.90)];
    res.p99_packet_latency = latency_samples_[rank(0.99)];
    res.p999_packet_latency = latency_samples_[rank(0.999)];
  }
  if (res.packets_delivered > 0) {
    res.avg_hops =
        static_cast<double>(hop_sum_) / static_cast<double>(res.packets_delivered);
  }
  const std::uint64_t eps = net_->topology().num_endpoints();
  const std::uint64_t window = measure_end_ - measure_begin_;
  if (eps > 0 && window > 0 && measure_end_ != ~0ull) {
    res.accepted_flit_rate = static_cast<double>(ejected_flits_in_window_) /
                             (static_cast<double>(eps) * window);
  }
  std::uint64_t maxq = 0;
  for (std::uint32_t c : inj_count_) maxq = std::max<std::uint64_t>(maxq, c);
  res.max_source_queue = maxq;
  if (has_faults_) {
    res.fault_events = fault_events_applied_;
    res.packets_dropped = packets_dropped_;
    res.retransmits = retransmits_done_;
    res.packets_lost = packets_lost_;
    res.measured_lost = measured_lost_;
    res.max_recovery_latency = max_recovery_latency_;
    // Undelivered survivors at run end (stuck behind a permanent fault or
    // still in a backoff) count against availability alongside the lost.
    const std::uint64_t denom =
        measured_delivered_ + measured_lost_ + measured_outstanding_;
    res.delivered_fraction =
        denom == 0 ? 1.0
                   : static_cast<double>(measured_delivered_) /
                         static_cast<double>(denom);
  }
  if (prm_.profile) {
    res.profile = prof_;
    res.profile.enabled = true;
  }
  res.source = source_->report();
  if (collector_ != nullptr) {
    // Flush the partial final metrics interval (a run whose length is not
    // a multiple of the period still accounts every cycle) before the
    // run-end notification closes subscribers' buckets.
    if (metrics_period_ != 0 && metrics_.last_cycle < cycles) {
      emit_metrics_frame(cycles);
    }
    // Re-announce the window collectors should normalize to: run_app's
    // open-ended window closes at the cycle the run actually stopped.
    const std::uint64_t eff_end = std::min(measure_end_, cycles);
    const std::uint64_t eff_begin = std::min(measure_begin_, eff_end);
    collector_->on_run_end(cycles, eff_begin, eff_end);
    collector_->finish(res.telemetry);
  }
  return res;
}

SimResult Simulation::run() {
  measure_begin_ = prm_.warmup_cycles;
  measure_end_ = prm_.warmup_cycles + prm_.measure_cycles;
  if (collector_ != nullptr) {
    collector_->on_run_begin(*net_, prm_, measure_begin_, measure_end_);
  }
  const std::uint64_t budget = measure_end_ + prm_.drain_cycles;
  while (cycle_ < budget && !deadlock_) {
    step();
    if (cycle_ >= measure_end_ && measured_outstanding_ == 0) break;
  }
  return collect(cycle_);
}

SimResult Simulation::run_app(std::uint64_t max_cycles) {
  measure_begin_ = 0;
  measure_end_ = ~0ull;
  if (collector_ != nullptr) {
    collector_->on_run_begin(*net_, prm_, measure_begin_, measure_end_);
  }
  while (cycle_ < max_cycles && !deadlock_) {
    step();
    if (source_->finished(*this) && live_packets_ == 0) break;
  }
  auto res = collect(cycle_);
  res.stable = !deadlock_ && live_packets_ == 0;
  return res;
}

}  // namespace polarstar::sim
