#include "telemetry/collectors.h"

#include <algorithm>
#include <numeric>

#include "sim/network.h"
#include "sim/simulation.h"

namespace polarstar::telemetry {

// ---------------------------------------------------------------- links ---

void LinkHistogramCollector::on_run_begin(const sim::Network& net,
                                          const sim::SimParams& /*prm*/,
                                          std::uint64_t measure_begin,
                                          std::uint64_t measure_end) {
  measure_begin_ = measure_begin;
  measure_end_ = measure_end;
  totals_.assign(net.total_link_ports(), 0);
}

void LinkHistogramCollector::on_link_flit(std::size_t link_index,
                                          std::uint64_t cycle) {
  if (cycle >= measure_begin_ && cycle < measure_end_) ++totals_[link_index];
}

void LinkHistogramCollector::on_run_end(std::uint64_t /*cycles*/,
                                        std::uint64_t measure_begin,
                                        std::uint64_t measure_end) {
  // The simulator hands us the effective (clamped) window; adopt it so
  // window_cycles() is exact even for open-ended run_app windows.
  measure_begin_ = measure_begin;
  measure_end_ = measure_end;
}

void LinkHistogramCollector::finish(Summary& out) const {
  out.has_link = true;
  auto& l = out.link;
  l.num_links = totals_.size();
  l.total_flits = std::accumulate(totals_.begin(), totals_.end(),
                                  std::uint64_t{0});
  const std::uint64_t window = window_cycles();
  if (l.num_links == 0 || window == 0) return;
  const std::uint64_t max_flits =
      *std::max_element(totals_.begin(), totals_.end());
  l.avg_load = static_cast<double>(l.total_flits) /
               (static_cast<double>(l.num_links) * static_cast<double>(window));
  l.max_load = static_cast<double>(max_flits) / static_cast<double>(window);
  l.max_avg_ratio = l.avg_load > 0 ? l.max_load / l.avg_load : 0.0;
}

// --------------------------------------------------------------- stalls ---

void StallCollector::on_run_begin(const sim::Network& net,
                                  const sim::SimParams& /*prm*/,
                                  std::uint64_t measure_begin,
                                  std::uint64_t measure_end) {
  measure_begin_ = measure_begin;
  measure_end_ = measure_end;
  net_ = &net;
  const std::size_t n = net.total_link_ports();
  busy_.assign(n, 0);
  credit_starved_.assign(n, 0);
  vc_blocked_.assign(n, 0);
  arbitration_lost_.assign(n, 0);
}

void StallCollector::on_link_flit(std::size_t link_index, std::uint64_t cycle) {
  if (in_window(cycle)) ++busy_[link_index];
}

void StallCollector::on_output_stall(std::uint32_t router, std::uint32_t port,
                                     StallCause cause, std::uint64_t cycle) {
  if (!in_window(cycle)) return;
  const std::size_t idx = net_->link_index(router, port);
  switch (cause) {
    case StallCause::kCreditStarved:
      ++credit_starved_[idx];
      break;
    case StallCause::kVcBlocked:
      ++vc_blocked_[idx];
      break;
    case StallCause::kArbitrationLost:
      ++arbitration_lost_[idx];
      break;
  }
}

void StallCollector::on_run_end(std::uint64_t /*cycles*/,
                                std::uint64_t measure_begin,
                                std::uint64_t measure_end) {
  measure_begin_ = measure_begin;
  measure_end_ = measure_end;
}

std::uint64_t StallCollector::idle(std::size_t link_index) const {
  const std::uint64_t used = busy_[link_index] + credit_starved_[link_index] +
                             vc_blocked_[link_index] +
                             arbitration_lost_[link_index];
  const std::uint64_t window = window_cycles();
  return window > used ? window - used : 0;
}

void StallCollector::finish(Summary& out) const {
  out.has_stall = true;
  auto& s = out.stall;
  for (std::size_t i = 0; i < busy_.size(); ++i) {
    s.busy += busy_[i];
    s.credit_starved += credit_starved_[i];
    s.vc_blocked += vc_blocked_[i];
    s.arbitration_lost += arbitration_lost_[i];
    s.idle += idle(i);
  }
}

// ------------------------------------------------------------ occupancy ---

void OccupancyCollector::on_run_begin(const sim::Network& net,
                                      const sim::SimParams& /*prm*/,
                                      std::uint64_t /*measure_begin*/,
                                      std::uint64_t /*measure_end*/) {
  net_ = &net;
  num_routers_ = net.num_routers();
  num_vcs_ = 0;  // learned from the first snapshot
  sample_cycles_.clear();
  router_series_.clear();
  vc_series_.clear();
}

void OccupancyCollector::on_occupancy_sample(std::uint64_t cycle,
                                             const OccupancySnapshot& snap) {
  num_vcs_ = snap.num_vcs;
  sample_cycles_.push_back(cycle);
  const std::size_t row = router_series_.size();
  router_series_.resize(row + num_routers_, 0);
  const std::size_t vrow = vc_series_.size();
  vc_series_.resize(vrow + num_vcs_, 0);
  for (std::uint32_t r = 0; r < num_routers_; ++r) {
    const std::size_t base = net_->port_base(r) * num_vcs_;
    const std::size_t end =
        (net_->port_base(r) + net_->num_link_ports(r)) * num_vcs_;
    std::uint32_t total = 0;
    for (std::size_t b = base; b < end; ++b) {
      const std::uint16_t fill = snap.buffer_fill[b];
      total += fill;
      vc_series_[vrow + b % num_vcs_] += fill;
    }
    router_series_[row + r] = total;
  }
}

void OccupancyCollector::finish(Summary& out) const {
  out.has_occupancy = true;
  auto& o = out.occupancy;
  o.samples = sample_cycles_.size();
  if (router_series_.empty()) return;
  std::uint64_t sum = 0;
  std::uint32_t peak = 0;
  for (std::uint32_t v : router_series_) {
    sum += v;
    peak = std::max(peak, v);
  }
  o.peak_router_flits = static_cast<double>(peak);
  o.avg_router_flits =
      static_cast<double>(sum) / static_cast<double>(router_series_.size());
}

// ----------------------------------------------------------------- ugal ---

void UgalCollector::on_run_begin(const sim::Network& /*net*/,
                                 const sim::SimParams& /*prm*/,
                                 std::uint64_t measure_begin,
                                 std::uint64_t measure_end) {
  measure_begin_ = measure_begin;
  measure_end_ = measure_end;
  sum_ = {};
  valiant_extra_hops_ = 0;
}

void UgalCollector::on_ugal_decision(const UgalDecision& d,
                                     std::uint64_t cycle) {
  if (cycle < measure_begin_ || cycle >= measure_end_) return;
  ++sum_.decisions;
  if (d.valiant) {
    ++sum_.valiant;
    valiant_extra_hops_ += static_cast<std::int64_t>(d.chosen_hops) -
                           static_cast<std::int64_t>(d.min_hops);
  } else if (d.candidates_evaluated == 0) {
    ++sum_.minimal_no_candidate;
  } else {
    ++sum_.minimal_no_better;
  }
}

void UgalCollector::finish(Summary& out) const {
  out.has_ugal = true;
  out.ugal = sum_;
  if (sum_.valiant > 0) {
    out.ugal.avg_valiant_extra_hops =
        static_cast<double>(valiant_extra_hops_) /
        static_cast<double>(sum_.valiant);
  }
}

// ----------------------------------------------------------- timeseries ---

void TimeSeriesCollector::on_run_begin(const sim::Network& /*net*/,
                                       const sim::SimParams& /*prm*/,
                                       std::uint64_t /*measure_begin*/,
                                       std::uint64_t /*measure_end*/) {
  intervals_.clear();
  acc_ = MetricsFrame{};
  open_ = false;
}

void TimeSeriesCollector::close_bucket() {
  TimeSeriesInterval iv;
  iv.begin_cycle = acc_.begin_cycle;
  iv.end_cycle = acc_.end_cycle;
  iv.injected = acc_.injected;
  iv.ejected = acc_.ejected;
  iv.offered_flits = acc_.offered_flits;
  iv.accepted_flits = acc_.accepted_flits;
  iv.lat_packets = acc_.lat_count;
  iv.avg_latency =
      acc_.lat_count != 0
          ? acc_.lat_sum / static_cast<double>(acc_.lat_count)
          : 0.0;
  iv.max_latency = acc_.lat_max;
  iv.buffered_flits = acc_.buffered_flits;
  iv.in_flight = acc_.in_flight;
  iv.dropped = acc_.dropped;
  iv.retransmits = acc_.retransmits;
  iv.lost = acc_.lost;
  intervals_.push_back(iv);
  open_ = false;
}

void TimeSeriesCollector::on_metrics_sample(const MetricsFrame& f) {
  if (!open_) {
    acc_ = f;
    open_ = true;
  } else {
    // Frames tile the run, so merging adjacent ones is pure accumulation:
    // sum the diffs, keep the later gauges, extend the interval.
    acc_.end_cycle = f.end_cycle;
    acc_.injected += f.injected;
    acc_.ejected += f.ejected;
    acc_.offered_flits += f.offered_flits;
    acc_.accepted_flits += f.accepted_flits;
    acc_.lat_count += f.lat_count;
    acc_.lat_sum += f.lat_sum;
    acc_.lat_max = std::max(acc_.lat_max, f.lat_max);
    acc_.buffered_flits = f.buffered_flits;
    acc_.in_flight = f.in_flight;
    acc_.dropped += f.dropped;
    acc_.retransmits += f.retransmits;
    acc_.lost += f.lost;
  }
  if (interval_ != 0 && f.end_cycle % interval_ == 0) close_bucket();
}

void TimeSeriesCollector::on_run_end(std::uint64_t /*cycles*/,
                                     std::uint64_t /*measure_begin*/,
                                     std::uint64_t /*measure_end*/) {
  // The run epilogue delivers a partial final frame before on_run_end, so
  // any bucket still open here just didn't land on our own grid.
  if (open_) close_bucket();
}

void TimeSeriesCollector::finish(Summary& out) const {
  out.has_timeseries = true;
  out.timeseries.interval = interval_;
  out.timeseries.intervals = intervals_;
}

// ------------------------------------------------------------------ set ---

CollectorSet::CollectorSet(std::vector<Collector*> members)
    : members_(std::move(members)) {}

void CollectorSet::add(Collector* c) {
  members_.push_back(c);
  member_caps_.clear();  // invalidate the dispatch cache
}

const std::vector<Collector::Caps>& CollectorSet::member_caps() const {
  if (member_caps_.size() != members_.size()) {
    member_caps_.clear();
    member_caps_.reserve(members_.size());
    for (const Collector* c : members_) member_caps_.push_back(c->caps());
  }
  return member_caps_;
}

Collector::Caps CollectorSet::caps() const {
  Caps merged;
  for (const Caps& m : member_caps()) {
    merged.link_flits |= m.link_flits;
    merged.stalls |= m.stalls;
    merged.ugal |= m.ugal;
    // gcd(0, p) == p: a member without a period never widens the grid.
    merged.occupancy_period =
        std::gcd(merged.occupancy_period, m.occupancy_period);
    merged.metrics_period = std::gcd(merged.metrics_period, m.metrics_period);
    merged.packets = PacketFilter::merge(merged.packets, m.packets);
    merged.faults |= m.faults;
  }
  return merged;
}

void CollectorSet::on_run_begin(const sim::Network& net,
                                const sim::SimParams& prm,
                                std::uint64_t measure_begin,
                                std::uint64_t measure_end) {
  member_caps();  // warm the dispatch cache before the first event
  for (Collector* c : members_) {
    c->on_run_begin(net, prm, measure_begin, measure_end);
  }
}

void CollectorSet::on_link_flit(std::size_t link_index, std::uint64_t cycle) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].link_flits) members_[i]->on_link_flit(link_index, cycle);
  }
}

void CollectorSet::on_output_stall(std::uint32_t router, std::uint32_t port,
                                   StallCause cause, std::uint64_t cycle) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].stalls) members_[i]->on_output_stall(router, port, cause, cycle);
  }
}

void CollectorSet::on_ugal_decision(const UgalDecision& d,
                                    std::uint64_t cycle) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].ugal) members_[i]->on_ugal_decision(d, cycle);
  }
}

void CollectorSet::on_occupancy_sample(std::uint64_t cycle,
                                       const OccupancySnapshot& snap) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const std::uint32_t p = caps[i].occupancy_period;
    if (p != 0 && cycle % p == 0) members_[i]->on_occupancy_sample(cycle, snap);
  }
}

void CollectorSet::on_metrics_sample(const MetricsFrame& f) {
  // Frames arrive on the merged (gcd) grid; every subscriber gets all of
  // them and re-buckets onto its own interval (MetricsFrame is mergeable).
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].metrics_period != 0) members_[i]->on_metrics_sample(f);
  }
}

void CollectorSet::on_packet_injected(const sim::PacketRecord& pkt,
                                      std::uint64_t cycle) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].packets.enabled()) members_[i]->on_packet_injected(pkt, cycle);
  }
}

void CollectorSet::on_packet_routed(const sim::PacketRecord& pkt,
                                    std::uint32_t router,
                                    std::uint16_t out_port,
                                    std::uint8_t out_vc, bool eject,
                                    std::uint64_t cycle) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].packets.enabled()) {
      members_[i]->on_packet_routed(pkt, router, out_port, out_vc, eject,
                                    cycle);
    }
  }
}

void CollectorSet::on_packet_hop(const sim::PacketRecord& pkt,
                                 std::uint32_t router, std::uint32_t port,
                                 std::uint8_t vc, std::uint64_t arrival_cycle,
                                 std::uint64_t cycle) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].packets.enabled()) {
      members_[i]->on_packet_hop(pkt, router, port, vc, arrival_cycle, cycle);
    }
  }
}

void CollectorSet::on_packet_ejected(const sim::PacketRecord& pkt,
                                     std::uint64_t arrival_cycle,
                                     std::uint64_t cycle) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].packets.enabled()) {
      members_[i]->on_packet_ejected(pkt, arrival_cycle, cycle);
    }
  }
}

void CollectorSet::on_fault(const fault::FaultEvent& ev, std::uint64_t cycle) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].faults) members_[i]->on_fault(ev, cycle);
  }
}

void CollectorSet::on_packet_fault(const sim::PacketRecord& pkt,
                                   PacketFaultKind kind, std::uint64_t cycle) {
  const auto& caps = member_caps();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (caps[i].faults) members_[i]->on_packet_fault(pkt, kind, cycle);
  }
}

void CollectorSet::on_run_end(std::uint64_t cycles,
                              std::uint64_t measure_begin,
                              std::uint64_t measure_end) {
  for (Collector* c : members_) {
    c->on_run_end(cycles, measure_begin, measure_end);
  }
}

void CollectorSet::finish(Summary& out) const {
  for (const Collector* c : members_) c->finish(out);
}

}  // namespace polarstar::telemetry
