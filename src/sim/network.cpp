#include "sim/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace polarstar::sim {

using graph::Vertex;

Network::Network(std::shared_ptr<const topo::Topology> topo,
                 std::shared_ptr<const routing::MinimalRouting> routing)
    : topo_(std::move(topo)), routing_(std::move(routing)) {
  if (!topo_ || !routing_) {
    throw std::invalid_argument("Network: topology and routing must be set");
  }
  n_ = topo_->g.num_vertices();
  port_base_.assign(n_ + 1, 0);
  for (Vertex r = 0; r < n_; ++r) {
    port_base_[r + 1] = port_base_[r] + topo_->g.degree(r);
  }
  total_link_ports_ = port_base_[n_];

  reverse_port_.resize(total_link_ports_);
  link_neighbor_.resize(total_link_ports_);
  link_router_.resize(total_link_ports_);
  for (Vertex r = 0; r < n_; ++r) {
    auto nb = topo_->g.neighbors(r);
    for (std::uint32_t p = 0; p < nb.size(); ++p) {
      reverse_port_[port_base_[r] + p] =
          static_cast<std::uint16_t>(port_toward(nb[p], r));
      link_neighbor_[port_base_[r] + p] = nb[p];
      link_router_[port_base_[r] + p] = r;
    }
  }
  peer_port_.resize(total_link_ports_);
  for (std::size_t link = 0; link < total_link_ports_; ++link) {
    peer_port_[link] =
        static_cast<std::uint32_t>(port_base_[link_neighbor_[link]]) +
        reverse_port_[link];
  }

  // Flatten distances and minimal next hops into one entry per pair. A
  // graph-minimal routing hands over its distance matrix, and each pair's
  // ports are the link ports one hop closer (port order is sorted-neighbour
  // order, so no port_toward search); any other routing is asked pair by
  // pair.
  routes_.resize(static_cast<std::size_t>(n_) * n_);
  std::vector<std::uint16_t> ports;
  if (const auto dist = routing_->minimal_distances()) {
    if (dist->size() != n_) {
      throw std::logic_error("Network: distance matrix size != router count");
    }
    for (Vertex s = 0; s < n_; ++s) {
      const auto nb = topo_->g.neighbors(s);
      for (Vertex d = 0; d < n_; ++d) {
        const std::uint32_t sd = dist->distance(s, d);
        ports.clear();
        graph::for_each_closer_neighbor(
            nb, sd, [&](Vertex w) { return dist->distance(w, d); },
            [&](std::uint32_t p) {
              ports.push_back(static_cast<std::uint16_t>(p));
            });
        set_route(s, d, sd, ports);
      }
    }
  } else {
    std::vector<Vertex> hops;
    for (Vertex s = 0; s < n_; ++s) {
      for (Vertex d = 0; d < n_; ++d) {
        hops.clear();
        if (s != d) routing_->next_hops(s, d, hops);
        ports.clear();
        for (Vertex w : hops) {
          ports.push_back(static_cast<std::uint16_t>(port_toward(s, w)));
        }
        set_route(s, d, routing_->distance(s, d), ports);
      }
    }
  }
}

void Network::set_route(Vertex s, Vertex d, std::uint32_t dist,
                        std::span<const std::uint16_t> ports) {
  // The DistanceMatrix narrowing convention: graph::kUnreachable <->
  // 0xFFFF. A matrix never holds a larger distance; a per-pair routing
  // could.
  if (dist != graph::kUnreachable && dist >= 0xFFFFu) {
    throw std::logic_error("Network: routing distance overflows uint16");
  }
  Route& r = routes_[static_cast<std::size_t>(s) * n_ + d];
  r.dist = dist == graph::kUnreachable ? std::uint16_t{0xFFFFu}
                                       : static_cast<std::uint16_t>(dist);
  r.count = static_cast<std::uint16_t>(ports.size());
  std::uint16_t* out = r.ports;
  if (ports.size() > kInlinePorts) {
    const auto offset = static_cast<std::uint32_t>(overflow_ports_.size());
    r.ports[0] = static_cast<std::uint16_t>(offset);
    r.ports[1] = static_cast<std::uint16_t>(offset >> 16);
    overflow_ports_.resize(offset + ports.size());
    out = overflow_ports_.data() + offset;
  }
  std::copy(ports.begin(), ports.end(), out);
}

std::uint32_t Network::port_toward(Vertex r, Vertex u) const {
  auto nb = topo_->g.neighbors(r);
  auto it = std::lower_bound(nb.begin(), nb.end(), u);
  if (it == nb.end() || *it != u) {
    throw std::logic_error("Network::port_toward: not a neighbor");
  }
  return static_cast<std::uint32_t>(it - nb.begin());
}

}  // namespace polarstar::sim
