#include "fault/fault_routing.h"

#include <span>
#include <stdexcept>

namespace polarstar::fault {

using graph::Vertex;

FaultAwareRouting::FaultAwareRouting(
    std::shared_ptr<const topo::Topology> topo,
    std::shared_ptr<const routing::MinimalRouting> base)
    : topo_(std::move(topo)), base_(std::move(base)) {
  if (!topo_ || !base_) {
    throw std::invalid_argument("FaultAwareRouting: null topology or routing");
  }
  router_dead_.assign(topo_->num_routers(), 0);
  link_up_.assign(topo_->g.num_edges(), 1);
}

void FaultAwareRouting::apply(const FaultEvent& ev) {
  check_event(*topo_, ev);
  switch (ev.kind) {
    case EventKind::kLinkDown:
      failed_links_.insert(canon(ev.a, ev.b));
      break;
    case EventKind::kLinkUp:
      failed_links_.erase(canon(ev.a, ev.b));
      break;
    case EventKind::kRouterDown:
      if (router_dead_[ev.a] == 0) {
        router_dead_[ev.a] = 1;
        ++dead_routers_;
      }
      break;
    case EventKind::kRouterUp:
      if (router_dead_[ev.a] != 0) {
        router_dead_[ev.a] = 0;
        --dead_routers_;
      }
      break;
  }
  dirty_ = true;
}

void FaultAwareRouting::commit() {
  if (!dirty_) return;
  dirty_ = false;
  ++epoch_;
  degraded_ = !failed_links_.empty() || dead_routers_ > 0;
  std::vector<graph::Edge> alive, removed, added;
  alive.reserve(link_up_.size());
  const graph::Graph& g = topo_->g;
  std::size_t i = 0;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Vertex v : g.neighbors(u)) {
      if (v < u) continue;  // each link once, in edge_list() order
      const std::uint8_t up = link_alive(u, v) ? 1 : 0;
      if (up != link_up_[i]) (up ? added : removed).push_back({u, v});
      link_up_[i++] = up;
      if (up) alive.push_back({u, v});
    }
  }
  survivor_ = graph::Graph::from_edges(topo_->num_routers(), alive);
  // Single-threaded: Simulations advance epochs from runlab worker threads,
  // and nested pools would oversubscribe without speeding up the few rows
  // a batch breaks.
  dist_.update(survivor_, removed, added, 1);
}

void FaultAwareRouting::survivor_hops(Vertex cur, Vertex dst,
                                      std::vector<Vertex>& out) const {
  const auto nb = survivor_.neighbors(cur);
  graph::for_each_closer_neighbor(
      nb, dist_.distance(cur, dst),
      [&](Vertex w) { return dist_.distance(w, dst); },
      [&](std::uint32_t i) { out.push_back(nb[i]); });
}

bool FaultAwareRouting::link_alive(Vertex u, Vertex v) const {
  if (router_dead_[u] != 0 || router_dead_[v] != 0) return false;
  return failed_links_.empty() || failed_links_.count(canon(u, v)) == 0;
}

std::uint32_t FaultAwareRouting::distance(Vertex src, Vertex dst) const {
  if (!degraded_) return base_->distance(src, dst);
  if (router_dead_[src] != 0 || router_dead_[dst] != 0) {
    return graph::kUnreachable;
  }
  return dist_.distance(src, dst);
}

void FaultAwareRouting::next_hops(Vertex cur, Vertex dst,
                                  std::vector<Vertex>& out) const {
  if (!degraded_) {
    base_->next_hops(cur, dst, out);
    return;
  }
  // The base hops land in out[start, end); survivor_filter compacts the
  // kept ones to out[start, w) in place (w never passes the one read) or
  // appends the fallback past end. Erasing [w, end) leaves either.
  struct Hops {
    const FaultAwareRouting& self;
    Vertex cur;
    std::vector<Vertex>& out;
    std::size_t start, end, w;
    std::span<const Vertex> candidates() const {
      return std::span<const Vertex>(out).subspan(start, end - start);
    }
    Vertex neighbor(Vertex h) const { return h; }
    bool alive(Vertex h) const { return self.link_alive(cur, h); }
    void keep(Vertex h) { out[w++] = h; }
  };
  const std::size_t start = out.size();
  base_->next_hops(cur, dst, out);
  Hops view{*this, cur, out, start, out.size(), start};
  survivor_filter(cur, dst, view, out);
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(view.w),
            out.begin() + static_cast<std::ptrdiff_t>(view.end));
}

std::size_t FaultAwareRouting::storage_entries() const {
  std::size_t entries = base_->storage_entries();
  if (!degraded_) return entries;
  // The fallback table is never materialised: count what it would store.
  std::vector<Vertex> hops;
  for (Vertex cur = 0; cur < survivor_.num_vertices(); ++cur) {
    for (Vertex dst = 0; dst < survivor_.num_vertices(); ++dst) {
      hops.clear();
      survivor_hops(cur, dst, hops);
      entries += hops.size();
    }
  }
  return entries;
}

std::string FaultAwareRouting::name() const {
  return base_->name() + "+fault";
}

std::shared_ptr<FaultAwareRouting> make_fault_aware_routing(
    std::shared_ptr<const topo::Topology> topo,
    std::shared_ptr<const routing::MinimalRouting> base) {
  return std::make_shared<FaultAwareRouting>(std::move(topo), std::move(base));
}

}  // namespace polarstar::fault
