#include "fault/fault_routing.h"

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
}

void FaultAwareRouting::apply(const FaultEvent& ev) {
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
  if (!degraded_) {
    dist_.reset();
    hops_.reset();
    return;
  }
  std::vector<graph::Edge> alive;
  alive.reserve(topo_->g.num_edges());
  for (const graph::Edge& e : topo_->g.edge_list()) {
    if (link_alive(e.first, e.second)) alive.push_back(e);
  }
  const graph::Graph surv =
      graph::Graph::from_edges(topo_->num_routers(), alive);
  // Single-threaded rebuild: Simulations advance epochs from runlab worker
  // threads, and nested pools would oversubscribe without speeding up the
  // small survivor graphs involved.
  dist_ = std::make_unique<graph::DistanceMatrix>(surv, 1);
  hops_ = std::make_unique<graph::MinimalNextHops>(surv, *dist_);
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
  return survivor_distance(src, dst);
}

void FaultAwareRouting::next_hops(Vertex cur, Vertex dst,
                                  std::vector<Vertex>& out) const {
  if (!degraded_) {
    base_->next_hops(cur, dst, out);
    return;
  }
  // The base hops land in out[start, end); survivor_filter compacts the
  // kept ones to out[start, w) in place (w never passes the one read).
  struct Hops {
    const FaultAwareRouting& self;
    Vertex cur;
    std::vector<Vertex>& out;
    std::size_t start, w;
    std::span<const Vertex> candidates() const {
      return std::span<const Vertex>(out).subspan(start);
    }
    Vertex neighbor(Vertex h) const { return h; }
    bool alive(Vertex h) const { return self.link_alive(cur, h); }
    void keep(Vertex h) { out[w++] = h; }
  };
  const std::size_t start = out.size();
  base_->next_hops(cur, dst, out);
  Hops view{*this, cur, out, start, start};
  const auto fallback = survivor_filter(cur, dst, view);
  out.resize(view.w);
  out.insert(out.end(), fallback.begin(), fallback.end());
}

std::size_t FaultAwareRouting::storage_entries() const {
  return base_->storage_entries() +
         (degraded_ ? hops_->storage_entries() : 0);
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
