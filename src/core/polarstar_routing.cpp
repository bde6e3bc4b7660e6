#include "core/polarstar_routing.h"

#include "graph/algorithms.h"

namespace polarstar::core {

using graph::Vertex;

PolarStarRouting::PolarStarRouting(const PolarStar& ps)
    : er_(&ps.structure().g),
      supernode_(&ps.supernode().g),
      f_(ps.supernode().f),
      finv_(ps.supernode().f_inverse()),
      n_super_(ps.supernode_order()),
      ps_(&ps) {
  quadric_ = &ps.structure().quadric;
}

std::uint32_t PolarStarRouting::intra_distance(Vertex x, Vertex a,
                                               Vertex b) const {
  const bool loop = (*quadric_)[x];
  if (a == b) return 0;
  if (super_adjacent(a, b)) return 1;
  if (loop && (b == f_[a] || b == finv_[a])) return 1;
  // Two hops inside the copy (possibly using the loop matching).
  for (Vertex w : supernode_->neighbors(a)) {
    if (super_adjacent(w, b)) return 2;
  }
  if (loop) {
    if (super_adjacent(f_[a], b) || super_adjacent(finv_[a], b)) return 2;
    if (super_adjacent(a, f_[b]) || super_adjacent(a, finv_[b])) return 2;
    if (b == f_[f_[a]] || b == finv_[finv_[a]]) return 2;
  }
  // A 2-hop detour through a neighboring supernode always returns with the
  // original label, so no external shape can shorten this case.
  return 3;
}

bool PolarStarRouting::two_hop_adjacent_supernodes(Vertex x, Vertex a,
                                                   Vertex y, Vertex b) const {
  // intra at x, then the arc.
  if (super_adjacent(a, phi_inv(x, y, b))) return true;
  // The arc, then intra at y.
  if (super_adjacent(phi(x, y, a), b)) return true;
  // Loop at x, then the arc.
  if ((*quadric_)[x] &&
      (b == phi(x, y, f_[a]) || b == phi(x, y, finv_[a]))) {
    return true;
  }
  // The arc, then loop at y.
  if ((*quadric_)[y]) {
    const Vertex m = phi(x, y, a);
    if (b == f_[m] || b == finv_[m]) return true;
  }
  // Two arcs through a common structure neighbor z.
  auto nx = er_->neighbors(x);
  auto ny = er_->neighbors(y);
  std::size_t i = 0, j = 0;
  while (i < nx.size() && j < ny.size()) {
    if (nx[i] < ny[j]) {
      ++i;
    } else if (nx[i] > ny[j]) {
      ++j;
    } else {
      const Vertex z = nx[i];
      if (b == phi(z, y, phi(x, z, a))) return true;
      ++i;
      ++j;
    }
  }
  return false;
}

bool PolarStarRouting::two_hop_distance2(Vertex x, Vertex a, Vertex y,
                                         Vertex b) const {
  auto nx = er_->neighbors(x);
  auto ny = er_->neighbors(y);
  std::size_t i = 0, j = 0;
  while (i < nx.size() && j < ny.size()) {
    if (nx[i] < ny[j]) {
      ++i;
    } else if (nx[i] > ny[j]) {
      ++j;
    } else {
      const Vertex z = nx[i];
      if (b == phi(z, y, phi(x, z, a))) return true;
      ++i;
      ++j;
    }
  }
  return false;
}

std::uint32_t PolarStarRouting::distance(Vertex src, Vertex dst) const {
  if (src == dst) return 0;
  const Vertex x = src / n_super_, a = src % n_super_;
  const Vertex y = dst / n_super_, b = dst % n_super_;
  if (x == y) return intra_distance(x, a, b);
  if (er_->has_edge(x, y)) {
    if (b == phi(x, y, a)) return 1;
    if (two_hop_adjacent_supernodes(x, a, y, b)) return 2;
    return 3;
  }
  // ER_q has diameter 2, so x and y are at structure distance exactly 2.
  if (two_hop_distance2(x, a, y, b)) return 2;
  return 3;
}

void PolarStarRouting::next_hops(Vertex cur, Vertex dst,
                                 std::vector<Vertex>& out) const {
  const auto nb = ps_->graph().neighbors(cur);
  graph::for_each_closer_neighbor(
      nb, distance(cur, dst), [&](Vertex w) { return distance(w, dst); },
      [&](std::uint32_t i) { out.push_back(nb[i]); });
}

std::size_t PolarStarRouting::storage_entries() const {
  // Supernode adjacency (both directions), f and f^{-1}, ER adjacency and
  // quadric flags -- everything the analytic case analysis consults.
  return supernode_->num_edges() * 2 + 2ull * n_super_ +
         er_->num_edges() * 2 + er_->num_vertices();
}

}  // namespace polarstar::core
