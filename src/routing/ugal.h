// UGAL-L path selection (§9.3): at injection, compare the minimal path with
// a handful of Valiant candidates (random intermediate routers) and pick the
// smallest predicted latency, estimated from hop count and the local output
// queue occupancy toward each path's first hop. ugal_select() is the one
// body, templated over a view; UgalSelector is the reference view, and the
// simulator passes one over its flattened tables and credit state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "routing/routing.h"

namespace polarstar::routing {

struct PathChoice {
  bool valiant = false;
  graph::Vertex intermediate = 0;  // meaningful when valiant
  std::uint32_t hops = 0;          // total hop estimate
  // Decision context, filled by ugal_select for telemetry: the
  // minimal-path baseline, the cost estimates compared, and how many
  // non-degenerate Valiant intermediates were actually evaluated.
  std::uint32_t min_hops = 0;
  std::uint32_t candidates_evaluated = 0;
  double min_cost = 0.0;
  double cost = 0.0;
};

/// Predicted latency: hops * (1 + queue at the least-occupied minimal
/// first hop toward `toward`). `view` supplies distance(a, b), num_routers() and
/// first_hop_occupancy(src, toward, f), calling f(double) per minimal
/// first hop in candidate order.
template <typename View>
double ugal_cost(const View& view, graph::Vertex src, graph::Vertex toward,
                 std::uint32_t hops) {
  if (src == toward) return hops;
  double q = std::numeric_limits<double>::infinity();
  view.first_hop_occupancy(src, toward,
                           [&q](double occ) { q = std::min(q, occ); });
  if (q == std::numeric_limits<double>::infinity()) q = 0;  // no first hop
  return static_cast<double>(hops) * (1.0 + q);
}

/// The minimal path against `candidates` random Valiant intermediates;
/// the cheapest ugal_cost wins, ties keeping the earlier path.
template <typename View, typename Rng>
PathChoice ugal_select(const View& view, graph::Vertex src, graph::Vertex dst,
                       std::uint32_t candidates, Rng& rng) {
  const std::uint32_t h_min = view.distance(src, dst);
  PathChoice best{false, 0, h_min};
  const double min_cost = ugal_cost(view, src, dst, h_min);
  double best_cost = min_cost;
  std::uint32_t evaluated = 0;
  const std::uint32_t n = view.num_routers();
  for (std::uint32_t i = 0; i < candidates; ++i) {
    const graph::Vertex mid = static_cast<graph::Vertex>(rng() % n);
    if (mid == src || mid == dst) continue;
    ++evaluated;
    const std::uint32_t hops =
        view.distance(src, mid) + view.distance(mid, dst);
    const double c = ugal_cost(view, src, mid, hops);
    if (c < best_cost) {
      best_cost = c;
      best.valiant = true;
      best.intermediate = mid;
      best.hops = hops;
    }
  }
  best.min_hops = h_min;
  best.candidates_evaluated = evaluated;
  best.min_cost = min_cost;
  best.cost = best_cost;
  return best;
}

class UgalSelector {
 public:
  /// `candidates` = number of random Valiant intermediates sampled per
  /// packet (the paper uses 4).
  UgalSelector(const MinimalRouting& routing, std::uint32_t num_routers,
               std::uint32_t candidates = 4)
      : routing_(routing), n_(num_routers), candidates_(candidates) {}

  /// occupancy(router, next_router) estimates the queue toward next_router
  /// at `router` (local information only, as in UGAL-L).
  template <typename Occupancy, typename Rng>
  PathChoice select(graph::Vertex src, graph::Vertex dst,
                    const Occupancy& occupancy, Rng& rng) const {
    return ugal_select(View<Occupancy>{routing_, n_, occupancy}, src, dst,
                       candidates_, rng);
  }

 private:
  template <typename Occupancy>
  struct View {
    const MinimalRouting& routing;
    std::uint32_t n;
    const Occupancy& occupancy;

    std::uint32_t distance(graph::Vertex a, graph::Vertex b) const {
      return routing.distance(a, b);
    }
    std::uint32_t num_routers() const { return n; }
    template <typename F>
    void first_hop_occupancy(graph::Vertex src, graph::Vertex toward,
                             F&& f) const {
      thread_local std::vector<graph::Vertex> hops_buf;
      hops_buf.clear();
      routing.next_hops(src, toward, hops_buf);
      for (graph::Vertex h : hops_buf) {
        f(static_cast<double>(occupancy(src, h)));
      }
    }
  };

  const MinimalRouting& routing_;
  std::uint32_t n_;
  std::uint32_t candidates_;
};

}  // namespace polarstar::routing
