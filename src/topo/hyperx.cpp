#include "topo/hyperx.h"

namespace polarstar::topo::hyperx {

using graph::Vertex;

std::uint64_t max_order_3d_for_radix(std::uint32_t radix) {
  // radix = (s0-1) + (s1-1) + (s2-1); volume is maximized by the most
  // balanced split of radix + 3.
  const std::uint32_t total = radix + 3;
  std::uint64_t best = 0;
  for (std::uint32_t s0 = 2; s0 <= total - 4; ++s0) {
    for (std::uint32_t s1 = s0; s1 + s0 <= total - 2; ++s1) {
      const std::uint32_t s2 = total - s0 - s1;
      if (s2 < s1) continue;
      best = std::max(best, static_cast<std::uint64_t>(s0) * s1 * s2);
    }
  }
  return best;
}

Topology build(const Params& prm) {
  const Vertex n = static_cast<Vertex>(order(prm));
  graph::GraphBuilder builder(n);
  // Strides for mixed-radix encoding, dim 0 fastest.
  std::vector<std::uint64_t> stride(prm.dims.size(), 1);
  for (std::size_t d = 1; d < prm.dims.size(); ++d) {
    stride[d] = stride[d - 1] * prm.dims[d - 1];
  }
  for (Vertex v = 0; v < n; ++v) {
    auto coords = coordinates(prm, v);
    for (std::size_t d = 0; d < prm.dims.size(); ++d) {
      for (std::uint32_t c = coords[d] + 1; c < prm.dims[d]; ++c) {
        const Vertex u = static_cast<Vertex>(v + (c - coords[d]) * stride[d]);
        builder.add_edge(v, u);
      }
    }
  }
  Topology topo;
  topo.name = "HyperX(";
  for (std::size_t d = 0; d < prm.dims.size(); ++d) {
    if (d != 0) topo.name += 'x';
    topo.name += std::to_string(prm.dims[d]);
  }
  topo.name += ",p=" + std::to_string(prm.p) + ")";
  topo.g = builder.build();
  topo.conc.assign(n, prm.p);
  topo.finalize();
  return topo;
}

std::vector<std::uint32_t> coordinates(const Params& prm, Vertex v) {
  std::vector<std::uint32_t> coords(prm.dims.size());
  std::uint64_t rest = v;
  for (std::size_t d = 0; d < prm.dims.size(); ++d) {
    coords[d] = static_cast<std::uint32_t>(rest % prm.dims[d]);
    rest /= prm.dims[d];
  }
  return coords;
}

}  // namespace polarstar::topo::hyperx
