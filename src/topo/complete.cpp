#include "topo/complete.h"

namespace polarstar::topo::complete {

using graph::Vertex;

Supernode build(std::uint32_t d_prime) {
  const Vertex n = d_prime + 1;
  graph::GraphBuilder builder(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) builder.add_edge(u, v);
  }
  Supernode sn;
  sn.g = builder.build();
  sn.f.resize(n);
  for (Vertex v = 0; v < n; ++v) sn.f[v] = v;  // identity
  sn.f_is_involution = true;
  sn.name = 'K' + std::to_string(n);
  return sn;
}

}  // namespace polarstar::topo::complete
