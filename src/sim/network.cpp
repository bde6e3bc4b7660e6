#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/algorithms.h"

namespace polarstar::sim {

using graph::Vertex;

namespace {

// One row block's scratch for build_routes' route_of: `ports` arrives
// empty, `hops` is free for a per-pair query.
struct RouteScratch {
  std::vector<std::uint16_t> ports;
  std::vector<Vertex> hops;
};

}  // namespace

Network::Network(std::shared_ptr<const topo::Topology> topo,
                 std::shared_ptr<const routing::MinimalRouting> routing)
    : topo_(std::move(topo)), routing_(std::move(routing)) {
  if (!topo_ || !routing_) {
    throw std::invalid_argument("Network: topology and routing must be set");
  }
  n_ = topo_->g.num_vertices();
  if (n_ > graph::DistanceMatrix::kMaxVertices) {
    throw std::length_error(
        "Network: more than 0xFFFF routers overflow uint16 route ids");
  }
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

  // Flatten distances and minimal next hops, one source row at a time. A
  // graph-minimal routing hands over its distance matrix, and each pair's
  // ports are the link ports one hop closer (port order is sorted-neighbour
  // order, so no port_toward search); any other routing is asked pair by
  // pair.
  if (const auto dist = routing_->minimal_distances()) {
    if (dist->size() != n_) {
      throw std::logic_error("Network: distance matrix size != router count");
    }
    build_routes([&](Vertex s, Vertex d, RouteScratch& scratch) {
      const std::uint32_t sd = dist->distance(s, d);
      graph::for_each_closer_neighbor(
          topo_->g.neighbors(s), sd,
          // at()'s unreachable 0xFFFF plus one never equals a finite sd.
          [&](Vertex w) { return std::uint32_t{dist->at(w, d)}; },
          [&](std::uint32_t p) {
            scratch.ports.push_back(static_cast<std::uint16_t>(p));
          });
      return sd;
    });
  } else {
    build_routes([&](Vertex s, Vertex d, RouteScratch& scratch) {
      scratch.hops.clear();
      if (s != d) routing_->next_hops(s, d, scratch.hops);
      for (Vertex w : scratch.hops) {
        scratch.ports.push_back(static_cast<std::uint16_t>(port_toward(s, w)));
      }
      return routing_->distance(s, d);
    });
  }
}

template <typename RouteOf>
void Network::build_routes(RouteOf&& route_of) {
  entry_id_.resize(static_cast<std::size_t>(n_) * n_);
  row_base_.resize(n_);
  // Rows are deduped in contiguous blocks on every hardware thread. A
  // block writes its ids in place into entry_id_ (they are row-local), and
  // its routes, port overflow and row bases block-locally; this thread
  // then concatenates the blocks in row order, so the table is the same
  // at any thread count (and equals a one-block build).
  struct Block {
    std::vector<Route> entries;
    std::vector<std::uint16_t> overflow;
  };
  constexpr std::size_t kRowBlocks = 64;
  const std::size_t num_blocks = std::min<std::size_t>(n_, kRowBlocks);
  std::vector<Block> blocks(num_blocks);
  const auto first_row = [&](std::size_t b) {
    return static_cast<Vertex>(b * n_ / num_blocks);
  };
  graph::parallel_for(num_blocks, 0, [&](std::size_t b) {
    Block& out = blocks[b];
    const auto ports_of =
        [&](const Route& r) -> std::span<const std::uint16_t> {
      if (r.count <= kInlinePorts) return {r.ports, r.count};
      return {out.overflow.data() + r.overflow_offset(), r.count};
    };
    // Per-row dedupe on (distance, ports in routing order): an
    // open-addressing table with linear probing, cleared per row. A route
    // with its ports inline keys on its 8 bytes, which are the whole
    // route; a longer list keys on its distance, length and a 32-bit
    // digest of its port set, and a match also compares the list, which
    // tells port orders and digest collisions apart. A row has at most n
    // distinct routes, so the table is never more than half full.
    struct Slot {
      std::uint64_t key = 0;
      std::uint32_t id = 0;  // row-local id + 1; 0 for an empty slot
    };
    std::vector<Slot> slots(std::bit_ceil(2 * std::size_t{n_}));
    const std::size_t mask = slots.size() - 1;
    const int shift = 64 - std::countr_zero(slots.size());  // n >= 1 here
    std::vector<std::size_t> used;  // this row's filled slots
    RouteScratch scratch;
    auto& ports = scratch.ports;
    for (Vertex s = first_row(b); s < first_row(b + 1); ++s) {
      const auto base = static_cast<std::uint32_t>(out.entries.size());
      row_base_[s] = base;  // block-local until the blocks are joined
      for (std::size_t u : used) slots[u].id = 0;
      used.clear();
      std::uint16_t* ids = entry_id_.data() + static_cast<std::size_t>(s) * n_;
      for (Vertex d = 0; d < n_; ++d) {
        ports.clear();
        const std::uint32_t dist = route_of(s, d, scratch);
        // The DistanceMatrix narrowing convention: graph::kUnreachable <->
        // 0xFFFF (the cast below). A matrix never holds a larger distance;
        // a per-pair routing could.
        if (dist != graph::kUnreachable && dist >= 0xFFFFu) {
          throw std::logic_error("Network: routing distance overflows uint16");
        }
        Route r{static_cast<std::uint16_t>(dist),
                static_cast<std::uint16_t>(ports.size()), {0, 0}};
        const bool inline_ports = ports.size() <= kInlinePorts;
        if (inline_ports) {
          std::ranges::copy(ports, r.ports);
        } else {
          std::uint64_t set = 0;
          for (std::uint16_t p : ports) set |= 1ull << (p & 63);
          set ^= set >> 32;
          r.ports[0] = static_cast<std::uint16_t>(set);
          r.ports[1] = static_cast<std::uint16_t>(set >> 16);
        }
        const auto key = std::bit_cast<std::uint64_t>(r);
        std::size_t i = key * 0x9E3779B97F4A7C15ull >> shift;
        for (; slots[i].id != 0; i = (i + 1) & mask) {
          if (slots[i].key == key &&
              (inline_ports ||
               std::ranges::equal(
                   ports_of(out.entries[base + slots[i].id - 1]), ports))) {
            break;
          }
        }
        if (slots[i].id != 0) {
          ids[d] = static_cast<std::uint16_t>(slots[i].id - 1);
          continue;
        }
        // A new route for this row: ids stay below n <= 0xFFFF.
        const auto id = static_cast<std::uint32_t>(out.entries.size() - base);
        ids[d] = static_cast<std::uint16_t>(id);
        slots[i] = {key, id + 1};
        used.push_back(i);
        if (!inline_ports) {
          r.set_overflow_offset(
              static_cast<std::uint32_t>(out.overflow.size()));
          out.overflow.insert(out.overflow.end(), ports.begin(), ports.end());
        }
        out.entries.push_back(r);
      }
    }
  });
  // Join the blocks in row order, rebasing row bases and overflow offsets.
  std::size_t num_entries = 0, num_overflow = 0;
  for (const Block& block : blocks) {
    num_entries += block.entries.size();
    num_overflow += block.overflow.size();
  }
  entries_.reserve(num_entries);
  overflow_ports_.reserve(num_overflow);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const auto entry_base = static_cast<std::uint32_t>(entries_.size());
    const auto overflow_base =
        static_cast<std::uint32_t>(overflow_ports_.size());
    for (Vertex s = first_row(b); s < first_row(b + 1); ++s) {
      row_base_[s] += entry_base;
    }
    for (Route r : blocks[b].entries) {
      if (r.count > kInlinePorts) {
        r.set_overflow_offset(r.overflow_offset() + overflow_base);
      }
      entries_.push_back(r);
    }
    overflow_ports_.insert(overflow_ports_.end(),
                           blocks[b].overflow.begin(),
                           blocks[b].overflow.end());
  }
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
