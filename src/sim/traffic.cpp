#include "sim/traffic.h"

#include <algorithm>
#include <stdexcept>

namespace polarstar::sim {

using graph::Vertex;

const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::kUniform: return "uniform";
    case Pattern::kPermutation: return "permutation";
    case Pattern::kBitShuffle: return "bit-shuffle";
    case Pattern::kBitReverse: return "bit-reverse";
    case Pattern::kAdversarial: return "adversarial";
    case Pattern::kTornado: return "tornado";
    case Pattern::kHotspot: return "hotspot";
  }
  return "?";
}

std::optional<Pattern> pattern_from_string(std::string_view name) {
  for (Pattern p :
       {Pattern::kUniform, Pattern::kPermutation, Pattern::kBitShuffle,
        Pattern::kBitReverse, Pattern::kAdversarial, Pattern::kTornado,
        Pattern::kHotspot}) {
    if (name == to_string(p)) return p;
  }
  if (name == "shuffle") return Pattern::kBitShuffle;
  if (name == "reverse") return Pattern::kBitReverse;
  return std::nullopt;
}

std::string pattern_names() {
  std::string names;
  for (Pattern p :
       {Pattern::kUniform, Pattern::kPermutation, Pattern::kBitShuffle,
        Pattern::kBitReverse, Pattern::kAdversarial, Pattern::kTornado,
        Pattern::kHotspot}) {
    if (!names.empty()) names += ", ";
    names += to_string(p);
  }
  return names + ", shuffle, reverse";
}

std::unique_ptr<PatternSource> make_pattern_source(const topo::Topology& topo,
                                                   Pattern pattern,
                                                   double injection_rate,
                                                   std::uint32_t packet_flits,
                                                   std::uint64_t seed) {
  return std::make_unique<PatternSource>(topo, pattern, injection_rate,
                                         packet_flits, seed);
}

OpenLoopSource::OpenLoopSource(const topo::Topology& topo,
                               double probability, std::uint64_t seed)
    : topo_(&topo), arrivals_(topo.num_endpoints(), probability, seed) {
  if (topo.num_endpoints() == 0) {
    throw std::invalid_argument("open-loop source: no endpoints");
  }
}

void OpenLoopSource::tick(Simulation& sim) {
  if (!started_) {
    arrivals_.start(sim.cycle(),
                    [&](std::uint64_t e) { return may_send(e, sim); });
    started_ = true;
  }
  arrivals_.fire(sim.cycle(), [&](std::uint64_t e, EventDraws& draws) {
    const std::uint64_t dst = destination(e, sim, draws);
    if (dst != kNoTraffic) sim.enqueue_packet(e, dst);
  });
}

PatternSource::PatternSource(const topo::Topology& topo, Pattern pattern,
                             double injection_rate,
                             std::uint32_t packet_flits, std::uint64_t seed)
    : OpenLoopSource(topo, injection_rate / packet_flits, seed),
      pattern_(pattern) {
  const std::uint64_t eps = topo.num_endpoints();
  while ((2ull << domain_bits_) <= eps) ++domain_bits_;
  ++domain_bits_;  // now 2^domain_bits_ <= eps < 2^(domain_bits_+1)
  if ((1ull << domain_bits_) > eps) --domain_bits_;

  EventDraws setup = arrivals_.setup_draws();
  if (pattern == Pattern::kHotspot) {
    // A handful of fixed hot endpoints spread across the machine.
    const std::uint32_t hots = std::max<std::uint32_t>(1, eps / 256);
    for (std::uint32_t h = 0; h < hots && h < 8; ++h) {
      hot_endpoints_.push_back(setup() % eps);
    }
  }
  if (pattern == Pattern::kPermutation) {
    // Permute endpoint-carrying routers among themselves (Fisher-Yates).
    std::vector<Vertex> carriers;
    for (Vertex r = 0; r < topo.num_routers(); ++r) {
      if (topo.conc[r] > 0) carriers.push_back(r);
    }
    std::vector<Vertex> image = carriers;
    shuffle(image, setup);
    router_perm_.assign(topo.num_routers(), 0);
    for (std::size_t i = 0; i < carriers.size(); ++i) {
      router_perm_[carriers[i]] = image[i];
    }
  }
}

void PatternSource::prepare_adversarial(Simulation& sim) {
  const auto& topo = *topo_;
  if (topo.group_of.empty()) {
    throw std::invalid_argument("adversarial pattern needs a grouped topology");
  }
  std::uint32_t num_groups = 0;
  for (Vertex r = 0; r < topo.num_routers(); ++r) {
    num_groups = std::max(num_groups, topo.group_of[r] + 1);
  }
  // Routers with endpoints, per group.
  std::vector<std::vector<Vertex>> members(num_groups);
  for (Vertex r = 0; r < topo.num_routers(); ++r) {
    if (topo.conc[r] > 0) members[topo.group_of[r]].push_back(r);
  }
  // Pair group g with the next endpoint-carrying group and map routers
  // bijectively (so ejection bandwidth is not the artificial bottleneck),
  // choosing the cyclic shift that maximizes total hop distance -- this
  // forces the longest minpaths the pairing admits, per §9.6.
  adversarial_dst_.assign(topo.num_routers(), 0);
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    if (members[g].empty()) continue;
    std::uint32_t tgt = (g + 1) % num_groups;
    while (members[tgt].empty()) tgt = (tgt + 1) % num_groups;
    const auto& src = members[g];
    const auto& dst = members[tgt];
    const std::size_t m = dst.size();
    // Primary criterion: longest total minpath (the paper enforces the
    // longest possible minpaths). Tie-break: largest minimal-path
    // diversity, which selects the alternating-label pairing on star
    // products -- the paper's max-global-hop stress -- rather than an
    // arbitrary equal-distance shift that chokes on intra-supernode links.
    std::size_t best_shift = 0;
    std::uint64_t best_total = 0, best_div = 0;
    for (std::size_t s = 0; s < m; ++s) {
      std::uint64_t total = 0, diversity = 0;
      for (std::size_t i = 0; i < src.size(); ++i) {
        const Vertex from = src[i], to = dst[(i + s) % m];
        total += sim.network().distance(from, to);
        diversity += sim.network().route_ports(from, to).size();
      }
      if (total > best_total ||
          (total == best_total && diversity > best_div)) {
        best_total = total;
        best_div = diversity;
        best_shift = s;
      }
    }
    for (std::size_t i = 0; i < src.size(); ++i) {
      adversarial_dst_[src[i]] = dst[(i + best_shift) % m];
    }
  }
  adversarial_ready_ = true;
}

void PatternSource::prepare_tornado() {
  const auto& topo = *topo_;
  std::uint32_t num_groups = 0;
  for (Vertex r = 0; r < topo.num_routers(); ++r) {
    num_groups = std::max(num_groups, topo.group_of[r] + 1);
  }
  std::vector<std::vector<Vertex>> members(num_groups);
  for (Vertex r = 0; r < topo.num_routers(); ++r) {
    if (topo.conc[r] > 0) members[topo.group_of[r]].push_back(r);
  }
  tornado_dst_.assign(topo.num_routers(), graph::kUnreachable);
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    std::uint32_t tgt = (g + num_groups / 2) % num_groups;
    while (members[tgt].empty() && tgt != g) tgt = (tgt + 1) % num_groups;
    if (members[tgt].empty()) continue;
    const auto& dst = members[tgt];
    for (std::size_t i = 0; i < members[g].size(); ++i) {
      tornado_dst_[members[g][i]] = dst[i % dst.size()];
    }
  }
}

std::uint64_t PatternSource::destination(std::uint64_t src, Simulation& sim) {
  EventDraws draws = arrivals_.next_draws(src);
  return destination(src, sim, draws);
}

std::uint64_t PatternSource::destination(std::uint64_t src, Simulation& sim,
                                         EventDraws& draws) {
  const auto& topo = *topo_;
  const std::uint64_t eps = topo.num_endpoints();
  switch (pattern_) {
    case Pattern::kUniform:
      return eps < 2 ? kNoTraffic : uniform_other(src, eps, draws);
    case Pattern::kPermutation: {
      const Vertex r = topo.router_of_endpoint(src);
      const std::uint64_t slot = src - topo.first_endpoint(r);
      const Vertex tr = router_perm_[r];
      if (tr == r) return kNoTraffic;  // self traffic carries no load
      return topo.first_endpoint(tr) +
             slot % std::max<std::uint32_t>(1, topo.conc[tr]);
    }
    case Pattern::kBitShuffle: {
      if (domain_bits_ == 0 || src >= (1ull << domain_bits_)) {
        return kNoTraffic;
      }
      const std::uint64_t mask = (1ull << domain_bits_) - 1;
      const std::uint64_t dst =
          ((src << 1) | (src >> (domain_bits_ - 1))) & mask;
      return dst == src ? kNoTraffic : dst;
    }
    case Pattern::kBitReverse: {
      if (domain_bits_ == 0 || src >= (1ull << domain_bits_)) {
        return kNoTraffic;
      }
      std::uint64_t dst = 0;
      for (std::uint64_t b = 0; b < domain_bits_; ++b) {
        if (src & (1ull << b)) dst |= 1ull << (domain_bits_ - 1 - b);
      }
      return dst == src ? kNoTraffic : dst;
    }
    case Pattern::kAdversarial: {
      if (!adversarial_ready_) prepare_adversarial(sim);
      const Vertex r = topo.router_of_endpoint(src);
      if (topo.conc[r] == 0) return kNoTraffic;
      const Vertex tr = static_cast<Vertex>(adversarial_dst_[r]);
      const std::uint64_t slot = src - topo.first_endpoint(r);
      return topo.first_endpoint(tr) + slot % topo.conc[tr];
    }
    case Pattern::kTornado: {
      if (topo.group_of.empty()) {
        const std::uint64_t dst = (src + eps / 2) % eps;
        return dst == src ? kNoTraffic : dst;
      }
      if (tornado_dst_.empty()) prepare_tornado();
      const Vertex r = topo.router_of_endpoint(src);
      if (topo.conc[r] == 0) return kNoTraffic;
      const Vertex tr = static_cast<Vertex>(tornado_dst_[r]);
      if (tr == r || tr == graph::kUnreachable) return kNoTraffic;
      const std::uint64_t slot = src - topo.first_endpoint(r);
      return topo.first_endpoint(tr) + slot % topo.conc[tr];
    }
    case Pattern::kHotspot: {
      if (eps < 2) return kNoTraffic;
      if (!hot_endpoints_.empty() && draws() % 10 == 0) {
        const std::uint64_t dst =
            hot_endpoints_[draws() % hot_endpoints_.size()];
        if (dst != src) return dst;
      }
      return uniform_other(src, eps, draws);
    }
  }
  return kNoTraffic;
}

bool PatternSource::may_send(std::uint64_t e, Simulation& sim) {
  if (pattern_ == Pattern::kUniform || pattern_ == Pattern::kHotspot) {
    return OpenLoopSource::may_send(e, sim);
  }
  EventDraws unused = arrivals_.setup_draws();
  return destination(e, sim, unused) != kNoTraffic;
}

}  // namespace polarstar::sim
