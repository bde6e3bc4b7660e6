#include "analysis/topology_zoo.h"

#include <stdexcept>

#include "core/bundlefly.h"
#include "core/design_space.h"
#include "core/polarstar.h"
#include "topo/dragonfly.h"
#include "topo/fattree.h"
#include "topo/hyperx.h"
#include "topo/jellyfish.h"
#include "topo/lps.h"
#include "topo/megafly.h"
#include "topo/mms.h"
#include "topo/paley.h"

namespace polarstar::analysis {

const char* to_string(Family f) {
  switch (f) {
    case Family::kPolarStarIq: return "PolarStar-IQ";
    case Family::kPolarStarPaley: return "PolarStar-Paley";
    case Family::kBundlefly: return "Bundlefly";
    case Family::kDragonfly: return "Dragonfly";
    case Family::kHyperX3D: return "HyperX-3D";
    case Family::kMegafly: return "Megafly";
    case Family::kFatTree: return "Fat-tree";
    case Family::kSpectralfly: return "Spectralfly";
    case Family::kJellyfish: return "Jellyfish";
  }
  return "?";
}

namespace {

using topo::Topology;

std::optional<Topology> largest_polarstar(core::SupernodeKind kind,
                                          std::uint32_t radix,
                                          std::uint64_t max_order) {
  core::DesignPoint best;
  for (const auto& pt : core::polarstar_candidates(radix)) {
    if (pt.cfg.kind != kind) continue;
    if (pt.order > best.order && pt.order <= max_order) best = pt;
  }
  if (best.order == 0) return std::nullopt;
  return core::PolarStar::build(best.cfg).topology();
}

std::optional<Topology> largest_bundlefly(std::uint32_t radix,
                                          std::uint64_t max_order) {
  core::bundlefly::Params best{};
  std::uint64_t best_order = 0;
  for (std::uint32_t q = 3; q <= radix; ++q) {
    if (!topo::mms::feasible(q)) continue;
    const std::uint32_t dm = topo::mms::degree(q);
    if (dm >= radix) continue;
    const std::uint32_t dp = radix - dm;
    const std::uint32_t pq = topo::paley::q_for_degree(dp);
    if (pq == 0) continue;
    core::bundlefly::Params prm{q, pq, 0};
    const std::uint64_t order = core::bundlefly::order(prm);
    if (order > best_order && order <= max_order) {
      best_order = order;
      best = prm;
    }
  }
  if (best_order == 0) return std::nullopt;
  return core::bundlefly::build(best);
}

std::optional<Topology> largest_dragonfly(std::uint32_t radix,
                                          std::uint64_t max_order) {
  topo::dragonfly::Params best{};
  std::uint64_t best_order = 0;
  for (std::uint32_t h = 1; h < radix; ++h) {
    topo::dragonfly::Params prm{radix + 1 - h, h, 0};
    const std::uint64_t order = topo::dragonfly::order(prm);
    if (order > best_order && order <= max_order) {
      best_order = order;
      best = prm;
    }
  }
  if (best_order == 0) return std::nullopt;
  return topo::dragonfly::build(best);
}

std::optional<Topology> largest_hyperx(std::uint32_t radix,
                                       std::uint64_t max_order) {
  const std::uint32_t total = radix + 3;
  topo::hyperx::Params best{};
  std::uint64_t best_order = 0;
  for (std::uint32_t s0 = 2; s0 <= total - 4; ++s0) {
    for (std::uint32_t s1 = s0; s0 + s1 <= total - 2; ++s1) {
      const std::uint32_t s2 = total - s0 - s1;
      if (s2 < s1) continue;
      const std::uint64_t order = static_cast<std::uint64_t>(s0) * s1 * s2;
      if (order > best_order && order <= max_order) {
        best_order = order;
        best = topo::hyperx::Params{{s0, s1, s2}, 0};
      }
    }
  }
  if (best_order == 0) return std::nullopt;
  return topo::hyperx::build(best);
}

std::optional<Topology> largest_megafly(std::uint32_t radix,
                                        std::uint64_t max_order) {
  topo::megafly::Params best{};
  std::uint64_t best_order = 0;
  for (std::uint32_t s = 1; s < radix; ++s) {
    topo::megafly::Params prm{s, radix - s, 1};
    const std::uint64_t order = topo::megafly::order(prm);
    if (order > best_order && order <= max_order) {
      best_order = order;
      best = prm;
    }
  }
  if (best_order == 0) return std::nullopt;
  return topo::megafly::build(best);
}

std::optional<Topology> largest_spectralfly(std::uint32_t radix,
                                            std::uint64_t max_order) {
  if (radix < 4 || !gf::is_prime(radix - 1)) return std::nullopt;
  const std::uint32_t p = radix - 1;
  std::optional<Topology> best;
  std::uint64_t best_order = 0;
  for (std::uint32_t q = 5; q <= 61; q += 4) {
    if (!topo::lps::feasible(p, q)) continue;
    const std::uint64_t order = topo::lps::order(p, q);
    if (order > max_order) break;
    if (order <= best_order) continue;
    auto t = topo::lps::build({p, q, 1});
    best_order = order;
    best = std::move(t);
  }
  return best;
}

}  // namespace

std::optional<Topology> build_largest(Family f, std::uint32_t radix,
                                      std::uint64_t max_order,
                                      std::uint64_t seed) {
  switch (f) {
    case Family::kPolarStarIq:
      return largest_polarstar(core::SupernodeKind::kInductiveQuad, radix,
                               max_order);
    case Family::kPolarStarPaley:
      return largest_polarstar(core::SupernodeKind::kPaley, radix, max_order);
    case Family::kBundlefly: return largest_bundlefly(radix, max_order);
    case Family::kDragonfly: return largest_dragonfly(radix, max_order);
    case Family::kHyperX3D: return largest_hyperx(radix, max_order);
    case Family::kMegafly: return largest_megafly(radix, max_order);
    case Family::kFatTree: {
      // Fat-tree "radix" is the full router radix 2p.
      if (radix < 4 || radix % 2 != 0) return std::nullopt;
      topo::fattree::Params prm{radix / 2};
      if (topo::fattree::order(prm) > max_order) return std::nullopt;
      return topo::fattree::build(prm);
    }
    case Family::kSpectralfly: return largest_spectralfly(radix, max_order);
    case Family::kJellyfish: {
      // Matched to PolarStar's scale at this radix (Fig 12 methodology).
      auto ps = largest_polarstar(core::SupernodeKind::kInductiveQuad, radix,
                                  max_order);
      auto psp = largest_polarstar(core::SupernodeKind::kPaley, radix,
                                   max_order);
      std::uint64_t n = 0;
      if (ps) n = ps->num_routers();
      if (psp) n = std::max<std::uint64_t>(n, psp->num_routers());
      if (n <= radix) return std::nullopt;
      if ((n * radix) % 2 != 0) --n;  // regular graph parity
      return topo::jellyfish::build(
          {static_cast<std::uint32_t>(n), radix, 0, seed});
    }
  }
  return std::nullopt;
}

std::optional<core::PolarStarConfig> table3_polarstar(const std::string& name) {
  if (name == "PS-IQ") return kTable3PsIq;
  if (name == "PS-Pal") return kTable3PsPal;
  return std::nullopt;
}

topo::Topology build_table3(const std::string& name) {
  if (const auto cfg = table3_polarstar(name)) {
    return core::PolarStar::build(*cfg).topology();
  }
  if (name == "BF") return core::bundlefly::build({7, 9, 5});
  if (name == "HX") return topo::hyperx::build({{9, 9, 8}, 8});
  if (name == "DF") return topo::dragonfly::build({12, 6, 6});
  if (name == "SF") return topo::lps::build({23, 13, 8});
  if (name == "MF") return topo::megafly::build({8, 8, 8});
  if (name == "FT") return topo::fattree::build({18});
  throw std::invalid_argument("unknown Table 3 row: " + name);
}

}  // namespace polarstar::analysis
