// Builders for "the largest feasible configuration of family F at network
// radix k" -- the instances Figs 12, 13, 14 analyze -- plus the exact
// Table 3 simulation configurations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/polarstar.h"
#include "topo/topology.h"

namespace polarstar::analysis {

enum class Family {
  kPolarStarIq,
  kPolarStarPaley,
  kBundlefly,
  kDragonfly,
  kHyperX3D,
  kMegafly,
  kFatTree,
  kSpectralfly,
  kJellyfish,
};

const char* to_string(Family f);

/// Builds the largest diameter-3 (or family-appropriate) instance with
/// network radix exactly `radix`, capped at `max_order` routers to keep
/// analyses tractable; nullopt when no feasible instance exists under the
/// cap. Jellyfish matches PolarStar's size at the same radix (as in Fig 12).
std::optional<topo::Topology> build_largest(Family f, std::uint32_t radix,
                                            std::uint64_t max_order,
                                            std::uint64_t seed = 7);

/// Table 3's two PolarStar rows. Front ends that simulate them build one
/// PolarStar from these and take both the topology and the analytic
/// routing from it.
inline constexpr core::PolarStarConfig kTable3PsIq{
    11, 3, core::SupernodeKind::kInductiveQuad, 5};
inline constexpr core::PolarStarConfig kTable3PsPal{
    8, 6, core::SupernodeKind::kPaley, 5};

/// The PolarStar configuration of Table 3 row `name` ("PS-IQ" or
/// "PS-Pal"); nullopt for every other row.
std::optional<core::PolarStarConfig> table3_polarstar(const std::string& name);

/// The eight Table 3 configurations by row name: "PS-IQ", "PS-Pal", "BF",
/// "HX", "DF", "SF", "MF", "FT". Throws on unknown name.
topo::Topology build_table3(const std::string& name);

}  // namespace polarstar::analysis
