// Scenario generators: the workloads production traffic is made of.
//
//  - PatternWorkload:          the paper's synthetic patterns (§9.4/§9.6)
//                              as one Workload implementation.
//  - IncastWorkload:           periodic fan-in bursts onto a few victim
//                              endpoints over a uniform background.
//  - MultiTenantWorkload:      endpoints partitioned into contiguous tenant
//                              blocks, each running its own pattern strictly
//                              inside its block (job-mix interference).
//  - TransientHotspotWorkload: uniform background with a hotspot window
//                              [begin, end) during which a fraction of
//                              traffic converges on a few hot endpoints.
//  - CollectiveWorkload:       phase-rotating partner exchange seeded from
//                              the allreduce ablation (recursive doubling:
//                              phase k pairs rank r with r XOR 2^k; ring:
//                              rank r sends to r+1) over the largest 2^b
//                              endpoint domain.
//  - CombinedWorkload:         weighted concurrent mix of other workloads
//                              (the faults + adversarial + incast stress
//                              scenario is Combined{adversarial, incast}
//                              under a SweepCase fault schedule).
//
// All generators inject from tick() with per-source RNGs seeded from
// Context::seed, so every scenario is deterministic, bit-identical at any
// POLARSTAR_THREADS, and trace-recordable (trace.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/traffic.h"
#include "workload/workload.h"

namespace polarstar::workload {

/// The synthetic patterns as a Workload (wraps sim::make_pattern_source).
class PatternWorkload final : public Workload {
 public:
  explicit PatternWorkload(sim::Pattern pattern) : pattern_(pattern) {}

  std::string name() const override { return sim::to_string(pattern_); }
  std::unique_ptr<sim::TrafficSource> instantiate(
      const Context& ctx) const override;

  sim::Pattern pattern() const { return pattern_; }

 private:
  sim::Pattern pattern_;
};

/// Periodic many-to-few bursts. Outside bursts every endpoint offers
/// uniform traffic at (1 - burst_fraction) x load; during the `burst`
/// cycles opening each `period`, the burst_fraction of the load -- scaled
/// up by period/burst so the *time average* still equals the offered load
/// -- converges on `victims` fixed endpoints (sender e targets victim
/// e % victims).
struct IncastConfig {
  std::uint32_t victims = 2;
  std::uint64_t period = 256;  ///< cycles between burst starts
  std::uint64_t burst = 32;    ///< burst length in cycles
  double burst_fraction = 0.7; ///< share of offered load sent as incast
};

class IncastWorkload final : public Workload {
 public:
  explicit IncastWorkload(IncastConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "incast"; }
  std::string describe() const override;
  std::unique_ptr<sim::TrafficSource> instantiate(
      const Context& ctx) const override;
  std::vector<Mark> marks(const Context& ctx) const override;

  const IncastConfig& config() const { return cfg_; }

 private:
  IncastConfig cfg_;
};

/// Per-tenant traffic semantics, evaluated strictly inside the tenant's
/// contiguous endpoint block.
enum class TenantPattern {
  kUniform,      ///< uniform over the other tenant members
  kPermutation,  ///< fixed random permutation of the members
  kHotspot,      ///< all members target one member (intra-tenant incast)
  kTornado,      ///< member i targets member i + n/2 mod n
};

const char* to_string(TenantPattern p);

/// Endpoints are split into tenants.size() blocks; tenant t's endpoints
/// talk only among themselves with tenant t's pattern. Models a multi-job
/// machine where jobs interfere in the network but never address each
/// other. Two placement modes:
///  - contiguous (default): equal contiguous blocks in endpoint order (the
///    remainder endpoints join the last block);
///  - explicit: a per-endpoint tenant map, e.g. derived from a streaming
///    partitioner run over the router graph (placement_from_router_parts),
///    so each job's endpoints sit on a low-cut cluster of routers instead
///    of an arbitrary id range.
class MultiTenantWorkload final : public Workload {
 public:
  explicit MultiTenantWorkload(std::vector<TenantPattern> tenants);

  /// Explicit placement: placement[e] is endpoint e's tenant. Every value
  /// must be < tenants.size() and every tenant must own at least one
  /// endpoint (checked here); the size must match the simulated topology's
  /// endpoint count (checked at instantiate time).
  MultiTenantWorkload(std::vector<TenantPattern> tenants,
                      std::vector<std::uint32_t> placement);

  std::string name() const override { return "multi-tenant"; }
  std::string describe() const override;
  std::unique_ptr<sim::TrafficSource> instantiate(
      const Context& ctx) const override;

  const std::vector<TenantPattern>& tenants() const { return tenants_; }
  /// Empty in contiguous mode.
  const std::vector<std::uint32_t>& placement() const { return placement_; }

 private:
  std::vector<TenantPattern> tenants_;
  std::vector<std::uint32_t> placement_;
};

/// Expands a router -> part map (e.g. StreamPartition::part_of_vertex)
/// into the per-endpoint tenant map MultiTenantWorkload's explicit
/// placement takes: endpoint e joins the part of its router.
/// router_part.size() must equal topo.num_routers().
std::vector<std::uint32_t> placement_from_router_parts(
    const topo::Topology& topo, std::span<const std::uint32_t> router_part);

/// Uniform background that develops a hotspot during [begin, end): inside
/// the window, hot_fraction of each endpoint's packets target one of
/// `hot_endpoints` fixed endpoints instead of a uniform destination.
struct HotspotConfig {
  std::uint64_t begin = 600;
  std::uint64_t end = 1400;
  double hot_fraction = 0.5;
  std::uint32_t hot_endpoints = 4;
};

class TransientHotspotWorkload final : public Workload {
 public:
  explicit TransientHotspotWorkload(HotspotConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "transient-hotspot"; }
  std::string describe() const override;
  std::unique_ptr<sim::TrafficSource> instantiate(
      const Context& ctx) const override;
  std::vector<Mark> marks(const Context& ctx) const override;

  const HotspotConfig& config() const { return cfg_; }

 private:
  HotspotConfig cfg_;
};

/// Collective schedule shape (seeded from motif::AllreduceAlgorithm).
enum class CollectiveSchedule {
  kRecursiveDoubling,  ///< phase k: rank r <-> r XOR 2^k, log2(P) phases
  kRing,               ///< every phase: rank r -> r + 1 mod P
};

const char* to_string(CollectiveSchedule s);

struct CollectiveConfig {
  CollectiveSchedule schedule = CollectiveSchedule::kRecursiveDoubling;
  std::uint64_t phase_cycles = 200;  ///< cycles per phase before rotating
};

/// Open-loop projection of a collective's communication pattern: ranks are
/// the largest 2^b <= endpoints (the rest idle), and the active
/// partner-pairing rotates through the schedule's phases every
/// phase_cycles. Unlike the closed-loop motif allreduce this offers load
/// continuously, so it sweeps and saturates like the synthetic patterns
/// while stressing the collective's actual pairings.
class CollectiveWorkload final : public Workload {
 public:
  explicit CollectiveWorkload(CollectiveConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "collective"; }
  std::string describe() const override;
  std::unique_ptr<sim::TrafficSource> instantiate(
      const Context& ctx) const override;
  std::vector<Mark> marks(const Context& ctx) const override;

  const CollectiveConfig& config() const { return cfg_; }

 private:
  CollectiveConfig cfg_;
};

/// Weighted concurrent mix: member i runs at weight_i x load (weights are
/// normalized), all ticking within one simulation in fixed member order.
/// Member sources are decorrelated by seed offset, so a mix is as
/// deterministic as its members.
class CombinedWorkload final : public Workload {
 public:
  struct Member {
    std::shared_ptr<const Workload> workload;
    double weight = 1.0;
  };

  CombinedWorkload(std::string name, std::vector<Member> members);

  std::string name() const override { return name_; }
  std::string describe() const override;
  std::unique_ptr<sim::TrafficSource> instantiate(
      const Context& ctx) const override;
  std::vector<Mark> marks(const Context& ctx) const override;

  const std::vector<Member>& members() const { return members_; }

 private:
  std::string name_;
  std::vector<Member> members_;
};

/// The stress mix of the availability story: adversarial pattern traffic
/// plus incast bursts, meant to run under a live fault schedule
/// (SweepCase::faults supplies the third ingredient).
std::shared_ptr<const Workload> make_stress_workload(
    IncastConfig incast = {});

}  // namespace polarstar::workload
