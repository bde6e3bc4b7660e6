#include "workload/generators.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/simulation.h"

namespace polarstar::workload {

namespace {

using sim::EventDraws;
using sim::Simulation;

// ---- incast ---------------------------------------------------------------

/// `background` and `burst` are the per-endpoint packet probabilities of
/// the background and, inside a burst window, of the incast share. The
/// clock runs at the burst-window rate, peak = min(1, background + burst).
/// Quiet cycles keep background / peak of the arrivals; burst cycles keep
/// them all and send burst / (background + burst) of them to a victim --
/// the per-window rates and victim share of one Bernoulli trial per
/// endpoint-cycle, the clamp at 1 included.
class IncastSource final : public sim::OpenLoopSource {
 public:
  IncastSource(const topo::Topology& topo, const IncastConfig& cfg,
               double background, double burst, std::uint64_t seed)
      : OpenLoopSource(topo, std::min(1.0, background + burst), seed),
        cfg_(cfg) {
    const std::uint64_t eps = topo.num_endpoints();
    const std::uint32_t victims = std::max<std::uint32_t>(
        1, std::min<std::uint64_t>(cfg_.victims, eps));
    // Victim v is endpoint v * eps / victims: spread across the machine so
    // the fan-in crosses groups rather than melting one router.
    for (std::uint32_t v = 0; v < victims; ++v) {
      victim_eps_.push_back(v * eps / victims);
    }
    if (background + burst > 0.0) {
      quiet_keep_ = background / std::min(1.0, background + burst);
      victim_share_ = burst / (background + burst);
    }
  }

 private:
  std::uint64_t destination(std::uint64_t src, Simulation& sim,
                            EventDraws& draws) override {
    if (cfg_.period != 0 && sim.cycle() % cfg_.period < cfg_.burst) {
      if (unit(draws) < victim_share_) {
        const std::uint64_t victim = victim_eps_[src % victim_eps_.size()];
        return victim == src ? kNoTraffic : victim;
      }
    } else if (unit(draws) >= quiet_keep_) {
      return kNoTraffic;
    }
    return uniform_other(src, topo_->num_endpoints(), draws);
  }

  IncastConfig cfg_;
  std::vector<std::uint64_t> victim_eps_;
  double quiet_keep_ = 0.0;
  double victim_share_ = 0.0;
};

// ---- multi-tenant ---------------------------------------------------------

class MultiTenantSource final : public sim::OpenLoopSource {
 public:
  MultiTenantSource(const topo::Topology& topo,
                    const std::vector<TenantPattern>& tenants, double load,
                    std::uint32_t packet_flits, std::uint64_t seed)
      : OpenLoopSource(topo, load / packet_flits, seed), patterns_(tenants) {
    const std::uint64_t eps = topo.num_endpoints();
    const std::size_t T = tenants.size();
    if (eps < T) {
      throw std::invalid_argument("multi-tenant: fewer endpoints than tenants");
    }
    base_ = eps / T;
    // Fixed per-tenant permutations / hot members, drawn up front in tenant
    // order so the layout is a pure function of the seed.
    EventDraws setup = arrivals_.setup_draws();
    perm_.resize(T);
    hot_.assign(T, 0);
    for (std::size_t t = 0; t < T; ++t) {
      const std::uint64_t size = block_size(t);
      if (patterns_[t] == TenantPattern::kPermutation) {
        perm_[t].resize(size);
        for (std::uint64_t i = 0; i < size; ++i) perm_[t][i] = i;
        shuffle(perm_[t], setup);
      } else if (patterns_[t] == TenantPattern::kHotspot) {
        hot_[t] = setup() % size;
      }
    }
  }

 private:
  /// Tenant t owns endpoints [t * base_, t * base_ + block_size(t)); the
  /// remainder endpoints join the last block.
  std::uint64_t block_size(std::size_t t) const {
    return t + 1 == patterns_.size()
               ? topo_->num_endpoints() - t * base_
               : base_;
  }

  std::uint64_t destination(std::uint64_t src, Simulation& /*sim*/,
                            EventDraws& draws) override {
    const std::size_t t =
        std::min<std::uint64_t>(src / base_, patterns_.size() - 1);
    const std::uint64_t n = block_size(t);
    if (n < 2) return kNoTraffic;
    const std::uint64_t local = src - t * base_;
    std::uint64_t out = local;
    switch (patterns_[t]) {
      case TenantPattern::kUniform:
        out = uniform_other(local, n, draws);
        break;
      case TenantPattern::kPermutation:
        out = perm_[t][local];
        break;
      case TenantPattern::kHotspot:
        out = hot_[t];
        break;
      case TenantPattern::kTornado:
        out = (local + n / 2) % n;
        break;
    }
    return out == local ? kNoTraffic : t * base_ + out;
  }

  std::vector<TenantPattern> patterns_;
  std::uint64_t base_ = 0;  ///< size of every block but the last
  std::vector<std::vector<std::uint64_t>> perm_;
  std::vector<std::uint64_t> hot_;
};

// ---- transient hotspot ----------------------------------------------------

class HotspotSource final : public sim::OpenLoopSource {
 public:
  HotspotSource(const topo::Topology& topo, const HotspotConfig& cfg,
                double load, std::uint32_t packet_flits, std::uint64_t seed)
      : OpenLoopSource(topo, load / packet_flits, seed), cfg_(cfg) {
    const std::uint64_t eps = topo.num_endpoints();
    const std::uint32_t hots = std::max<std::uint32_t>(
        1, std::min<std::uint64_t>(cfg_.hot_endpoints, eps));
    for (std::uint32_t h = 0; h < hots; ++h) {
      hot_.push_back(h * eps / hots);
    }
  }

 private:
  std::uint64_t destination(std::uint64_t src, Simulation& sim,
                            EventDraws& draws) override {
    if (sim.cycle() >= cfg_.begin && sim.cycle() < cfg_.end &&
        unit(draws) < cfg_.hot_fraction) {
      const std::uint64_t hot = hot_[draws() % hot_.size()];
      return hot == src ? kNoTraffic : hot;
    }
    return uniform_other(src, topo_->num_endpoints(), draws);
  }

  HotspotConfig cfg_;
  std::vector<std::uint64_t> hot_;
};

// ---- collective -----------------------------------------------------------

class CollectiveSource final : public sim::OpenLoopSource {
 public:
  CollectiveSource(const topo::Topology& topo, const CollectiveConfig& cfg,
                   double load, std::uint32_t packet_flits,
                   std::uint64_t seed)
      : OpenLoopSource(topo, load / packet_flits, seed), cfg_(cfg) {
    while (ranks_ * 2 <= topo.num_endpoints()) ranks_ *= 2;
    while ((1ull << log_ranks_) < ranks_) ++log_ranks_;
  }

 private:
  /// Ranks are the largest 2^b <= endpoints; the rest idle.
  bool may_send(std::uint64_t e, Simulation& /*sim*/) override {
    return ranks_ >= 2 && e < ranks_;
  }

  std::uint64_t destination(std::uint64_t src, Simulation& sim,
                            EventDraws& /*draws*/) override {
    switch (cfg_.schedule) {
      case CollectiveSchedule::kRecursiveDoubling: {
        // log_ranks_ phases, like the allreduce: partner stays < ranks_.
        const std::uint64_t phase =
            cfg_.phase_cycles == 0
                ? 0
                : (sim.cycle() / cfg_.phase_cycles) % log_ranks_;
        return src ^ (1ull << phase);
      }
      case CollectiveSchedule::kRing:
        return (src + 1) % ranks_;
    }
    return kNoTraffic;
  }

  CollectiveConfig cfg_;
  std::uint64_t ranks_ = 1;
  std::uint64_t log_ranks_ = 0;
};

// ---- combined -------------------------------------------------------------

class CombinedSource final : public sim::TrafficSource {
 public:
  explicit CombinedSource(
      std::vector<std::unique_ptr<sim::TrafficSource>> members)
      : members_(std::move(members)) {}

  void tick(sim::Simulation& sim) override {
    for (auto& m : members_) m->tick(sim);
  }

 private:
  std::vector<std::unique_ptr<sim::TrafficSource>> members_;
};

}  // namespace

// ---- PatternWorkload ------------------------------------------------------

std::unique_ptr<sim::TrafficSource> PatternWorkload::instantiate(
    const Context& ctx) const {
  return sim::make_pattern_source(*ctx.topo, pattern_, ctx.load,
                                  ctx.packet_flits, ctx.seed);
}

// ---- IncastWorkload -------------------------------------------------------

std::string IncastWorkload::describe() const {
  std::ostringstream os;
  os << cfg_.victims << " victims, burst " << cfg_.burst << "/"
     << cfg_.period << " cycles, fraction " << cfg_.burst_fraction;
  return os.str();
}

IncastWorkload::IncastWorkload(IncastConfig cfg) : cfg_(cfg) {
  const double f = cfg_.burst_fraction;
  if (!(f >= 0.0 && f <= 1.0) ||
      (f > 0.0 && (cfg_.burst == 0 || cfg_.burst > cfg_.period))) {
    throw std::invalid_argument(
        "incast: need burst_fraction in [0, 1], and 0 < burst <= period "
        "when it is positive");
  }
}

std::unique_ptr<sim::TrafficSource> IncastWorkload::instantiate(
    const Context& ctx) const {
  const double p = ctx.load / ctx.packet_flits;
  // The incast share is delivered only during the burst window, scaled so
  // the time average over one period still equals the offered share.
  const double duty = cfg_.burst == 0 ? 0.0
                                      : static_cast<double>(cfg_.period) /
                                            static_cast<double>(cfg_.burst);
  return std::make_unique<IncastSource>(
      *ctx.topo, cfg_, p * (1.0 - cfg_.burst_fraction),
      std::min(1.0, p * cfg_.burst_fraction * duty), ctx.seed);
}

std::vector<Mark> IncastWorkload::marks(const Context& ctx) const {
  std::vector<Mark> out;
  if (cfg_.period == 0) return out;
  for (std::uint64_t c = 0; c < ctx.horizon; c += cfg_.period) {
    out.push_back(Mark{c, "incast burst"});
  }
  return out;
}

// ---- MultiTenantWorkload --------------------------------------------------

const char* to_string(TenantPattern p) {
  switch (p) {
    case TenantPattern::kUniform: return "uniform";
    case TenantPattern::kPermutation: return "permutation";
    case TenantPattern::kHotspot: return "hotspot";
    case TenantPattern::kTornado: return "tornado";
  }
  return "?";
}

MultiTenantWorkload::MultiTenantWorkload(std::vector<TenantPattern> tenants)
    : tenants_(std::move(tenants)) {
  if (tenants_.empty()) {
    throw std::invalid_argument("multi-tenant: need at least one tenant");
  }
}

std::string MultiTenantWorkload::describe() const {
  std::ostringstream os;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    if (t != 0) os << '+';
    os << to_string(tenants_[t]);
  }
  return os.str();
}

std::unique_ptr<sim::TrafficSource> MultiTenantWorkload::instantiate(
    const Context& ctx) const {
  return std::make_unique<MultiTenantSource>(*ctx.topo, tenants_, ctx.load,
                                             ctx.packet_flits, ctx.seed);
}

// ---- TransientHotspotWorkload ---------------------------------------------

std::string TransientHotspotWorkload::describe() const {
  std::ostringstream os;
  os << cfg_.hot_endpoints << " hot endpoints, window [" << cfg_.begin
     << ", " << cfg_.end << "), fraction " << cfg_.hot_fraction;
  return os.str();
}

std::unique_ptr<sim::TrafficSource> TransientHotspotWorkload::instantiate(
    const Context& ctx) const {
  return std::make_unique<HotspotSource>(*ctx.topo, cfg_, ctx.load,
                                         ctx.packet_flits, ctx.seed);
}

std::vector<Mark> TransientHotspotWorkload::marks(const Context& ctx) const {
  std::vector<Mark> out;
  if (cfg_.begin < ctx.horizon) out.push_back(Mark{cfg_.begin, "hotspot on"});
  if (cfg_.end < ctx.horizon) out.push_back(Mark{cfg_.end, "hotspot off"});
  return out;
}

// ---- CollectiveWorkload ---------------------------------------------------

const char* to_string(CollectiveSchedule s) {
  switch (s) {
    case CollectiveSchedule::kRecursiveDoubling: return "recursive-doubling";
    case CollectiveSchedule::kRing: return "ring";
  }
  return "?";
}

std::string CollectiveWorkload::describe() const {
  std::ostringstream os;
  os << to_string(cfg_.schedule) << ", " << cfg_.phase_cycles
     << " cycles/phase";
  return os.str();
}

std::unique_ptr<sim::TrafficSource> CollectiveWorkload::instantiate(
    const Context& ctx) const {
  return std::make_unique<CollectiveSource>(*ctx.topo, cfg_, ctx.load,
                                            ctx.packet_flits, ctx.seed);
}

std::vector<Mark> CollectiveWorkload::marks(const Context& ctx) const {
  std::vector<Mark> out;
  if (cfg_.phase_cycles == 0) return out;
  for (std::uint64_t c = cfg_.phase_cycles; c < ctx.horizon;
       c += cfg_.phase_cycles) {
    out.push_back(Mark{c, "collective phase"});
  }
  return out;
}

// ---- CombinedWorkload -----------------------------------------------------

CombinedWorkload::CombinedWorkload(std::string name,
                                   std::vector<Member> members)
    : name_(std::move(name)), members_(std::move(members)) {
  if (members_.empty()) {
    throw std::invalid_argument("combined workload: no members");
  }
  double total = 0.0;
  for (const Member& m : members_) {
    if (m.workload == nullptr) {
      throw std::invalid_argument("combined workload: null member");
    }
    if (m.weight < 0.0) {
      throw std::invalid_argument("combined workload: negative weight");
    }
    total += m.weight;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("combined workload: zero total weight");
  }
  for (Member& m : members_) m.weight /= total;
}

std::string CombinedWorkload::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != 0) os << " + ";
    os << members_[i].workload->name() << " x" << members_[i].weight;
  }
  return os.str();
}

std::unique_ptr<sim::TrafficSource> CombinedWorkload::instantiate(
    const Context& ctx) const {
  std::vector<std::unique_ptr<sim::TrafficSource>> sources;
  sources.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Context sub = ctx;
    sub.load = ctx.load * members_[i].weight;
    // Golden-ratio stride decorrelates member RNG streams while keeping
    // the mix a pure function of the point's seed.
    sub.seed = ctx.seed + (i + 1) * 0x9E3779B97F4A7C15ull;
    sources.push_back(members_[i].workload->instantiate(sub));
  }
  return std::make_unique<CombinedSource>(std::move(sources));
}

std::vector<Mark> CombinedWorkload::marks(const Context& ctx) const {
  std::vector<Mark> out;
  for (const Member& m : members_) {
    auto sub = m.workload->marks(ctx);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Mark& a, const Mark& b) {
                     return a.cycle < b.cycle;
                   });
  return out;
}

std::shared_ptr<const Workload> make_stress_workload(IncastConfig incast) {
  std::vector<CombinedWorkload::Member> members;
  members.push_back(
      {std::make_shared<PatternWorkload>(sim::Pattern::kAdversarial), 0.6});
  members.push_back({std::make_shared<IncastWorkload>(incast), 0.4});
  return std::make_shared<CombinedWorkload>("stress", std::move(members));
}

}  // namespace polarstar::workload
