#include "workload/generators.h"

#include <algorithm>
#include <random>
#include <sstream>
#include <stdexcept>

#include "sim/simulation.h"

namespace polarstar::workload {

namespace {

/// Shared base for the Bernoulli-injecting scenario sources: one RNG, one
/// coin per endpoint per cycle, destination picked by the subclass. The
/// coin is always drawn (even at probability 0) so composed scenarios keep
/// their RNG streams aligned across parameter changes.
class BernoulliSource : public sim::TrafficSource {
 public:
  BernoulliSource(const topo::Topology& topo, double load,
                  std::uint32_t packet_flits, std::uint64_t seed)
      : topo_(&topo),
        packet_probability_(load / packet_flits),
        rng_(seed) {
    if (topo.num_endpoints() == 0) {
      throw std::invalid_argument("workload: no endpoints");
    }
  }

  void tick(sim::Simulation& sim) override {
    const std::uint64_t eps = topo_->num_endpoints();
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (std::uint64_t e = 0; e < eps; ++e) {
      if (coin(rng_) >= probability(e, sim.cycle())) continue;
      const std::uint64_t dst = destination(e, sim.cycle());
      if (dst == kNone || dst == e) continue;
      sim.enqueue_packet(e, dst);
    }
  }

 protected:
  static constexpr std::uint64_t kNone = ~0ull;

  /// Per-endpoint injection probability this cycle (default: the offered
  /// load, time-invariant).
  virtual double probability(std::uint64_t /*src*/, std::uint64_t /*cycle*/) {
    return packet_probability_;
  }
  virtual std::uint64_t destination(std::uint64_t src,
                                    std::uint64_t cycle) = 0;

  const topo::Topology* topo_;
  double packet_probability_;
  std::mt19937_64 rng_;
};

// ---- incast ---------------------------------------------------------------

class IncastSource final : public BernoulliSource {
 public:
  IncastSource(const topo::Topology& topo, const IncastConfig& cfg,
               double load, std::uint32_t packet_flits, std::uint64_t seed)
      : BernoulliSource(topo, load, packet_flits, seed), cfg_(cfg) {
    const std::uint64_t eps = topo.num_endpoints();
    victims_ = std::max<std::uint32_t>(
        1, std::min<std::uint64_t>(cfg_.victims, eps));
    // Victim v is endpoint v * eps / victims: spread across the machine so
    // the fan-in crosses groups rather than melting one router.
    for (std::uint32_t v = 0; v < victims_; ++v) {
      victim_eps_.push_back(v * eps / victims_);
    }
    background_p_ = packet_probability_ * (1.0 - cfg_.burst_fraction);
    // The incast share is delivered only during the burst window, scaled so
    // the time average over one period still equals the offered share.
    const double duty =
        cfg_.burst == 0 ? 0.0
                        : static_cast<double>(cfg_.period) /
                              static_cast<double>(cfg_.burst);
    burst_p_ = std::min(1.0, packet_probability_ * cfg_.burst_fraction * duty);
  }

 private:
  bool in_burst(std::uint64_t cycle) const {
    return cfg_.period != 0 && cycle % cfg_.period < cfg_.burst;
  }

  double probability(std::uint64_t /*src*/, std::uint64_t cycle) override {
    return in_burst(cycle) ? background_p_ + burst_p_ : background_p_;
  }

  std::uint64_t destination(std::uint64_t src, std::uint64_t cycle) override {
    const std::uint64_t eps = topo_->num_endpoints();
    if (in_burst(cycle)) {
      // Split this endpoint's draw between background and incast in
      // proportion to their probabilities.
      const double total = background_p_ + burst_p_;
      std::uniform_real_distribution<double> pick(0.0, 1.0);
      if (total > 0.0 && pick(rng_) < burst_p_ / total) {
        return victim_eps_[src % victims_];
      }
    }
    std::uint64_t dst = rng_() % (eps - 1);
    if (dst >= src) ++dst;
    return dst;
  }

  IncastConfig cfg_;
  std::uint32_t victims_ = 1;
  std::vector<std::uint64_t> victim_eps_;
  double background_p_ = 0.0;
  double burst_p_ = 0.0;
};

// ---- multi-tenant ---------------------------------------------------------

class MultiTenantSource final : public BernoulliSource {
 public:
  MultiTenantSource(const topo::Topology& topo,
                    const std::vector<TenantPattern>& tenants, double load,
                    std::uint32_t packet_flits, std::uint64_t seed)
      : BernoulliSource(topo, load, packet_flits, seed), patterns_(tenants) {
    const std::uint64_t eps = topo.num_endpoints();
    const std::size_t T = tenants.size();
    if (eps < T) {
      throw std::invalid_argument("multi-tenant: fewer endpoints than tenants");
    }
    base_ = eps / T;
    // Fixed per-tenant permutations / hot members, drawn up front in tenant
    // order so the layout is a pure function of the seed.
    perm_.resize(T);
    hot_.assign(T, 0);
    for (std::size_t t = 0; t < T; ++t) {
      const std::uint64_t size = block_size(t);
      if (patterns_[t] == TenantPattern::kPermutation) {
        perm_[t].resize(size);
        for (std::uint64_t i = 0; i < size; ++i) perm_[t][i] = i;
        std::shuffle(perm_[t].begin(), perm_[t].end(), rng_);
      } else if (patterns_[t] == TenantPattern::kHotspot) {
        hot_[t] = rng_() % size;
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

  std::uint64_t destination(std::uint64_t src, std::uint64_t /*cycle*/)
      override {
    const std::size_t t =
        std::min<std::uint64_t>(src / base_, patterns_.size() - 1);
    const std::uint64_t n = block_size(t);
    if (n < 2) return kNone;
    const std::uint64_t local = src - t * base_;
    std::uint64_t out = kNone;
    switch (patterns_[t]) {
      case TenantPattern::kUniform: {
        out = rng_() % (n - 1);
        if (out >= local) ++out;
        break;
      }
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
    if (out == kNone || out == local) return kNone;
    return t * base_ + out;
  }

  std::vector<TenantPattern> patterns_;
  std::uint64_t base_ = 0;  ///< size of every block but the last
  std::vector<std::vector<std::uint64_t>> perm_;
  std::vector<std::uint64_t> hot_;
};

// ---- transient hotspot ----------------------------------------------------

class HotspotSource final : public BernoulliSource {
 public:
  HotspotSource(const topo::Topology& topo, const HotspotConfig& cfg,
                double load, std::uint32_t packet_flits, std::uint64_t seed)
      : BernoulliSource(topo, load, packet_flits, seed), cfg_(cfg) {
    const std::uint64_t eps = topo.num_endpoints();
    const std::uint32_t hots = std::max<std::uint32_t>(
        1, std::min<std::uint64_t>(cfg_.hot_endpoints, eps));
    for (std::uint32_t h = 0; h < hots; ++h) {
      hot_.push_back(h * eps / hots);
    }
  }

 private:
  std::uint64_t destination(std::uint64_t src, std::uint64_t cycle) override {
    const std::uint64_t eps = topo_->num_endpoints();
    if (cycle >= cfg_.begin && cycle < cfg_.end) {
      std::uniform_real_distribution<double> pick(0.0, 1.0);
      if (pick(rng_) < cfg_.hot_fraction) {
        return hot_[rng_() % hot_.size()];
      }
    }
    std::uint64_t dst = rng_() % (eps - 1);
    if (dst >= src) ++dst;
    return dst;
  }

  HotspotConfig cfg_;
  std::vector<std::uint64_t> hot_;
};

// ---- collective -----------------------------------------------------------

class CollectiveSource final : public BernoulliSource {
 public:
  CollectiveSource(const topo::Topology& topo, const CollectiveConfig& cfg,
                   double load, std::uint32_t packet_flits,
                   std::uint64_t seed)
      : BernoulliSource(topo, load, packet_flits, seed), cfg_(cfg) {
    const std::uint64_t eps = topo.num_endpoints();
    ranks_ = 1;
    while (ranks_ * 2 <= eps) ranks_ *= 2;
    log_ranks_ = 0;
    while ((1ull << log_ranks_) < ranks_) ++log_ranks_;
  }

 private:
  std::uint64_t destination(std::uint64_t src, std::uint64_t cycle) override {
    if (src >= ranks_ || ranks_ < 2) return kNone;  // non-ranks idle
    switch (cfg_.schedule) {
      case CollectiveSchedule::kRecursiveDoubling: {
        // log_ranks_ phases, like the allreduce: partner stays < ranks_.
        const std::uint64_t phase =
            cfg_.phase_cycles == 0
                ? 0
                : (cycle / cfg_.phase_cycles) % log_ranks_;
        return src ^ (1ull << phase);
      }
      case CollectiveSchedule::kRing:
        return (src + 1) % ranks_;
    }
    return kNone;
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

std::unique_ptr<sim::TrafficSource> IncastWorkload::instantiate(
    const Context& ctx) const {
  return std::make_unique<IncastSource>(*ctx.topo, cfg_, ctx.load,
                                        ctx.packet_flits, ctx.seed);
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
