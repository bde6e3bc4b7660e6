#include "collective/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace polarstar::collective {

using graph::Vertex;

namespace {

// Tags carry the whole schedule state: bit 63 marks engine traffic, low
// byte is the step kind, bits 8..23 the tree index / exchange round, bits
// 24..55 the chunk id.
enum Kind : std::uint64_t {
  kTreeDown = 1,
  kTreeUp = 2,
  kRdFold = 3,
  kRdExchange = 4,
  kRdUnfold = 5,
};

constexpr std::uint64_t kTagFlag = 1ull << 63;
constexpr std::uint32_t kInactive = 0xFFFFFFFFu;

std::uint64_t make_tag(Kind kind, std::uint32_t meta, std::uint32_t chunk) {
  return kTagFlag | (static_cast<std::uint64_t>(chunk) << 24) |
         (static_cast<std::uint64_t>(meta) << 8) |
         static_cast<std::uint64_t>(kind);
}
Kind tag_kind(std::uint64_t tag) { return static_cast<Kind>(tag & 0xFF); }
std::uint32_t tag_meta(std::uint64_t tag) {
  return static_cast<std::uint32_t>((tag >> 8) & 0xFFFF);
}
std::uint32_t tag_chunk(std::uint64_t tag) {
  return static_cast<std::uint32_t>((tag >> 24) & 0xFFFFFFFFu);
}

std::uint32_t pow2_floor(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

// The binomial or ring tree over the ranks in virtual-rank order vr =
// (rank - root) mod R: vr > 0 hangs under vr - 1 (ring) or vr minus its
// top set bit (binomial), so children lists come out in ascending vr.
// Routers without endpoints stay outside the tree.
RootedTree rank_tree(const std::vector<Vertex>& ranks, std::uint32_t root,
                     Vertex n, bool ring) {
  const auto R = static_cast<std::uint32_t>(ranks.size());
  const auto router = [&](std::uint32_t vr) { return ranks[(vr + root) % R]; };
  RootedTree t;
  t.root = router(0);
  t.parent.assign(n, n);  // n = outside the tree
  t.children.assign(n, {});
  t.parent[t.root] = t.root;
  for (std::uint32_t vr = 1; vr < R; ++vr) {
    const std::uint32_t up = ring ? vr - 1 : vr - pow2_floor(vr);
    t.parent[router(vr)] = router(up);
    t.children[router(up)].push_back(router(vr));
  }
  return t;
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kBroadcast: return "broadcast";
    case Op::kReduce: return "reduce";
    case Op::kAllreduce: return "allreduce";
  }
  return "?";
}

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kEdst: return "edst";
    case Algorithm::kBinomial: return "binomial";
    case Algorithm::kRecursiveDoubling: return "recdoub";
    case Algorithm::kRing: return "ring";
  }
  return "?";
}

CollectiveEngine::CollectiveEngine(const topo::Topology& topo,
                                   const CollectiveSpec& spec,
                                   std::uint32_t chunks,
                                   std::shared_ptr<const EdstSet> trees)
    : topo_(&topo), spec_(spec), chunks_(std::max<std::uint32_t>(1, chunks)),
      edsts_(std::move(trees)) {
  const Vertex n = topo.num_routers();
  rank_of_router_.assign(n, kInactive);
  for (Vertex r = 0; r < n; ++r) {
    if (topo.conc[r] > 0) {
      rank_of_router_[r] = static_cast<std::uint32_t>(ranks_.size());
      ranks_.push_back(r);
    }
  }
  const auto R = static_cast<std::uint32_t>(ranks_.size());
  if (R == 0) {
    throw std::invalid_argument("CollectiveEngine: no endpoint routers");
  }
  if (spec_.root >= R) {
    throw std::invalid_argument("CollectiveEngine: root rank out of range");
  }
  if (spec_.algorithm == Algorithm::kEdst) {
    if (edsts_ == nullptr || edsts_->trees.empty()) {
      throw std::invalid_argument("CollectiveEngine: kEdst needs trees");
    }
    if (R != n) {
      throw std::invalid_argument(
          "CollectiveEngine: kEdst needs endpoints on every router");
    }
    const Vertex root_router = ranks_[spec_.root];
    trees_.reserve(edsts_->trees.size());
    for (const auto& t : edsts_->trees) {
      trees_.push_back(root_tree(t, n, root_router));
    }
  }
  if (spec_.algorithm == Algorithm::kBinomial ||
      spec_.algorithm == Algorithm::kRing) {
    trees_.push_back(rank_tree(ranks_, spec_.root, n,
                               spec_.algorithm == Algorithm::kRing));
  }
  if (spec_.algorithm == Algorithm::kRecursiveDoubling &&
      spec_.op != Op::kAllreduce) {
    throw std::invalid_argument(
        "CollectiveEngine: recursive doubling is allreduce-only");
  }

  const std::uint64_t per_phase =
      static_cast<std::uint64_t>(chunks_) * (R - 1);
  switch (spec_.algorithm) {
    case Algorithm::kEdst:
    case Algorithm::kBinomial:
    case Algorithm::kRing:
      expected_ = spec_.op == Op::kAllreduce ? 2 * per_phase : per_phase;
      break;
    case Algorithm::kRecursiveDoubling: {
      rd_p2_ = pow2_floor(R);
      rd_rem_ = R - rd_p2_;
      rd_rounds_ = 0;
      for (std::uint32_t p = rd_p2_; p > 1; p /= 2) ++rd_rounds_;
      expected_ = static_cast<std::uint64_t>(chunks_) *
                  (2ull * rd_rem_ +
                   static_cast<std::uint64_t>(rd_p2_) * rd_rounds_);
      break;
    }
  }
}

void CollectiveEngine::pend(Vertex from_router, Vertex to_router,
                            std::uint64_t tag) {
  pending_.push_back({topo_->first_endpoint(from_router),
                      topo_->first_endpoint(to_router), tag});
}

void CollectiveEngine::note_delivery(sim::Simulation& sim) {
  ++deliveries_;
  if (deliveries_ == expected_) done_cycle_ = sim.cycle();
}

void CollectiveEngine::tick(sim::Simulation& sim) {
  if (!started_) {
    started_ = true;
    start_cycle_ = sim.cycle();
    start(sim);
  }
  for (const auto& s : pending_) {
    sim.enqueue_packet(s.src_ep, s.dst_ep, s.tag);
    ++sent_;
  }
  pending_.clear();
}

void CollectiveEngine::start(sim::Simulation& sim) {
  if (expected_ == 0) {
    done_cycle_ = sim.cycle();
    return;
  }
  if (spec_.algorithm == Algorithm::kRecursiveDoubling) {
    rd_start();
  } else {
    tree_start();
  }
}

void CollectiveEngine::on_delivered(sim::Simulation& sim,
                                    const sim::PacketRecord& pkt) {
  if ((pkt.tag & kTagFlag) == 0) return;
  note_delivery(sim);
  switch (tag_kind(pkt.tag)) {
    case kTreeDown:
    case kTreeUp:
      tree_on(sim, pkt.tag, pkt.dst_router);
      break;
    case kRdFold:
    case kRdExchange:
    case kRdUnfold:
      rd_on(sim, pkt.tag, pkt.dst_router);
      break;
  }
}

bool CollectiveEngine::finished(const sim::Simulation& sim) const {
  (void)sim;
  return started_ && deliveries_ == expected_ && pending_.empty();
}

// ---------------------------------------------------------------- tree --
// Chunk c travels on tree (c mod k). The root releases chunk c to all of
// its children before chunk c + 1 (chunk-major), in broadcast and in the
// allreduce rebroadcast alike; reduction leaves release their chunks rank
// by rank.

void CollectiveEngine::tree_start() {
  const Vertex n = topo_->num_routers();
  const Vertex root = ranks_[spec_.root];
  const auto k = static_cast<std::uint32_t>(trees_.size());
  if (spec_.op == Op::kBroadcast) {
    for (std::uint32_t c = 0; c < chunks_; ++c) {
      const std::uint32_t m = c % k;
      for (Vertex child : trees_[m].children[root]) {
        pend(root, child, make_tag(kTreeDown, m, c));
      }
    }
    return;
  }
  // Reduction: leaves contribute immediately; interior ranks forward up
  // once every child's contribution for the chunk has been combined.
  tree_need_.assign(static_cast<std::size_t>(chunks_) * n, 0);
  for (Vertex v : ranks_) {
    for (std::uint32_t c = 0; c < chunks_; ++c) {
      const std::uint32_t m = c % k;
      const auto need =
          static_cast<std::uint32_t>(trees_[m].children[v].size());
      tree_need_[static_cast<std::size_t>(c) * n + v] = need;
      if (need == 0 && v != root) {
        pend(v, trees_[m].parent[v], make_tag(kTreeUp, m, c));
      }
    }
  }
}

void CollectiveEngine::tree_on(sim::Simulation& sim, std::uint64_t tag,
                               Vertex at_router) {
  const std::uint32_t c = tag_chunk(tag);
  const std::uint32_t m = tag_meta(tag);
  const Vertex root = ranks_[spec_.root];
  if (tag_kind(tag) == kTreeDown) {
    for (Vertex child : trees_[m].children[at_router]) {
      pend(at_router, child, tag);
    }
    return;
  }
  // kTreeUp landed at the parent: one more child combined there.
  const Vertex n = topo_->num_routers();
  auto& need = tree_need_[static_cast<std::size_t>(c) * n + at_router];
  if (--need != 0) return;
  if (at_router != root) {
    pend(at_router, trees_[m].parent[at_router], make_tag(kTreeUp, m, c));
    return;
  }
  if (++root_chunks_done_ == chunks_) reduce_done_cycle_ = sim.cycle();
  if (spec_.op == Op::kAllreduce) {
    for (Vertex child : trees_[m].children[root]) {
      pend(root, child, make_tag(kTreeDown, m, c));
    }
  }
}

// -------------------------------------------------- recursive doubling --
// MPICH-style allreduce: the R - p2 "extra" ranks fold their vector into a
// power-of-two partner, the p2 survivors run log2(p2) pairwise exchange
// rounds (full payload each round), then the extras get the result back.
// A rank buffers exchange packets that arrive for future rounds (its
// partner's subcube may run ahead) and advances as rounds complete.

void CollectiveEngine::rd_start() {
  const auto R = num_ranks();
  const auto rank_of = [&](std::uint32_t vr) { return (vr + spec_.root) % R; };
  rd_round_.assign(R, kInactive);
  rd_fold_recv_.assign(R, 0);
  rd_recv_.assign(R, std::vector<std::uint32_t>(rd_rounds_, 0));
  for (std::uint32_t vr = rd_p2_; vr < R; ++vr) {
    for (std::uint32_t c = 0; c < chunks_; ++c) {
      pend(ranks_[rank_of(vr)], ranks_[rank_of(vr - rd_p2_)],
           make_tag(kRdFold, 0, c));
    }
  }
  for (std::uint32_t vr = rd_rem_; vr < rd_p2_; ++vr) {
    rd_enter(rank_of(vr));
  }
}

void CollectiveEngine::rd_enter(std::uint32_t rank) {
  const auto R = num_ranks();
  const std::uint32_t vr = (rank + R - spec_.root) % R;
  if (rd_rounds_ == 0) {
    rd_finish(rank);
    return;
  }
  rd_round_[rank] = 0;
  const std::uint32_t partner = ((vr ^ 1u) + spec_.root) % R;
  for (std::uint32_t c = 0; c < chunks_; ++c) {
    pend(ranks_[rank], ranks_[partner], make_tag(kRdExchange, 0, c));
  }
  rd_advance(rank);
}

void CollectiveEngine::rd_advance(std::uint32_t rank) {
  const auto R = num_ranks();
  const std::uint32_t vr = (rank + R - spec_.root) % R;
  while (rd_round_[rank] < rd_rounds_ &&
         rd_recv_[rank][rd_round_[rank]] == chunks_) {
    const std::uint32_t next = ++rd_round_[rank];
    if (next == rd_rounds_) {
      rd_finish(rank);
      return;
    }
    const std::uint32_t partner = ((vr ^ (1u << next)) + spec_.root) % R;
    for (std::uint32_t c = 0; c < chunks_; ++c) {
      pend(ranks_[rank], ranks_[partner], make_tag(kRdExchange, next, c));
    }
  }
}

void CollectiveEngine::rd_finish(std::uint32_t rank) {
  const auto R = num_ranks();
  const std::uint32_t vr = (rank + R - spec_.root) % R;
  if (vr < rd_rem_) {
    const std::uint32_t extra = ((vr + rd_p2_) + spec_.root) % R;
    for (std::uint32_t c = 0; c < chunks_; ++c) {
      pend(ranks_[rank], ranks_[extra], make_tag(kRdUnfold, 0, c));
    }
  }
}

void CollectiveEngine::rd_on(sim::Simulation& sim, std::uint64_t tag,
                             Vertex at_router) {
  (void)sim;
  const std::uint32_t rank = rank_of_router_[at_router];
  switch (tag_kind(tag)) {
    case kRdFold:
      if (++rd_fold_recv_[rank] == chunks_) rd_enter(rank);
      break;
    case kRdExchange: {
      const std::uint32_t round = tag_meta(tag);
      ++rd_recv_[rank][round];
      if (rd_round_[rank] != kInactive) rd_advance(rank);
      break;
    }
    default:  // kRdUnfold terminates at the extra rank
      break;
  }
}

// -------------------------------------------------------------- report --

sim::SourceReport CollectiveEngine::report() const {
  sim::SourceReport rep;
  std::string j = "{";
  j += "\"op\": \"" + std::string(to_string(spec_.op)) + "\"";
  j += ", \"algorithm\": \"" + std::string(to_string(spec_.algorithm)) + "\"";
  j += ", \"ranks\": " + std::to_string(num_ranks());
  j += ", \"trees\": " + std::to_string(num_trees());
  j += ", \"chunks\": " + std::to_string(chunks_);
  j += ", \"packets_sent\": " + std::to_string(sent_);
  j += ", \"expected_deliveries\": " + std::to_string(expected_);
  j += ", \"deliveries\": " + std::to_string(deliveries_);
  j += ", \"reduce_done_cycle\": " + std::to_string(reduce_done_cycle_);
  j += ", \"completion_cycle\": " + std::to_string(done_cycle_);
  j += "}";
  rep.collective_json = std::move(j);
  if (started_) rep.marks.push_back({start_cycle_, "collective:start"});
  if (reduce_done_cycle_ != 0) {
    rep.marks.push_back({reduce_done_cycle_, "collective:reduce-done"});
  }
  if (deliveries_ == expected_ && started_) {
    rep.marks.push_back({done_cycle_, "collective:done"});
  }
  return rep;
}

// ------------------------------------------------------------ scenario --

CollectiveScenario::CollectiveScenario(const CollectiveSpec& spec)
    : spec_(spec) {}

CollectiveScenario::CollectiveScenario(const CollectiveSpec& spec,
                                       std::shared_ptr<const EdstSet> trees)
    : spec_(spec), trees_(std::move(trees)) {}

std::string CollectiveScenario::name() const {
  return std::string("collective-") + to_string(spec_.algorithm);
}

std::string CollectiveScenario::describe() const {
  std::string d = std::string("op=") + to_string(spec_.op) +
                  " root=" + std::to_string(spec_.root);
  if (trees_ != nullptr) {
    d += " trees=" + std::to_string(trees_->trees.size());
  }
  return d;
}

std::unique_ptr<sim::TrafficSource> CollectiveScenario::instantiate(
    const workload::Context& ctx) const {
  const auto chunks = static_cast<std::uint32_t>(
      std::max<long long>(1, std::llround(ctx.load)));
  return std::make_unique<CollectiveEngine>(*ctx.topo, spec_, chunks, trees_);
}

std::uint64_t CollectiveScenario::app_cycle_cap(
    const workload::Context& ctx) const {
  (void)ctx;
  return 4'000'000;
}

}  // namespace polarstar::collective
