// Closed-loop collective engine: schedules broadcast / reduce / allreduce
// over a PolarStar's edge-disjoint spanning trees, or over classic unicast
// algorithms (binomial tree, recursive doubling, ring) for comparison.
//
// The engine is a sim::TrafficSource. Every collective "hop" is a plain
// single-hop unicast between neighboring routers' endpoints: a packet is
// enqueued at the child's endpoint, minimal-routed (one hop -- at distance
// 1 the strict-distance-decrease rule admits exactly the destination, so
// minimal routing provably uses the tree link), and its delivery triggers
// the next replication / combining step from on_delivered. This
// store-and-forward model keeps the engine entirely outside the router
// datapath: no flit replication in switches, no VC changes, and therefore
// the existing bit-identity contracts (threads x reference_impl) hold for
// free -- tick() runs in the injection phase and on_delivered() in the
// end-of-cycle finalize pass, in router order, in both engines. The price is store-and-forward latency per tree level,
// which is the honest cost of an endpoint-level collective; in-switch
// wormhole replication is future work (documented in docs/THEORY.md).
//
// EDST scheduling: chunk c travels on tree (c mod k), so the k disjoint
// trees carry k chunks concurrently on disjoint link sets -- the
// bandwidth-optimality argument of arXiv 2403.12231. The unicast
// algorithms move every chunk over point-to-point routes (MIN or UGAL,
// whatever the SimParams say) with the usual MPI-style schedules.
//
// Determinism: the engine never touches the simulator RNG; all schedules
// are pure functions of (topology, spec, chunks). Closed-loop sources are
// outside the TraceRecorder record/replay contract (see workload.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "collective/edst.h"
#include "sim/simulation.h"
#include "topo/topology.h"
#include "workload/workload.h"

namespace polarstar::collective {

enum class Op { kBroadcast, kReduce, kAllreduce };
enum class Algorithm { kEdst, kBinomial, kRecursiveDoubling, kRing };

const char* to_string(Op op);
const char* to_string(Algorithm a);

struct CollectiveSpec {
  Op op = Op::kBroadcast;
  Algorithm algorithm = Algorithm::kEdst;
  /// Root rank (ranks = endpoint-carrying routers in router-id order).
  std::uint32_t root = 0;
};

/// One rank per endpoint-carrying router (indirect topologies' switch-only
/// routers do not participate). kEdst additionally requires EVERY router
/// to carry endpoints, so rank id == router id and the trees' interior
/// vertices can forward.
class CollectiveEngine final : public sim::TrafficSource {
 public:
  /// `trees` is required for Algorithm::kEdst (at least one tree) and
  /// ignored otherwise. The topology must outlive the engine.
  CollectiveEngine(const topo::Topology& topo, const CollectiveSpec& spec,
                   std::uint32_t chunks,
                   std::shared_ptr<const EdstSet> trees = nullptr);

  void tick(sim::Simulation& sim) override;
  void on_delivered(sim::Simulation& sim,
                    const sim::PacketRecord& pkt) override;
  bool finished(const sim::Simulation& sim) const override;
  sim::SourceReport report() const override;

  std::uint32_t num_ranks() const {
    return static_cast<std::uint32_t>(ranks_.size());
  }
  std::uint32_t num_trees() const {
    return static_cast<std::uint32_t>(trees_.size());
  }
  std::uint64_t expected_deliveries() const { return expected_; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t packets_sent() const { return sent_; }
  /// Cycle the last expected delivery landed (0 until then).
  std::uint64_t completion_cycle() const { return done_cycle_; }
  /// Allreduce/reduce: cycle the root held the fully reduced value.
  std::uint64_t reduce_done_cycle() const { return reduce_done_cycle_; }

 private:
  struct Send {
    std::uint64_t src_ep = 0, dst_ep = 0, tag = 0;
  };

  void start(sim::Simulation& sim);
  void pend(graph::Vertex from_router, graph::Vertex to_router,
            std::uint64_t tag);
  void note_delivery(sim::Simulation& sim);

  // -- per-algorithm schedules (rank-space helpers in engine.cpp) --
  void edst_start();
  void edst_on(sim::Simulation& sim, std::uint64_t tag,
               graph::Vertex at_router);
  void binomial_start();
  void binomial_on(sim::Simulation& sim, std::uint64_t tag,
                   graph::Vertex at_router);
  void rd_start();
  void rd_on(sim::Simulation& sim, std::uint64_t tag, graph::Vertex at_router);
  void rd_enter(std::uint32_t rank);
  void rd_advance(std::uint32_t rank);
  void rd_finish(std::uint32_t rank);
  void ring_start();
  void ring_on(sim::Simulation& sim, std::uint64_t tag,
               graph::Vertex at_router);

  const topo::Topology* topo_;
  CollectiveSpec spec_;
  std::uint32_t chunks_;
  std::shared_ptr<const EdstSet> edsts_;  // keeps the tree storage alive
  std::vector<RootedTree> trees_;         // rooted at the root rank's router

  std::vector<graph::Vertex> ranks_;          // rank -> router
  std::vector<std::uint32_t> rank_of_router_;  // router -> rank (or invalid)

  std::vector<Send> pending_;
  bool started_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t expected_ = 0;
  std::uint64_t done_cycle_ = 0;
  std::uint64_t reduce_done_cycle_ = 0;
  std::uint64_t start_cycle_ = 0;

  // edst reduce: outstanding child contributions per (chunk, router);
  // shared root-side chunk counter (edst / binomial / ring reductions).
  std::vector<std::uint32_t> tree_need_;
  std::uint32_t root_chunks_done_ = 0;
  // binomial reduce: received contributions per (rank, chunk).
  std::vector<std::uint32_t> bin_up_recv_;
  // recursive doubling.
  std::uint32_t rd_p2_ = 0, rd_rem_ = 0, rd_rounds_ = 0;
  std::vector<std::uint32_t> rd_round_;      // next round awaited (per rank)
  std::vector<std::uint32_t> rd_fold_recv_;  // fold chunks received
  std::vector<std::vector<std::uint32_t>> rd_recv_;  // [rank][round] counts
};

/// Workload wrapper: `load` is reinterpreted as the chunk count (>= 1
/// after rounding), one chunk = one packet of ctx.packet_flits flits per
/// hop. app_cycle_cap() switches the runner to closed-loop completion
/// runs. For kEdst the factory computes (and caches) the EDSTs of the
/// PolarStar instance passed at construction.
class CollectiveScenario final : public workload::Workload {
 public:
  /// Unicast algorithms: any topology.
  explicit CollectiveScenario(const CollectiveSpec& spec);
  /// kEdst over precomputed trees (also usable with packed_edsts trees on
  /// non-star-product topologies).
  CollectiveScenario(const CollectiveSpec& spec,
                     std::shared_ptr<const EdstSet> trees);

  std::string name() const override;
  std::string describe() const override;
  std::unique_ptr<sim::TrafficSource> instantiate(
      const workload::Context& ctx) const override;
  std::uint64_t app_cycle_cap(const workload::Context& ctx) const override;

 private:
  CollectiveSpec spec_;
  std::shared_ptr<const EdstSet> trees_;
};

}  // namespace polarstar::collective
