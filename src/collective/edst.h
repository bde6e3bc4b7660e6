// Edge-disjoint spanning trees (EDSTs) on star products -- the explicit
// composition of "Edge-Disjoint Spanning Trees on Star-Product Networks"
// (Dawkins, Isham, Kubicek, Lakhotia, Monroe 2024, arXiv 2403.12231),
// specialized to PolarStar = ER_q * G'.
//
// Given s EDSTs S_1..S_s of the structure graph G = ER_q and t EDSTs
// T'_1..T'_t of the supernode G', the composition builds EDSTs of the
// product from two shapes:
//
//  - B-tree (one per structure EDST S_j): ALL inter-supernode matching
//    edges along S_j's structure edges. Every product vertex (x, xp) has
//    exactly one such edge per S_j-edge at x, so the set is a forest of
//    exactly n' components, each holding exactly one vertex of a chosen
//    root copy r_j. One "connector" spanning tree C of G' placed inside
//    copy r_j joins them into a spanning tree. Distinct roots keep the
//    connectors of different B-trees edge-disjoint.
//  - A-tree (one per supernode EDST T'_i): a copy of T'_i inside EVERY
//    supernode, joined across supernodes by one matching edge per edge of
//    a structure spanning tree T, using the distinct label representative
//    xp = i per A-tree (so A-trees never share a matching edge).
//
// Collision rules: T must be edge-disjoint from the S_j the B-trees use
// and C edge-disjoint from the T'_i the A-trees use. Both are first sought
// among the factor packings' leftover edges; when the leftovers do not
// span, the last factor tree is reserved for the role (dropping one
// B-/A-tree). Hence the construction is guaranteed to produce at least
// s + t - 2 EDSTs, and s + t whenever both leftovers span -- the paper's
// bound for star products. A final greedy packing over the still-unused
// product edges (including ER_q's quadric loop-matchings, which the
// composition never touches) can exceed the bound; callers report when it
// does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/polarstar.h"
#include "graph/graph.h"

namespace polarstar::collective {

/// One spanning tree as an explicit edge list of size n - 1.
using TreeEdges = std::vector<graph::Edge>;

struct EdstSet {
  std::vector<TreeEdges> trees;
  /// s: EDSTs greedily packed in the structure graph ER_q.
  std::size_t structure_trees = 0;
  /// t: EDSTs greedily packed in the supernode G'.
  std::size_t supernode_trees = 0;
  /// Trees from the star-product composition (B-trees + A-trees).
  std::size_t composed_trees = 0;
  /// Extra trees greedily packed from the residual product edges.
  std::size_t augmented_trees = 0;
  /// The construction guarantee s + t - reserved, where reserved counts
  /// the factor trees consumed as the structure join T / connector C
  /// (0 when both factor leftovers span, at most 2).
  std::size_t guaranteed = 0;
};

/// Star-product EDST composition for a PolarStar instance. Deterministic
/// for a seed (it shuffles the factor packings). `augment` additionally
/// packs the residual product edges greedily.
EdstSet polarstar_edsts(const core::PolarStar& ps, bool augment = true,
                        std::uint64_t seed = 1);

/// Generic fallback for non-star-product topologies: greedy packing on the
/// whole graph (analysis::pack_spanning_trees) wrapped in the EdstSet
/// shape, so benches can compare like for like.
EdstSet packed_edsts(const graph::Graph& g, std::uint64_t seed = 1);

struct EdstCheck {
  bool ok = false;
  std::string error;  // empty iff ok
};

/// Proves the EDST properties: every tree has exactly n - 1 edges that all
/// exist in g, is acyclic and connected (spans), and no undirected edge
/// appears twice across (or within) the trees. First violation reported.
EdstCheck verify_edsts(const graph::Graph& g,
                       const std::vector<TreeEdges>& trees);

/// A tree in rooted adjacency form, the shape the collective engine
/// forwards along. children[] ordering is deterministic (BFS over the
/// edge list in its given order).
struct RootedTree {
  graph::Vertex root = 0;
  std::vector<graph::Vertex> parent;  // parent[root] == root
  std::vector<std::vector<graph::Vertex>> children;
};

/// Roots `tree` (an edge list over n vertices) at `root`. Throws
/// std::invalid_argument if the edges do not form a spanning tree.
RootedTree root_tree(const TreeEdges& tree, graph::Vertex n,
                     graph::Vertex root);

}  // namespace polarstar::collective
