#include "collective/edst.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "analysis/spanning_trees.h"

namespace polarstar::collective {

using graph::Edge;
using graph::Vertex;

namespace {

class UnionFind {
 public:
  explicit UnionFind(Vertex n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  Vertex find(Vertex v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  bool unite(Vertex a, Vertex b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<Vertex> parent_;
};

std::uint64_t edge_key(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// First spanning tree greedily extractable from `pool` (in order), or an
/// empty vector when the pool does not span all n vertices.
TreeEdges spanning_tree_from(const std::vector<Edge>& pool, Vertex n) {
  UnionFind uf(n);
  TreeEdges tree;
  for (const auto& e : pool) {
    if (uf.unite(e.first, e.second)) tree.push_back(e);
  }
  if (tree.size() != static_cast<std::size_t>(n) - 1) tree.clear();
  return tree;
}

/// Edges of g not used by any tree in `trees` (normalized u < v).
std::vector<Edge> leftover_edges(const graph::Graph& g,
                                 const std::vector<TreeEdges>& trees) {
  std::vector<std::uint64_t> used;
  for (const auto& t : trees) {
    for (const auto& e : t) used.push_back(edge_key(e.first, e.second));
  }
  std::sort(used.begin(), used.end());
  std::vector<Edge> rest;
  for (const auto& e : g.edge_list()) {
    if (!std::binary_search(used.begin(), used.end(),
                            edge_key(e.first, e.second))) {
      rest.push_back(e);
    }
  }
  return rest;
}

}  // namespace

EdstSet polarstar_edsts(const core::PolarStar& ps, bool augment,
                        std::uint64_t seed) {
  const graph::Graph& structure = ps.structure().g;
  const topo::Supernode& super = ps.supernode();
  const Vertex big_n = structure.num_vertices();
  const Vertex small_n = super.order();
  const auto& f = super.f;
  const auto id = [small_n](Vertex x, Vertex xp) {
    return x * small_n + xp;
  };

  EdstSet out;
  const auto s_pack = analysis::pack_spanning_trees(structure, seed);
  const auto t_pack = analysis::pack_spanning_trees(super.g, seed);
  out.structure_trees = s_pack.trees.size();
  out.supernode_trees = t_pack.trees.size();
  if (out.structure_trees == 0 || out.supernode_trees == 0) {
    throw std::invalid_argument(
        "polarstar_edsts: a factor graph has no spanning tree");
  }

  // Structure join T for the A-trees: leftover structure edges first, else
  // reserve the last structure EDST (one fewer B-tree).
  std::size_t b_count = out.structure_trees;
  TreeEdges join = spanning_tree_from(leftover_edges(structure, s_pack.trees),
                                      big_n);
  if (join.empty()) {
    --b_count;
    join = s_pack.trees.back();
  }
  // Connector C for the B-trees: leftover supernode edges first, else
  // reserve the last supernode EDST (one fewer A-tree).
  std::size_t a_count = out.supernode_trees;
  TreeEdges conn = spanning_tree_from(leftover_edges(super.g, t_pack.trees),
                                      small_n);
  if (conn.empty()) {
    --a_count;
    conn = t_pack.trees.back();
  }
  out.guaranteed = a_count + b_count;

  // B-trees: all matching edges along S_j, connected inside root copy j.
  for (std::size_t j = 0; j < b_count; ++j) {
    TreeEdges tree;
    tree.reserve(static_cast<std::size_t>(big_n) * small_n - 1);
    for (const auto& [x, y] : s_pack.trees[j]) {  // edge lists keep x < y
      for (Vertex xp = 0; xp < small_n; ++xp) {
        tree.emplace_back(id(x, xp), id(y, f[xp]));
      }
    }
    const Vertex root_copy = static_cast<Vertex>(j);
    for (const auto& [z, w] : conn) {
      tree.emplace_back(id(root_copy, z), id(root_copy, w));
    }
    out.trees.push_back(std::move(tree));
  }
  // A-trees: T'_i replicated in every supernode, copies joined along T by
  // the per-tree matching representative xp = i.
  for (std::size_t i = 0; i < a_count; ++i) {
    TreeEdges tree;
    tree.reserve(static_cast<std::size_t>(big_n) * small_n - 1);
    for (Vertex x = 0; x < big_n; ++x) {
      for (const auto& [y, w] : t_pack.trees[i]) {
        tree.emplace_back(id(x, y), id(x, w));
      }
    }
    const Vertex rep = static_cast<Vertex>(i);
    for (const auto& [x, y] : join) {
      tree.emplace_back(id(x, rep), id(y, f[rep]));
    }
    out.trees.push_back(std::move(tree));
  }
  out.composed_trees = out.trees.size();

  if (augment) {
    const auto rest = leftover_edges(ps.graph(), out.trees);
    const auto extra = analysis::pack_spanning_trees(
        graph::Graph::from_edges(ps.graph().num_vertices(), rest), seed);
    for (const auto& t : extra.trees) out.trees.push_back(t);
    out.augmented_trees = extra.trees.size();
  }
  return out;
}

EdstSet packed_edsts(const graph::Graph& g, std::uint64_t seed) {
  EdstSet out;
  auto packing = analysis::pack_spanning_trees(g, seed);
  out.trees = std::move(packing.trees);
  out.composed_trees = out.trees.size();
  out.guaranteed = out.trees.size();
  return out;
}

EdstCheck verify_edsts(const graph::Graph& g,
                       const std::vector<TreeEdges>& trees) {
  const Vertex n = g.num_vertices();
  std::vector<std::uint64_t> seen;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const auto fail = [i](const std::string& why) {
      return EdstCheck{false, "tree " + std::to_string(i) + ": " + why};
    };
    if (trees[i].size() != static_cast<std::size_t>(n) - 1) {
      return fail("has " + std::to_string(trees[i].size()) +
                  " edges, want " + std::to_string(n - 1));
    }
    UnionFind uf(n);
    for (const auto& [u, v] : trees[i]) {
      if (u >= n || v >= n || u == v) return fail("malformed edge");
      if (!g.has_edge(u, v)) {
        return fail("edge (" + std::to_string(u) + ", " + std::to_string(v) +
                    ") is not in the graph");
      }
      if (!uf.unite(u, v)) return fail("contains a cycle");
      seen.push_back(edge_key(u, v));
    }
    // n - 1 successful unions on n vertices leave one component: the tree
    // is acyclic AND spanning.
  }
  std::sort(seen.begin(), seen.end());
  const auto dup = std::adjacent_find(seen.begin(), seen.end());
  if (dup != seen.end()) {
    return {false,
            "edge (" + std::to_string(static_cast<Vertex>(*dup >> 32)) + ", " +
                std::to_string(static_cast<Vertex>(*dup & 0xFFFFFFFFu)) +
                ") appears in two trees"};
  }
  return {true, ""};
}

RootedTree root_tree(const TreeEdges& tree, graph::Vertex n,
                     graph::Vertex root) {
  if (root >= n || tree.size() != static_cast<std::size_t>(n) - 1) {
    throw std::invalid_argument("root_tree: not a spanning tree");
  }
  std::vector<std::vector<Vertex>> adj(n);
  for (const auto& [u, v] : tree) {
    if (u >= n || v >= n) throw std::invalid_argument("root_tree: bad edge");
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  RootedTree rt;
  rt.root = root;
  rt.parent.assign(n, n);  // n = unvisited sentinel
  rt.children.assign(n, {});
  std::vector<Vertex> queue{root};
  rt.parent[root] = root;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (Vertex w : adj[v]) {
      if (rt.parent[w] != n) continue;
      rt.parent[w] = v;
      rt.children[v].push_back(w);
      queue.push_back(w);
    }
  }
  if (queue.size() != n) {
    throw std::invalid_argument("root_tree: edges do not span");
  }
  return rt;
}

}  // namespace polarstar::collective
