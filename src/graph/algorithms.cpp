#include "graph/algorithms.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace polarstar::graph {

void parallel_for(std::size_t n, unsigned num_threads,
                  const std::function<void(std::size_t)>& fn) {
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  if (num_threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The calling thread is one of the workers. The first exception any
  // worker throws stops the hand-out of further indices and is rethrown
  // here once every worker has joined.
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto worker = [&] {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    } catch (...) {
      next.store(n, std::memory_order_relaxed);
      std::scoped_lock lk(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  const auto spawn =
      static_cast<unsigned>(std::min<std::size_t>(num_threads, n)) - 1;
  pool.reserve(spawn);
  for (unsigned t = 0; t < spawn; ++t) {
    // A thread the system refuses leaves its share to the others.
    try {
      pool.emplace_back(worker);
    } catch (const std::system_error&) {
      break;
    }
  }
  worker();
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

namespace {

// BFS into a caller-provided scratch buffer; returns (max finite distance,
// number of reached vertices, sum of distances).
struct BfsResult {
  std::uint32_t ecc = 0;
  std::uint64_t reached = 0;
  std::uint64_t dist_sum = 0;
};

BfsResult bfs_into(const Graph& g, Vertex src, std::vector<std::uint32_t>& dist,
                   std::vector<Vertex>& queue,
                   std::vector<std::uint64_t>* histogram) {
  const Vertex n = g.num_vertices();
  dist.assign(n, kUnreachable);
  queue.clear();
  dist[src] = 0;
  queue.push_back(src);
  BfsResult r;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    Vertex u = queue[head];
    std::uint32_t du = dist[u];
    r.ecc = du;
    r.dist_sum += du;
    ++r.reached;
    if (histogram) {
      if (histogram->size() <= du) histogram->resize(du + 1, 0);
      ++(*histogram)[du];
    }
    for (Vertex w : g.neighbors(u)) {
      if (dist[w] == kUnreachable) {
        dist[w] = du + 1;
        queue.push_back(w);
      }
    }
  }
  return r;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex src) {
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> queue;
  bfs_into(g, src, dist, queue, nullptr);
  return dist;
}

std::pair<std::vector<std::uint32_t>, std::uint32_t> connected_components(
    const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<std::uint32_t> comp(n, kUnreachable);
  std::uint32_t count = 0;
  std::vector<Vertex> queue;
  for (Vertex s = 0; s < n; ++s) {
    if (comp[s] != kUnreachable) continue;
    comp[s] = count;
    queue.assign(1, s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (Vertex w : g.neighbors(queue[head])) {
        if (comp[w] == kUnreachable) {
          comp[w] = count;
          queue.push_back(w);
        }
      }
    }
    ++count;
  }
  return {std::move(comp), count};
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  return connected_components(g).second == 1;
}

PathStats path_stats(const Graph& g, unsigned num_threads) {
  const Vertex n = g.num_vertices();
  PathStats stats;
  if (n <= 1) {
    stats.connected = true;
    return stats;
  }
  std::mutex merge_mu;
  std::uint32_t diam = 0;
  std::uint64_t pair_count = 0, dist_sum = 0;
  std::vector<std::uint64_t> histogram;
  bool all_reached = true;

  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  const unsigned workers =
      std::max(1u, std::min<unsigned>(num_threads, static_cast<unsigned>(n)));
  std::atomic<Vertex> next{0};
  auto body = [&] {
    std::vector<std::uint32_t> dist;
    std::vector<Vertex> queue;
    std::uint32_t local_diam = 0;
    std::uint64_t local_pairs = 0, local_sum = 0;
    std::vector<std::uint64_t> local_hist;
    bool local_all = true;
    for (Vertex s = next.fetch_add(1); s < n; s = next.fetch_add(1)) {
      auto r = bfs_into(g, s, dist, queue, &local_hist);
      local_diam = std::max(local_diam, r.ecc);
      local_pairs += r.reached - 1;  // exclude the self pair
      local_sum += r.dist_sum;
      if (r.reached != n) local_all = false;
    }
    std::scoped_lock lk(merge_mu);
    diam = std::max(diam, local_diam);
    pair_count += local_pairs;
    dist_sum += local_sum;
    all_reached = all_reached && local_all;
    if (histogram.size() < local_hist.size()) histogram.resize(local_hist.size(), 0);
    for (std::size_t d = 0; d < local_hist.size(); ++d) histogram[d] += local_hist[d];
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(body);
  for (auto& th : pool) th.join();

  stats.diameter = diam;
  stats.avg_path_length =
      pair_count == 0 ? 0.0 : static_cast<double>(dist_sum) / static_cast<double>(pair_count);
  stats.connected = all_reached;
  if (!histogram.empty()) histogram[0] = 0;  // drop self pairs
  stats.distance_histogram = std::move(histogram);
  return stats;
}

std::uint32_t diameter(const Graph& g) { return path_stats(g).diameter; }

double avg_path_length(const Graph& g) { return path_stats(g).avg_path_length; }

bool DistanceMatrix::certified(const Graph& g, Vertex src,
                               std::span<const Edge> removed,
                               std::span<const Edge> added) const {
  const std::uint16_t* row = dist_.data() + static_cast<std::size_t>(src) * n_;
  for (const auto& [u, v] : added) {
    const std::uint16_t du = row[u], dv = row[v];
    if ((du == kNone) != (dv == kNone)) return false;
    if (du != kNone && (du > dv + 1 || dv > du + 1)) return false;
  }
  // A removed edge (a, b) with b one layer below a may have been b's only
  // way back to src: b then needs another neighbour in a's layer.
  const auto keeps_parent = [&](Vertex a, Vertex b) {
    if (row[a] == kNone || row[a] + 1 != row[b]) return true;
    for (Vertex w : g.neighbors(b)) {
      if (row[w] == row[a]) return true;
    }
    return false;
  };
  for (const auto& [u, v] : removed) {
    if (!keeps_parent(u, v) || !keeps_parent(v, u)) return false;
  }
  return true;
}

std::size_t DistanceMatrix::update(const Graph& g,
                                   std::span<const Edge> removed,
                                   std::span<const Edge> added,
                                   unsigned num_threads) {
  if (g.num_vertices() > kMaxVertices) {
    throw std::length_error(
        "DistanceMatrix: more than 0xFFFF vertices overflow uint16 distances");
  }
  const bool resized = n_ != g.num_vertices();
  if (resized) {
    n_ = g.num_vertices();
    dist_.assign(static_cast<std::size_t>(n_) * n_, kNone);
  }
  std::atomic<std::size_t> rerun{0};
  parallel_for(n_, num_threads, [&](std::size_t s) {
    const auto src = static_cast<Vertex>(s);
    if (!resized && certified(g, src, removed, added)) return;
    thread_local std::vector<std::uint32_t> dist;
    thread_local std::vector<Vertex> queue;
    bfs_into(g, src, dist, queue, nullptr);
    auto* row = dist_.data() + s * n_;
    for (Vertex v = 0; v < n_; ++v) {
      row[v] = dist[v] == kUnreachable ? kNone
                                       : static_cast<std::uint16_t>(dist[v]);
    }
    rerun.fetch_add(1, std::memory_order_relaxed);
  });
  return rerun.load();
}

MinimalNextHops::MinimalNextHops(const Graph& g, const DistanceMatrix& dist)
    : n_(g.num_vertices()), ranges_(static_cast<std::size_t>(n_) * n_) {
  const auto closer = [&](Vertex s, Vertex d, auto&& emit) {
    const auto nb = g.neighbors(s);
    for_each_closer_neighbor(
        nb, dist.distance(s, d), [&](Vertex w) { return dist.distance(w, d); },
        [&](std::uint32_t i) { emit(nb[i]); });
  };
  // Count every row's hops in parallel, lay the rows out with one prefix
  // sum, then fill each row in parallel at its offset: the table is the
  // same at any thread count, and hops_ is allocated once, here.
  std::vector<std::size_t> row_begin(static_cast<std::size_t>(n_) + 1, 0);
  parallel_for(n_, 0, [&](std::size_t s) {
    std::size_t count = 0;
    for (Vertex d = 0; d < n_; ++d) {
      closer(static_cast<Vertex>(s), d, [&](Vertex) { ++count; });
    }
    row_begin[s + 1] = count;
  });
  std::partial_sum(row_begin.begin(), row_begin.end(), row_begin.begin());
  hops_.resize(row_begin[n_]);
  parallel_for(n_, 0, [&](std::size_t s) {
    std::size_t at = row_begin[s];
    for (Vertex d = 0; d < n_; ++d) {
      const auto b = static_cast<std::uint32_t>(at);
      closer(static_cast<Vertex>(s), d, [&](Vertex w) { hops_[at++] = w; });
      ranges_[s * n_ + d] = {b, static_cast<std::uint32_t>(at)};
    }
  });
}

}  // namespace polarstar::graph
