#include "graph/reorder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace socmix::graph {

namespace {

/// BFS from `start` over unvisited vertices, appending visits to `order`.
/// Neighbors are enqueued in the order `rank` dictates: for Cuthill-McKee
/// ascending (degree, id), for plain BFS ascending id (the CSR's natural
/// neighbor order). Returns the index into `order` where the last BFS
/// level begins (needed by the pseudo-peripheral search).
std::size_t bfs_component(const Graph& g, NodeId start, bool degree_rank,
                          std::vector<bool>& visited, std::vector<NodeId>& order,
                          std::vector<NodeId>& scratch) {
  const std::size_t first = order.size();
  std::size_t level_begin = first;
  order.push_back(start);
  visited[start] = true;
  std::size_t frontier_begin = first;
  while (frontier_begin < order.size()) {
    const std::size_t frontier_end = order.size();
    level_begin = frontier_begin;
    for (std::size_t q = frontier_begin; q < frontier_end; ++q) {
      const NodeId u = order[q];
      scratch.clear();
      for (const NodeId v : g.neighbors(u)) {
        if (!visited[v]) {
          visited[v] = true;
          scratch.push_back(v);
        }
      }
      if (degree_rank) {
        std::sort(scratch.begin(), scratch.end(), [&g](NodeId a, NodeId b) {
          const NodeId da = g.degree(a);
          const NodeId db = g.degree(b);
          return da != db ? da < db : a < b;
        });
      }
      order.insert(order.end(), scratch.begin(), scratch.end());
    }
    frontier_begin = frontier_end;
  }
  return level_begin;
}

/// George-Liu pseudo-peripheral vertex: start from the component's
/// min-degree vertex and walk to the far end of the BFS tree until the
/// eccentricity stops growing (bounded to a few sweeps — each is O(m)).
NodeId pseudo_peripheral(const Graph& g, NodeId seed_vertex, std::vector<bool>& visited,
                         std::vector<NodeId>& scratch) {
  NodeId start = seed_vertex;
  std::size_t best_depth = 0;
  std::vector<NodeId> order;
  for (int sweep = 0; sweep < 4; ++sweep) {
    order.clear();
    const std::size_t level_begin = bfs_component(g, start, false, visited, order, scratch);
    for (const NodeId v : order) visited[v] = false;  // probe only
    const std::size_t depth = order.size() - level_begin;
    // Next candidate: min-degree vertex of the deepest level.
    NodeId candidate = order[level_begin];
    for (std::size_t i = level_begin; i < order.size(); ++i) {
      const NodeId v = order[i];
      if (g.degree(v) < g.degree(candidate) ||
          (g.degree(v) == g.degree(candidate) && v < candidate)) {
        candidate = v;
      }
    }
    if (sweep > 0 && depth <= best_depth) break;
    best_depth = depth;
    if (candidate == start) break;
    start = candidate;
  }
  return start;
}

/// Visit order -> permutation (perm[old] = new).
std::vector<NodeId> order_to_perm(const std::vector<NodeId>& order) {
  std::vector<NodeId> perm(order.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    perm[order[pos]] = static_cast<NodeId>(pos);
  }
  return perm;
}

std::vector<NodeId> traversal_permutation(const Graph& g, bool rcm) {
  const NodeId n = g.num_nodes();
  std::vector<bool> visited(n, false);
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> scratch;
  for (NodeId v = 0; v < n; ++v) {
    if (visited[v]) continue;
    NodeId start = v;
    if (rcm && g.degree(v) > 0) {
      start = pseudo_peripheral(g, v, visited, scratch);
    }
    const std::size_t component_begin = order.size();
    bfs_component(g, start, /*degree_rank=*/rcm, visited, order, scratch);
    if (rcm) {
      // Reverse Cuthill-McKee: reverse each component's CM order.
      std::reverse(order.begin() + static_cast<std::ptrdiff_t>(component_begin),
                   order.end());
    }
  }
  return order_to_perm(order);
}

}  // namespace

std::string_view reorder_mode_name(ReorderMode mode) noexcept {
  switch (mode) {
    case ReorderMode::kNone: return "none";
    case ReorderMode::kRcm: return "rcm";
    case ReorderMode::kBfs: return "bfs";
  }
  return "none";
}

std::optional<ReorderMode> parse_reorder_mode(std::string_view name) noexcept {
  if (name.empty() || name == "none") return ReorderMode::kNone;
  if (name == "rcm") return ReorderMode::kRcm;
  if (name == "bfs") return ReorderMode::kBfs;
  return std::nullopt;
}

std::vector<NodeId> reorder_permutation(const Graph& g, ReorderMode mode) {
  switch (mode) {
    case ReorderMode::kNone: {
      std::vector<NodeId> identity(g.num_nodes());
      std::iota(identity.begin(), identity.end(), NodeId{0});
      return identity;
    }
    case ReorderMode::kRcm:
      return traversal_permutation(g, /*rcm=*/true);
    case ReorderMode::kBfs:
      return traversal_permutation(g, /*rcm=*/false);
  }
  throw std::invalid_argument{"reorder_permutation: unknown mode"};
}

std::vector<NodeId> invert_permutation(std::span<const NodeId> perm) {
  std::vector<NodeId> inverse(perm.size(), kInvalidNode);
  for (std::size_t v = 0; v < perm.size(); ++v) {
    const NodeId target = perm[v];
    if (target >= perm.size() || inverse[target] != kInvalidNode) {
      throw std::invalid_argument{"invert_permutation: not a bijection"};
    }
    inverse[target] = static_cast<NodeId>(v);
  }
  return inverse;
}

Graph apply_permutation(const Graph& g, std::span<const NodeId> perm) {
  const NodeId n = g.num_nodes();
  if (perm.size() != n) {
    throw std::invalid_argument{"apply_permutation: permutation size != num_nodes"};
  }
  const std::vector<NodeId> inverse = invert_permutation(perm);  // validates

  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId new_id = 0; new_id < n; ++new_id) {
    offsets[new_id + 1] = offsets[new_id] + g.degree(inverse[new_id]);
  }
  std::vector<NodeId> neighbors(g.num_half_edges());
  for (NodeId new_id = 0; new_id < n; ++new_id) {
    const NodeId old_id = inverse[new_id];
    EdgeIndex cursor = offsets[new_id];
    for (const NodeId old_neighbor : g.neighbors(old_id)) {
      neighbors[cursor++] = perm[old_neighbor];
    }
    std::sort(neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[new_id]),
              neighbors.begin() + static_cast<std::ptrdiff_t>(cursor));
  }
  return Graph::from_csr(std::move(offsets), std::move(neighbors));
}

std::vector<NodeId> shuffle_permutation(NodeId n, std::uint64_t seed) {
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  util::Rng rng{seed};
  for (NodeId i = n; i > 1; --i) {
    const auto j = static_cast<NodeId>(rng.below(i));
    std::swap(order[i - 1], order[j]);
  }
  return order_to_perm(order);
}

LocalityStats locality_stats(const Graph& g) noexcept {
  LocalityStats stats;
  const NodeId n = g.num_nodes();
  if (g.num_half_edges() == 0) return stats;
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : g.neighbors(v)) {
      const std::uint64_t d = v > u ? v - u : u - v;
      total += d;
      stats.bandwidth = std::max(stats.bandwidth, d);
    }
  }
  stats.avg_neighbor_distance =
      static_cast<double>(total) / static_cast<double>(g.num_half_edges());
  return stats;
}

Graph reorder_graph(Graph g, ReorderMode mode) {
  if (mode == ReorderMode::kNone) return g;
  return apply_permutation(g, reorder_permutation(g, mode));
}

}  // namespace socmix::graph
