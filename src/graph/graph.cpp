#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/rng.hpp"

namespace socmix::graph {

Graph Graph::from_edges(EdgeList edges) {
  // Row sizes with duplicates still in; self-loops take no slot.
  const NodeId n = edges.num_nodes();
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges.edges()) {
    if (e.u == e.v) continue;
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  // Scatter 1 buckets every half-edge by its target, in list order.
  std::vector<NodeId> by_target(offsets.back());
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges.edges()) {
    if (e.u == e.v) continue;
    by_target[cursor[e.v]++] = e.u;
    by_target[cursor[e.u]++] = e.v;
  }
  // Then the pair list goes, so at most two arrays of 2m ids are live. The
  // output is reserved first, its pages untouched until the resize: after
  // the free it would fall under glibc's raised mmap threshold and land on
  // the heap, whose pages outlive the graph. A heap-held pair list keeps
  // its pages too, until malloc_trim hands them back.
  std::vector<NodeId> neighbors;
  neighbors.reserve(offsets.back());
  edges = EdgeList{};
#if defined(__GLIBC__)
  malloc_trim(0);
#endif

  // Scatter 2 visits targets in ascending order and appends each to its
  // source's row, so every row comes out sorted without a sort.
  neighbors.resize(offsets.back());
  std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
  for (NodeId t = 0; t < n; ++t) {
    for (EdgeIndex i = offsets[t]; i < offsets[t + 1]; ++i) neighbors[cursor[by_target[i]]++] = t;
  }
  by_target = {};
  cursor = {};
  return from_rows(std::move(offsets), std::move(neighbors));
}

Graph Graph::from_rows(std::vector<EdgeIndex> offsets, std::vector<NodeId> neighbors) {
  // Sort the rows that need it and compact away repeated neighbors in
  // place (the write cursor never passes the read cursor); offsets[v] is
  // rewritten once row v's old bounds have been read.
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  EdgeIndex write = 0;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeIndex lo = offsets[v];
    const EdgeIndex hi = offsets[v + 1];
    const auto first = neighbors.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = neighbors.begin() + static_cast<std::ptrdiff_t>(hi);
    if (!std::is_sorted(first, last)) std::sort(first, last);
    const EdgeIndex row = write;
    offsets[v] = row;
    for (EdgeIndex i = lo; i < hi; ++i) {
      const NodeId w = neighbors[i];
      if (write == row || neighbors[write - 1] != w) neighbors[write++] = w;
    }
  }
  offsets[n] = write;
  neighbors.resize(write);
  neighbors.shrink_to_fit();
  return Graph{std::move(offsets), std::move(neighbors)};
}

Graph Graph::from_csr(std::vector<EdgeIndex> offsets, std::vector<NodeId> neighbors) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != neighbors.size()) {
    throw std::invalid_argument{"Graph::from_csr: malformed offsets"};
  }
  return Graph{std::move(offsets), std::move(neighbors)};
}

Graph Graph::borrowed(std::span<const EdgeIndex> offsets, std::span<const NodeId> neighbors) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != neighbors.size()) {
    throw std::invalid_argument{"Graph::borrowed: malformed offsets"};
  }
  Graph g;
  g.offsets_ = offsets.data();
  g.offsets_size_ = offsets.size();
  g.neighbors_ = neighbors.data();
  g.neighbors_size_ = neighbors.size();
  return g;
}

Graph Graph::borrowed_headless(std::span<const EdgeIndex> offsets,
                               EdgeIndex num_half_edges) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != num_half_edges) {
    throw std::invalid_argument{"Graph::borrowed_headless: malformed offsets"};
  }
  Graph g;
  g.offsets_ = offsets.data();
  g.offsets_size_ = offsets.size();
  g.neighbors_ = nullptr;
  g.neighbors_size_ = num_half_edges;
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  const auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

NodeId Graph::index_of_neighbor(NodeId u, NodeId v) const noexcept {
  const auto adj = neighbors(u);
  const auto it = std::lower_bound(adj.begin(), adj.end(), v);
  if (it == adj.end() || *it != v) return kInvalidNode;
  return static_cast<NodeId>(it - adj.begin());
}

NodeId Graph::min_degree() const noexcept {
  const NodeId n = num_nodes();
  if (n == 0) return 0;
  NodeId best = degree(0);
  for (NodeId v = 1; v < n; ++v) best = std::min(best, degree(v));
  return best;
}

NodeId Graph::max_degree() const noexcept {
  const NodeId n = num_nodes();
  NodeId best = 0;
  for (NodeId v = 0; v < n; ++v) best = std::max(best, degree(v));
  return best;
}

bool Graph::has_no_isolated_nodes() const noexcept {
  const NodeId n = num_nodes();
  for (NodeId v = 0; v < n; ++v)
    if (degree(v) == 0) return false;
  return true;
}

std::uint64_t structural_fingerprint(const Graph& g) noexcept {
  constexpr std::size_t kMaxSamples = 1u << 16;
  std::uint64_t h = util::hash_combine(g.num_nodes(), g.num_half_edges());
  const auto sample = [&h](const auto& array) {
    const std::size_t size = array.size();
    const std::size_t stride = size <= kMaxSamples ? 1 : size / kMaxSamples;
    for (std::size_t i = 0; i < size; i += stride) {
      h = util::hash_combine(h, static_cast<std::uint64_t>(array[i]));
    }
    if (size > 0) h = util::hash_combine(h, static_cast<std::uint64_t>(array[size - 1]));
  };
  sample(g.offsets());
  sample(g.raw_neighbors());
  return h;
}

}  // namespace socmix::graph
