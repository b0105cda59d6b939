// Locality-aware vertex reordering for the CSR compute kernels, applied
// once at pack time (tools/graph_pack --reorder).
//
// Every hot kernel in the pipeline is a sparse gather over the CSR: per
// edge (i, j) it loads a value keyed by the *label* of the neighbor. The
// labels a generator or crawl happens to assign are arbitrary, so those
// gathers stride through a multi-MB array with no reuse. Relabeling the
// graph so that adjacent vertices get nearby labels turns the same gather
// stream into one with strong temporal locality — the standard
// cache-blocking lever for irregular SpMV/SpMM workloads.
//
// Two orderings are provided:
//  * reverse Cuthill-McKee (kRcm) — per-component BFS from a
//    pseudo-peripheral start, neighbors in ascending-degree order,
//    reversed. Minimizes (heuristically) the matrix bandwidth; the best
//    default for community-structured graphs.
//  * BFS clustering (kBfs) — plain per-component BFS order; groups
//    vertices by hop distance, a cheap community-ish clustering.
//
// All orderings are deterministic functions of the graph alone. A
// permutation maps OLD label -> NEW label; apply_permutation produces a
// relabeled Graph whose adjacency lists are sorted, so the result upholds
// every Graph invariant and kernels run on it unchanged. The measurement
// never relabels: it runs on whatever labels its input carries, so an
// ordering is chosen by packing the graph with it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace socmix::graph {

enum class ReorderMode : std::uint32_t {
  kNone = 0,
  kRcm = 2,
  kBfs = 3,
};

/// Canonical flag spelling ("none", "rcm", "bfs").
[[nodiscard]] std::string_view reorder_mode_name(ReorderMode mode) noexcept;

/// Parses a --reorder flag value; empty parses as kNone (the default),
/// anything unknown is nullopt.
[[nodiscard]] std::optional<ReorderMode> parse_reorder_mode(std::string_view name) noexcept;

/// Computes the permutation (perm[old] = new) for `mode`. kNone returns
/// the identity. Deterministic in the graph alone.
[[nodiscard]] std::vector<NodeId> reorder_permutation(const Graph& g, ReorderMode mode);

/// Inverse permutation: out[perm[v]] = v. Throws std::invalid_argument if
/// `perm` is not a bijection on [0, perm.size()).
[[nodiscard]] std::vector<NodeId> invert_permutation(std::span<const NodeId> perm);

/// Relabels `g` under `perm` (old -> new): vertex v becomes perm[v], each
/// adjacency list is re-sorted ascending. The result satisfies all Graph
/// invariants; applying `invert_permutation(perm)` round-trips to a CSR
/// bit-identical to the original. Throws if perm is not a bijection of
/// size num_nodes().
[[nodiscard]] Graph apply_permutation(const Graph& g, std::span<const NodeId> perm);

/// A deterministic pseudo-random permutation of [0, n) seeded by `seed` —
/// the "crawl order" null model benches and tests use to simulate the
/// arbitrary labeling of real edge-list datasets.
[[nodiscard]] std::vector<NodeId> shuffle_permutation(NodeId n, std::uint64_t seed);

/// How label-local a CSR layout is: the mean |i - j| over all half-edges
/// (what the gather working set tracks) and the max (the bandwidth).
struct LocalityStats {
  double avg_neighbor_distance = 0.0;
  std::uint64_t bandwidth = 0;
};
[[nodiscard]] LocalityStats locality_stats(const Graph& g) noexcept;

/// Relabels `g` under reorder_permutation(g, mode). kNone returns `g`
/// itself, moved rather than copied.
[[nodiscard]] Graph reorder_graph(Graph g, ReorderMode mode);

}  // namespace socmix::graph
