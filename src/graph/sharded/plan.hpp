// Shard geometry for out-of-core evolution.
//
// A shard is a contiguous vertex range [bounds[s], bounds[s+1]) together
// with the CSR edge span those rows own. Contiguity is what makes the
// out-of-core sweep work: one shard's offsets/neighbors occupy one
// contiguous byte window of a `.smxg` file, so the walk engines
// (markov::BatchedEvolver, linalg::WalkOperator) can madvise(WILLNEED)
// the next window and madvise(DONTNEED) the previous one while sweeping
// the current shard, keeping CSR residency near one shard regardless of
// graph size (see DESIGN.md "Sharded out-of-core evolution"). Shards
// partition rows, rows are independent within a sweep, and every kernel
// row body is unchanged — so shard geometry can never change an output
// bit, only the order pages stream from disk.
//
// The plan follows the input, with no knob at measurement time
// (resolve_shard_plan): an in-memory CSR is the one-shard plan; a mapped
// `.smxg` container sweeps the plan it was packed with (graph_pack
// chooses the plan after relabeling, so it fits the stored ordering). ShardPolicy is the pack-time knob (`graph_pack --sharded
// auto|off|N`): `auto` targets a fixed per-shard CSR byte budget (small
// graphs resolve to one shard), `off` forces one shard, `N` forces a
// shard count. The swept plan's shard count feeds shard_context_word so
// block checkpoints written under a different geometry classify stale.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace socmix::graph {

namespace sharded {
class MappedGraph;
}  // namespace sharded

/// Upper bound on a shard count, resolved by a policy or stored in a
/// container (madvise bookkeeping is O(S) per sweep; 1024 shards of the
/// auto budget already covers a 64 GB CSR).
inline constexpr std::uint32_t kMaxShards = 1024;

/// How many ways graph_pack splits the CSR it writes.
struct ShardPolicy {
  enum class Mode : std::uint8_t {
    kAuto = 0,   ///< shard when the CSR exceeds the per-shard byte budget
    kOff = 1,    ///< always one shard
    kFixed = 2,  ///< exactly `count` shards
  };

  /// Per-shard CSR byte budget `auto` targets: large enough that a shard
  /// sweep amortizes its madvise calls, small enough that two resident
  /// windows stay far below any sane RAM budget.
  static constexpr std::size_t kAutoShardBytes = std::size_t{64} << 20;

  Mode mode = Mode::kAuto;
  /// Shard count for kFixed; ignored otherwise.
  std::uint32_t count = 0;
};

/// Parses a --sharded flag value: "auto", "off", or a shard count >= 1.
/// Empty parses as auto (the default); anything else is nullopt.
[[nodiscard]] std::optional<ShardPolicy> parse_shard_policy(std::string_view name) noexcept;

/// Shard count a policy resolves to for a CSR of `csr_bytes` over `n`
/// rows. 1 means one shard (off, auto under the byte budget, or an
/// explicit --sharded 1).
/// `resident_copies` is how many shard-sized windows the engine keeps
/// live at once: 2 for the classic advise-ahead sweep (current + next),
/// 3 when a decoded-scratch window rides along (compressed adjacency
/// under the double-buffered pipeline). `auto` sizes shards so that
/// resident_copies windows together stay within the same memory
/// envelope the 2-copy sweep used (2 * kAutoShardBytes).
[[nodiscard]] std::uint32_t resolve_shard_count(const ShardPolicy& policy,
                                                std::size_t csr_bytes, NodeId n,
                                                std::uint32_t resident_copies = 2) noexcept;

/// Word the resilience layer folds into a checkpoint's context so that a
/// snapshot written under a different shard geometry classifies stale.
/// Sharded results are bit-identical to dense by contract, so this is
/// belt-and-braces versioning: 0 for a resolved count <= 1 (callers skip
/// folding a zero word, keeping dense checkpoints compatible with
/// pre-sharding snapshots), otherwise a tagged hash of the count.
[[nodiscard]] std::uint64_t shard_context_word(std::uint32_t resolved_shards) noexcept;

/// A concrete partition of rows [0, n) into contiguous shards.
struct ShardPlan {
  /// num_shards()+1 ascending row bounds; bounds.front() == 0,
  /// bounds.back() == n. Individual shards may be empty on degenerate
  /// inputs (more shards than rows).
  std::vector<NodeId> bounds;

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return bounds.empty() ? 0 : static_cast<std::uint32_t>(bounds.size() - 1);
  }
  [[nodiscard]] NodeId begin(std::uint32_t s) const noexcept { return bounds[s]; }
  [[nodiscard]] NodeId end(std::uint32_t s) const noexcept { return bounds[s + 1]; }
  [[nodiscard]] NodeId dim() const noexcept { return bounds.empty() ? 0 : bounds.back(); }

  /// The trivial one-shard plan (the dense path's geometry).
  [[nodiscard]] static ShardPlan single(NodeId n);

  /// Splits rows so every shard owns a near-equal share of the half-edges
  /// (the sweep work and the gather bytes), found by binary search on the
  /// CSR offsets. Deterministic in (offsets, shards).
  [[nodiscard]] static ShardPlan balanced(std::span<const EdgeIndex> offsets,
                                          std::uint32_t shards);
};

/// The plan the walk engines sweep `g` under: the container's stored
/// pack_plan() when `mapped` (the container `g` was borrowed from) is
/// non-null, otherwise the one-shard in-memory plan, whose
/// shard_context_word is 0.
[[nodiscard]] ShardPlan resolve_shard_plan(const Graph& g,
                                           const sharded::MappedGraph* mapped);

/// Half-edges (u, v) whose endpoints live in different shards of `plan` —
/// the state that conceptually crosses shard boundaries each sweep (the
/// gather of v's prescaled lane block while sweeping u's shard). One
/// sequential CSR pass; feeds the markov.shard.boundary_* metrics.
[[nodiscard]] EdgeIndex count_boundary_half_edges(const Graph& g, const ShardPlan& plan);

}  // namespace socmix::graph
