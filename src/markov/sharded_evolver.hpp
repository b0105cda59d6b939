// Shard-at-a-time batched walk evolution for out-of-core graphs.
//
// Same engine contract as BatchedEvolver (same public surface, so the
// measurement driver is generic over the two), but each sweep visits the
// CSR one contiguous vertex shard at a time with an explicit boundary-
// state exchange between phases:
//
//   1. prescale   — one streaming pass over the RAM-resident lane state
//                   (scaled = cur * inv_deg), exactly the dense pass;
//   2. per shard  — stage the next shard's CSR window (madvise(WILLNEED)
//                   for a raw pack, decode ahead on the pipeline worker
//                   for a compressed one), run the range-driven SpMM over
//                   this shard's rows (pi deferred), madvise(DONTNEED) the
//                   finished window.
//                   Gathers of `scaled` rows owned by *other* shards are
//                   the boundary exchange: the state is lane-major in
//                   RAM, so crossing edges read it directly and the
//                   markov.shard.* metrics account the traffic;
//   3. reduce     — one standalone ascending-row TVD pass over the
//                   stored next state (linalg::simd::tvd_f64/tvd_mixed).
//
// Bit-parity: shards partition rows, the range kernels run the identical
// per-row body as the dense kernels, skipped frontier rows hold exactly
// +0.0, and the standalone TVD reproduces the fused reduction's term
// sequence on the stored state — so results are bit-identical to
// BatchedEvolver for every shard count, composing with reorder, frontier,
// SIMD tier and mixed precision (tests/markov/test_shard_parity.cpp).
// Only the state block (3 x n x block doubles) must fit in RAM; the CSR
// streams from the mapped container.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/frontier.hpp"
#include "graph/graph.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/shard_pipeline.hpp"
#include "linalg/simd/kernels.hpp"
#include "markov/batched_evolver.hpp"
#include "util/aligned.hpp"

namespace socmix::markov {

class ShardedBatchedEvolver {
 public:
  static constexpr std::size_t kDefaultBlock = BatchedEvolver::kDefaultBlock;
  static constexpr std::size_t kMaxBlock = BatchedEvolver::kMaxBlock;

  /// Same validation as BatchedEvolver, plus: `plan` must cover the graph
  /// with >= 1 shard. `mapped`, when non-null, must back `g` and outlive
  /// the evolver; it enables the madvise windowing. A headless `g`
  /// (compressed container) requires its `mapped` and a disabled frontier
  /// policy (the closure walk needs in-memory adjacency). Window staging
  /// (linalg::ShardPipeline) follows from the container and, like the
  /// shard count, never changes an output bit.
  explicit ShardedBatchedEvolver(
      const graph::Graph& g, graph::ShardPlan plan, double laziness = 0.0,
      std::size_t block = kDefaultBlock, graph::FrontierPolicy frontier = {},
      linalg::simd::Precision precision = linalg::simd::Precision::kFloat64,
      const graph::sharded::MappedGraph* mapped = nullptr);

  [[nodiscard]] std::size_t dim() const noexcept { return inv_deg_.size(); }
  [[nodiscard]] std::size_t block() const noexcept { return block_; }
  [[nodiscard]] std::size_t active() const noexcept { return active_; }
  [[nodiscard]] double laziness() const noexcept { return laziness_; }
  [[nodiscard]] linalg::simd::Precision precision() const noexcept { return precision_; }
  [[nodiscard]] const graph::FrontierPolicy& frontier_policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] const graph::ShardPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool in_sparse_phase() const noexcept { return sparse_phase_; }
  [[nodiscard]] std::size_t switch_step() const noexcept { return switch_step_; }
  [[nodiscard]] std::uint64_t rows_swept() const noexcept { return rows_swept_; }

  void seed_point_masses(std::span<const graph::NodeId> sources);
  void step();
  void step_with_tvd(std::span<const double> pi, std::span<double> tvd_out);
  void copy_distribution(std::size_t lane, std::span<double> out) const;

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }

 private:
  void sweep(const double* pi, double* tvd_out);

  const graph::Graph* graph_;
  const graph::sharded::MappedGraph* mapped_;
  graph::ShardPlan plan_;
  /// unique_ptr: the pipeline owns a worker thread and is neither
  /// copyable nor movable; the evolver stays movable through it.
  std::unique_ptr<linalg::ShardPipeline> pipeline_;
  util::aligned_vector<double> inv_deg_;
  util::aligned_vector<double> cur_;
  util::aligned_vector<double> next_;
  util::aligned_vector<double> scaled_;
  util::aligned_vector<float> cur32_;
  util::aligned_vector<float> next32_;
  util::aligned_vector<float> scaled32_;
  /// Scratch: the sweep ranges of the current shard (frontier closure
  /// clipped to the shard, or the whole shard when dense).
  std::vector<graph::RowRange> shard_ranges_;
  double laziness_;
  std::size_t block_;
  linalg::simd::Precision precision_;
  std::size_t active_ = 0;

  graph::FrontierPolicy policy_;
  graph::FrontierSet frontier_;
  graph::NodeId switch_rows_ = 0;
  bool sparse_phase_ = false;
  bool dense_dirty_ = false;
  bool seeded_ = false;
  std::size_t steps_since_seed_ = 0;
  std::size_t switch_step_ = 0;
  std::uint64_t rows_swept_ = 0;
  /// Half-edges crossing shard boundaries (for the boundary-traffic
  /// metric); computed once at construction when observability is on.
  graph::EdgeIndex boundary_half_edges_ = 0;
};

}  // namespace socmix::markov
