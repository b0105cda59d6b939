// Shard-at-a-time variant of WalkOperator for out-of-core spectra.
//
// Satisfies the WalkLikeOperator concept (see lanczos.hpp), so
// slem_spectrum runs Lanczos on a memory-mapped graph unchanged: apply()
// sweeps one contiguous vertex shard at a time through a ShardPipeline,
// which stages each shard's CSR window (madvise windowing for a raw pack,
// ADJC decode on a worker thread for a compressed one) so the adjacency
// residency stays near two shards however large the graph is. Rows are
// independent and every row runs the identical spmv kernel, so shard
// geometry and compression never change an output bit — apply() is
// bitwise equal to WalkOperator::apply for any shard count (tests/linalg/
// test_sharded_operator.cpp).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/shard_pipeline.hpp"

namespace socmix::linalg {

class ShardedWalkOperator {
 public:
  /// `plan.dim()` must equal g.num_nodes(). `mapped`, when non-null, must
  /// back `g` and outlive the operator; it enables the madvise windowing.
  /// A headless `g` (compressed container) requires its `mapped`.
  ShardedWalkOperator(const graph::Graph& g, graph::ShardPlan plan, double laziness = 0.0,
                      const graph::sharded::MappedGraph* mapped = nullptr);

  /// y = Op * x; bitwise equal to WalkOperator::apply. Same scratch caveat:
  /// no concurrent apply() calls on one operator.
  void apply(std::span<const double> x, std::span<double> y) const;

  [[nodiscard]] std::size_t dim() const noexcept { return inv_sqrt_deg_.size(); }
  [[nodiscard]] double laziness() const noexcept { return laziness_; }
  [[nodiscard]] std::vector<double> top_eigenvector() const;
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const graph::ShardPlan& plan() const noexcept { return plan_; }

  [[nodiscard]] double map_eigenvalue(double simple_lambda) const noexcept {
    return (1.0 - laziness_) * simple_lambda + laziness_;
  }

 private:
  const graph::Graph* graph_;
  const graph::sharded::MappedGraph* mapped_;
  graph::ShardPlan plan_;
  std::vector<double> inv_sqrt_deg_;
  mutable std::vector<double> scaled_;
  /// unique_ptr: the pipeline owns a worker thread and is neither
  /// copyable nor movable; the operator stays movable through it.
  std::unique_ptr<ShardPipeline> pipeline_;
  double laziness_;
};

}  // namespace socmix::linalg
