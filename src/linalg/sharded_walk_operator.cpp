#include "linalg/sharded_walk_operator.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/simd/kernels.hpp"
#include "linalg/walk_operator.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace socmix::linalg {

ShardedWalkOperator::ShardedWalkOperator(const graph::Graph& g, graph::ShardPlan plan,
                                         double laziness,
                                         const graph::sharded::MappedGraph* mapped)
    : graph_(&g), mapped_(mapped), plan_(std::move(plan)), laziness_(laziness) {
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument{"ShardedWalkOperator: laziness must be in [0, 1)"};
  }
  if (plan_.dim() != g.num_nodes() || plan_.num_shards() == 0) {
    throw std::invalid_argument{"ShardedWalkOperator: plan does not cover the graph"};
  }
  const graph::NodeId n = g.num_nodes();
  inv_sqrt_deg_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const graph::NodeId d = g.degree(v);
    if (d == 0) {
      throw std::invalid_argument{
          "ShardedWalkOperator: graph has an isolated vertex; extract the largest "
          "connected component first"};
    }
    inv_sqrt_deg_[v] = 1.0 / std::sqrt(static_cast<double>(d));
  }
  scaled_.resize(n);
  pipeline_ = std::make_unique<ShardPipeline>(g, plan_, mapped_);
}

void ShardedWalkOperator::apply(std::span<const double> x, std::span<double> y) const {
  SOCMIX_TRACE_SPAN("spmv.apply_sharded");
  const graph::Graph& g = *graph_;
  const graph::NodeId n = g.num_nodes();
  SOCMIX_COUNTER_ADD("linalg.spmv.applies", 1);
  SOCMIX_COUNTER_ADD("linalg.spmv.rows", n);
  SOCMIX_COUNTER_ADD("linalg.spmv.sharded_applies", 1);
  const double walk_weight = 1.0 - laziness_;

  // Identical prescale + per-row kernel as WalkOperator::apply; only the
  // outer row order is grouped by shard, which no row's result depends on.
  double* const scaled = scaled_.data();
  const simd::KernelTable& kernels = simd::dispatch();
  util::parallel_for(0, n, WalkOperator::kApplyGrain,
                     [&](std::size_t lo, std::size_t hi) {
                       kernels.prescale_f64(x.data(), inv_sqrt_deg_.data(), scaled, lo, hi);
                     });
  simd::SpmvArgs base;
  base.gather = scaled;
  base.x = x.data();
  base.y = y.data();
  base.walk_weight = walk_weight;
  base.laziness = laziness_;
  base.row_scale = inv_sqrt_deg_.data();

  const std::uint32_t shards = plan_.num_shards();
  for (std::uint32_t s = 0; s < shards; ++s) {
    const ShardWindow w = pipeline_->acquire(s);
    simd::SpmvArgs args = base;
    if (w.local) {
      // Decoded window: local offsets index the scratch neighbors, and
      // every per-row pointer is rebased by w.begin so row j of the
      // kernel is absolute row w.begin + j. The gather source stays
      // absolute (neighbor ids are absolute), so the per-row FP sequence
      // is identical to the uncompressed sweep.
      args.offsets = w.offsets;
      args.neighbors = w.neighbors;
      args.x = x.data() + w.begin;
      args.y = y.data() + w.begin;
      args.row_scale = inv_sqrt_deg_.data() + w.begin;
      util::parallel_for(0, w.end - w.begin, WalkOperator::kApplyGrain,
                         [&](std::size_t row_lo, std::size_t row_hi) {
                           kernels.spmv(args, static_cast<graph::NodeId>(row_lo),
                                        static_cast<graph::NodeId>(row_hi));
                         });
    } else {
      args.offsets = w.offsets;
      args.neighbors = w.neighbors;
      util::parallel_for(w.begin, w.end, WalkOperator::kApplyGrain,
                         [&](std::size_t row_lo, std::size_t row_hi) {
                           kernels.spmv(args, static_cast<graph::NodeId>(row_lo),
                                        static_cast<graph::NodeId>(row_hi));
                         });
    }
  }
  pipeline_->finish_sweep();
}

std::vector<double> ShardedWalkOperator::top_eigenvector() const {
  const auto n = dim();
  const double two_m = static_cast<double>(graph_->num_half_edges());
  const double sqrt_two_m = std::sqrt(two_m);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.0 / (inv_sqrt_deg_[i] * sqrt_two_m);
  }
  return v;
}

}  // namespace socmix::linalg
