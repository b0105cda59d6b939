// Blocked multi-source walk evolution: B distributions per CSR sweep.
//
// The sampled measurement (§3.3) evolves a point mass from every source;
// done one source at a time the graph's offsets/neighbors arrays are
// streamed once per source per step. This engine advances a block of B
// lanes through x_{t+1} = x_t P in a single sweep — a row-major multi-
// vector SpMM — so the CSR arrays and the random accesses into the
// distribution are amortized across the whole block, and the TVD-to-pi
// reduction the measurement needs is fused into the same sweep instead of
// costing a second pass over n doubles per lane.
//
// Determinism contract: lane b of a block evolves through *exactly* the
// floating-point operations of the scalar DistributionEvolver path —
// per-row accumulation in CSR edge order, the identical laziness affine
// combination, and a TVD summed over rows in ascending order (matching
// linalg::total_variation). Trajectories are therefore bit-identical to
// the single-source path for any block size, block composition, or thread
// count of the surrounding driver. The sweep itself runs through the
// linalg::simd dispatch table; every kernel tier honors the same
// rounding-point contract, so the SIMD tier in use never changes a bit
// either (see src/linalg/simd/kernels.hpp).
//
// Frontier phase: with a FrontierPolicy enabled the engine tracks the
// support closure of the block (graph::FrontierSet) and, while it covers
// less than the policy's row fraction, sweeps only those rows — each with
// the identical full-row gather, so every retained row produces the same
// bits as the dense kernel and every skipped row is exactly the +0.0 the
// dense kernel would have written. Once the closure saturates the engine
// switches permanently (until the next seeding) to the dense kernel. The
// determinism contract above is therefore unchanged: frontier on or off,
// trajectories are bit-identical (see DESIGN.md "Frontier phase").
//
// Mixed precision (Precision::kMixed): lane state lives in float32
// buffers — half the bytes per gathered cache line — while all row
// arithmetic stays float64 and the fused TVD uses Neumaier-compensated
// float64 summation. Trajectories deviate from the f64 path only by state
// quantization, bounded by linalg::simd::kMixedTvdBudget, and remain
// bit-identical across kernel tiers and frontier modes.
//
// Out-of-core graphs (--pack): every CSR window comes from a
// linalg::ShardPipeline, and the sweep visits the plan's contiguous vertex
// shards in order. An in-memory graph is the one-shard plan, whose window
// is the whole CSR; its sweep is one fused-TVD kernel call with the
// frontier ranges passed straight through. Under several shards each shard
// runs the range kernel over its own rows with pi deferred, and one
// standalone ascending-row pass (linalg::simd::tvd_f64/tvd_mixed) reduces
// the stored state afterwards. The pipeline stages the next window while
// a shard computes (madvise for a raw pack, ADJC decode on a worker for a
// compressed one). Gathers of `scaled` rows owned by other shards read the
// RAM-resident lane state directly; the markov.shard.* metrics account
// that traffic, and only out-of-core sweeps pay for the accounting.
// Shards partition rows, the range kernels run the dense per-row body,
// skipped frontier rows hold exactly +0.0, and the standalone TVD
// reproduces the fused reduction's term sequence — so shard count and
// compression never change a bit (tests/markov/test_shard_parity.cpp).
// Only the state block (3 x n x block values) must fit in RAM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/frontier.hpp"
#include "graph/graph.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/shard_pipeline.hpp"
#include "linalg/simd/kernels.hpp"
#include "util/aligned.hpp"

namespace socmix::markov {

class BatchedEvolver {
 public:
  /// Block width used by measure_sampled_mixing. 32 lanes of doubles are
  /// four cache lines per vertex: the random gather per edge transfers
  /// lines that serve 32 sources instead of one, and the wide inner loop
  /// keeps the vector units busy while those lines arrive. Measured on a
  /// BA(1M, 5) graph this is the fastest width from 2..32 both with and
  /// without -march=native (see bench_results/micro_parallel.csv).
  static constexpr std::size_t kDefaultBlock = 32;
  /// Upper bound on the block width (keeps per-row accumulators on the
  /// stack in the sweep kernel).
  static constexpr std::size_t kMaxBlock = linalg::simd::kMaxLanes;

  /// Throws on laziness outside [0, 1), an isolated vertex, block outside
  /// [1, kMaxBlock], a frontier threshold outside (0, 1], or a `plan`
  /// (default: one shard) that does not cover the graph with >= 1 shard.
  /// `mapped`, when non-null, must back `g` and outlive the evolver; it
  /// enables the madvise windowing. A headless `g` (compressed container)
  /// requires its `mapped` and a disabled frontier policy (the closure
  /// walk needs in-memory adjacency).
  explicit BatchedEvolver(
      const graph::Graph& g, double laziness = 0.0, std::size_t block = kDefaultBlock,
      graph::FrontierPolicy frontier = {},
      linalg::simd::Precision precision = linalg::simd::Precision::kFloat64,
      std::optional<graph::ShardPlan> plan = std::nullopt,
      const graph::sharded::MappedGraph* mapped = nullptr);

  [[nodiscard]] std::size_t dim() const noexcept { return inv_deg_.size(); }
  [[nodiscard]] std::size_t block() const noexcept { return block_; }
  /// Lanes currently holding a distribution (set by seed_point_masses).
  [[nodiscard]] std::size_t active() const noexcept { return active_; }
  [[nodiscard]] double laziness() const noexcept { return laziness_; }
  [[nodiscard]] linalg::simd::Precision precision() const noexcept { return precision_; }
  [[nodiscard]] const graph::FrontierPolicy& frontier_policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] const graph::ShardPlan& plan() const noexcept {
    return pipeline_->plan();
  }
  /// True while the engine is still sweeping only the support closure.
  [[nodiscard]] bool in_sparse_phase() const noexcept { return sparse_phase_; }
  /// Step (1-based, counted from the last seeding) whose sweep first ran
  /// dense; 0 while still sparse (or with the frontier off).
  [[nodiscard]] std::size_t switch_step() const noexcept { return switch_step_; }
  /// Rows swept since the last seeding; the frontier ablation divides
  /// this by steps * dim() for the rows-swept ratio.
  [[nodiscard]] std::uint64_t rows_swept() const noexcept { return rows_swept_; }

  /// Resets the block to point masses at `sources` (one lane per source,
  /// sources.size() <= block()).
  void seed_point_masses(std::span<const graph::NodeId> sources);

  /// Advances every active lane one step: lane_b <- lane_b * P.
  void step();

  /// step(), plus writes the total variation distance of each advanced
  /// lane against `pi` into tvd_out (size >= active()), computed inside
  /// the same sweep. In f64 precision this is bit-identical to calling
  /// step() and then linalg::total_variation per lane; in mixed precision
  /// it deviates by at most linalg::simd::kMixedTvdBudget.
  void step_with_tvd(std::span<const double> pi, std::span<double> tvd_out);

  /// Copies lane `lane` (< active()) into `out` (size dim()); mixed-
  /// precision state is widened to double.
  void copy_distribution(std::size_t lane, std::span<double> out) const;

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }

 private:
  /// One SpMM sweep cur -> next (swapping after); when pi is non-null,
  /// also accumulates per-lane |next - pi| row by row into tvd_out.
  void sweep(const double* pi, double* tvd_out);

  const graph::Graph* graph_;
  /// unique_ptr: the pipeline owns a worker thread and is neither
  /// copyable nor movable; the evolver stays movable through it.
  std::unique_ptr<linalg::ShardPipeline> pipeline_;
  util::aligned_vector<double> inv_deg_;
  // Lane-major state blocks, [dim x block]: cur_[v*block + lane]. Exactly
  // one precision's trio is allocated. 64-byte alignment makes every row
  // of the default 32-lane block start on a cache line (and a zmm-load
  // boundary); see util/aligned.hpp.
  util::aligned_vector<double> cur_;
  util::aligned_vector<double> next_;
  /// Prescaled block cur_[v*block + b] * inv_deg_[v], recomputed each
  /// sweep so the irregular edge gather is a single stream (see sweep()).
  util::aligned_vector<double> scaled_;
  // Mixed-precision twins (f32 state, widened to f64 inside the kernels).
  util::aligned_vector<float> cur32_;
  util::aligned_vector<float> next32_;
  util::aligned_vector<float> scaled32_;
  /// Scratch of a multi-shard sweep: the current shard's rows (frontier
  /// closure clipped to the shard, or the whole shard when dense).
  std::vector<graph::RowRange> shard_ranges_;
  double laziness_;
  std::size_t block_;
  linalg::simd::Precision precision_;
  std::size_t active_ = 0;

  // Frontier phase state. The sparse kernels rely on every row outside
  // the closure holding exactly +0.0 in cur/next/scaled;
  // seed_point_masses re-establishes that invariant by zeroing only the
  // rows the previous run touched (dense_dirty_ tracks when that was
  // everything).
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
  /// metric); counted once at construction, out-of-core and observed only.
  graph::EdgeIndex boundary_half_edges_ = 0;
};

}  // namespace socmix::markov
