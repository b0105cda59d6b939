#include "markov/batched_evolver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"

namespace socmix::markov {

BatchedEvolver::BatchedEvolver(const graph::Graph& g, double laziness, std::size_t block,
                               graph::FrontierPolicy frontier,
                               linalg::simd::Precision precision,
                               std::optional<graph::ShardPlan> plan,
                               const graph::sharded::MappedGraph* mapped)
    : graph_(&g), laziness_(laziness), block_(block), precision_(precision),
      policy_(frontier) {
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument{"BatchedEvolver: laziness must be in [0, 1)"};
  }
  if (g.headless() && policy_.enabled()) {
    throw std::invalid_argument{
        "BatchedEvolver: the frontier optimization needs in-memory adjacency; "
        "disable it for compressed containers"};
  }
  if (block < 1 || block > kMaxBlock) {
    throw std::invalid_argument{"BatchedEvolver: block must be in [1, kMaxBlock]"};
  }
  if (policy_.enabled() &&
      !(policy_.row_fraction() > 0.0 && policy_.row_fraction() <= 1.0)) {
    throw std::invalid_argument{"BatchedEvolver: frontier threshold must be in (0, 1]"};
  }
  const graph::NodeId n = g.num_nodes();
  if (!plan) plan = graph::ShardPlan::single(n);
  if (plan->dim() != n || plan->num_shards() == 0) {
    throw std::invalid_argument{"BatchedEvolver: plan does not cover the graph"};
  }
  inv_deg_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const graph::NodeId d = g.degree(v);
    if (d == 0) {
      throw std::invalid_argument{
          "BatchedEvolver: graph has an isolated vertex; extract the largest "
          "connected component first"};
    }
    inv_deg_[v] = 1.0 / static_cast<double>(d);
  }
  const std::size_t cells = static_cast<std::size_t>(n) * block_;
  if (precision_ == linalg::simd::Precision::kMixed) {
    cur32_.resize(cells);
    next32_.resize(cells);
    scaled32_.resize(cells);
  } else {
    cur_.resize(cells);
    next_.resize(cells);
    scaled_.resize(cells);
  }
  if (policy_.enabled()) {
    frontier_ = graph::FrontierSet{n};
    switch_rows_ = std::max<graph::NodeId>(
        1, static_cast<graph::NodeId>(policy_.row_fraction() * static_cast<double>(n)));
  }
  pipeline_ = std::make_unique<linalg::ShardPipeline>(g, std::move(*plan), mapped);
#if SOCMIX_OBS_ENABLED
  if (pipeline_->out_of_core()) {
    // One sequential CSR pass prices the boundary-exchange metric. A
    // headless view has no in-memory adjacency to walk: the metric reads
    // 0 there rather than decoding the whole container to price it.
    const graph::ShardPlan& shards = pipeline_->plan();
    if (!g.headless()) {
      boundary_half_edges_ = graph::count_boundary_half_edges(g, shards);
    }
    SOCMIX_GAUGE_SET("markov.shard.count", shards.num_shards());
    SOCMIX_GAUGE_SET("markov.shard.boundary_half_edges", boundary_half_edges_);
    if (mapped != nullptr) {
      std::size_t window_bytes = 0;
      for (std::uint32_t s = 0; s < shards.num_shards(); ++s) {
        window_bytes =
            std::max(window_bytes, mapped->window_bytes(shards.begin(s), shards.end(s)));
      }
      SOCMIX_GAUGE_SET("markov.shard.window_bytes", window_bytes);
    }
  }
#endif
}

void BatchedEvolver::seed_point_masses(std::span<const graph::NodeId> sources) {
  if (sources.size() > block_) {
    throw std::invalid_argument{"BatchedEvolver: more sources than lanes"};
  }
  for (const graph::NodeId s : sources) {
    if (s >= dim()) {
      throw std::out_of_range{"BatchedEvolver: source vertex out of range"};
    }
  }
  const auto reseed = [&](auto& cur, auto& next, auto& scaled) {
    using T = typename std::remove_reference_t<decltype(cur)>::value_type;
    if (policy_.enabled()) {
      // Frontier invariant: every row outside the closure must hold exactly
      // +0.0 in all three buffers (the sparse kernels neither write nor
      // prescale it, and gathers may read it). Fresh buffers already do;
      // afterwards only the rows the previous run touched — its final
      // closure, or everything once it went dense — need re-zeroing.
      if (dense_dirty_) {
        std::fill(cur.begin(), cur.end(), T{0});
        std::fill(next.begin(), next.end(), T{0});
        std::fill(scaled.begin(), scaled.end(), T{0});
        dense_dirty_ = false;
      } else if (seeded_) {
        for (const graph::RowRange r : frontier_.ranges()) {
          const auto lo = static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r.begin) * block_);
          const auto hi = static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r.end) * block_);
          std::fill(cur.begin() + lo, cur.begin() + hi, T{0});
          std::fill(next.begin() + lo, next.begin() + hi, T{0});
          std::fill(scaled.begin() + lo, scaled.begin() + hi, T{0});
        }
      }
      frontier_.reset(sources);
      sparse_phase_ = true;
    } else {
      std::fill(cur.begin(), cur.end(), T{0});
    }
    for (std::size_t b = 0; b < sources.size(); ++b) {
      cur[static_cast<std::size_t>(sources[b]) * block_ + b] = T{1};
    }
  };
  if (precision_ == linalg::simd::Precision::kMixed) {
    reseed(cur32_, next32_, scaled32_);
  } else {
    reseed(cur_, next_, scaled_);
  }
  active_ = sources.size();
  seeded_ = true;
  steps_since_seed_ = 0;
  switch_step_ = 0;
  rows_swept_ = 0;
}

void BatchedEvolver::sweep(const double* pi, double* tvd_out) {
  SOCMIX_TRACE_SPAN("evolver.sweep");
  const graph::Graph& g = *graph_;
  const graph::NodeId n = g.num_nodes();
  const bool mixed = precision_ == linalg::simd::Precision::kMixed;
  const graph::ShardPlan& plan = pipeline_->plan();
  const std::uint32_t shards = plan.num_shards();

#if SOCMIX_OBS_ENABLED
  // Sweep-granular accounting only: the kernels below stay untouched.
  const auto sweep_start = std::chrono::steady_clock::now();
  const bool unrolled =
      active_ == 4 || active_ == 8 || active_ == 16 || active_ == 32;
  const bool out_of_core = pipeline_->out_of_core();
  graph::sharded::PageFaults faults_before{};
  if (out_of_core) faults_before = graph::sharded::process_page_faults();
#endif

  // Frontier phase: grow the support closure first (next can be nonzero
  // only inside S_{t+1} = S_t ∪ N(S_t)), then retire the sparse phase for
  // good once the closure reaches the policy's row fraction.
  bool use_frontier = sparse_phase_;
  if (use_frontier) {
    frontier_.expand(g);
    if (frontier_.covered_rows() >= switch_rows_) {
      sparse_phase_ = false;
      use_frontier = false;
      switch_step_ = steps_since_seed_ + 1;
      SOCMIX_COUNTER_ADD("markov.frontier.switches", 1);
      SOCMIX_GAUGE_SET("markov.frontier.switch_step", switch_step_);
    }
  }
  const std::span<const graph::RowRange> ranges = frontier_.ranges();

  // Prescale pass: one sequential stream over the block computing
  // scaled[i*stride + b] = cur[i*stride + b] * inv_deg_[i]. Each product
  // is rounded exactly as the old per-edge multiply was, so hoisting it
  // changes no bits — it only turns the irregular inner loop into a single
  // gather + add per edge instead of two gathers + FMA. In the frontier
  // phase only closure rows are prescaled; the rest of scaled already
  // holds the +0.0 the dense prescale would produce (seed invariant).
  // Mixed precision widens each f32 cell to f64, multiplies, and rounds
  // the product once — elementwise, so identical in every kernel tier.
  const std::size_t lanes = active_;
  const auto prescale_rows = [&](const auto* cur, auto* scaled) {
    using T = std::remove_reference_t<decltype(*scaled)>;
    const auto prescale = [&](graph::NodeId lo, graph::NodeId hi) {
      for (graph::NodeId i = lo; i < hi; ++i) {
        const double w = inv_deg_[i];
        const std::size_t base = static_cast<std::size_t>(i) * block_;
        for (std::size_t b = 0; b < lanes; ++b) {
          scaled[base + b] = static_cast<T>(static_cast<double>(cur[base + b]) * w);
        }
      }
    };
    if (use_frontier) {
      for (const graph::RowRange r : ranges) prescale(r.begin, r.end);
    } else {
      prescale(0, n);
    }
  };
  if (mixed) {
    prescale_rows(cur32_.data(), scaled32_.data());
  } else {
    prescale_rows(cur_.data(), scaled_.data());
  }

  // One dispatch-table call per shard. The kernel dispatches internally on
  // the *active* lane count; stride stays block_, so partially filled
  // blocks (the tail of an odd source list) still hit a wide kernel when
  // their lane count is a supported width. One shard fuses the TVD into
  // the sweep; several defer it to the standalone pass below, because a
  // shard's kernel sees only its own rows.
  const bool fused = shards == 1;
  linalg::simd::SpmmArgs base;
  base.n = n;
  base.stride = block_;
  base.lanes = active_;
  base.walk_weight = 1.0 - laziness_;
  base.laziness = laziness_;
  if (fused) {
    base.pi = pi;
    base.tvd_out = tvd_out;
  }
  const linalg::simd::KernelTable& kernels = linalg::simd::dispatch();
  for (std::uint32_t s = 0; s < shards; ++s) {
    const graph::NodeId lo = plan.begin(s);
    const graph::NodeId hi = plan.end(s);
    const linalg::ShardWindow w = pipeline_->acquire(s);
    linalg::simd::SpmmArgs args = base;
    args.offsets = w.offsets;
    args.neighbors = w.neighbors;
    std::size_t row_bias = 0;
    if (w.local) {
      // Decoded window: rows are kernel-local ([0, hi-lo), offsets
      // indexing the scratch neighbors), so the streamed state blocks are
      // rebased by lo rows while the gather source stays absolute
      // (neighbor ids are absolute). Same per-row FP sequence, shifted
      // pointers. The frontier is off here (enforced at construction), so
      // the shard is swept dense.
      args.n = hi - lo;
      row_bias = static_cast<std::size_t>(lo) * block_;
    } else if (fused) {
      if (use_frontier) {
        args.ranges = ranges.data();
        args.num_ranges = ranges.size();
      }
    } else {
      // The shard's rows: closure ranges clipped to [lo, hi) (sorted
      // disjoint stays sorted disjoint under clipping), or the whole shard.
      shard_ranges_.clear();
      if (use_frontier) {
        for (const graph::RowRange r : ranges) {
          const graph::NodeId begin = std::max(r.begin, lo);
          const graph::NodeId end = std::min(r.end, hi);
          if (begin < end) shard_ranges_.push_back({begin, end});
        }
      } else if (lo < hi) {
        shard_ranges_.push_back({lo, hi});
      }
      if (shard_ranges_.empty()) continue;
      args.ranges = shard_ranges_.data();
      args.num_ranges = shard_ranges_.size();
    }
    if (mixed) {
      kernels.spmm_mixed(args, scaled32_.data(), cur32_.data() + row_bias,
                         next32_.data() + row_bias);
    } else {
      kernels.spmm_f64(args, scaled_.data(), cur_.data() + row_bias,
                       next_.data() + row_bias);
    }
  }
  pipeline_->finish_sweep();

  // Deferred TVD: one ascending-row pass over the stored next state,
  // bit-identical to the fused reduction (see linalg::simd::tvd_*).
  if (!fused && pi != nullptr) {
    if (mixed) {
      linalg::simd::tvd_mixed(next32_.data(), block_, active_, pi, n, tvd_out);
    } else {
      linalg::simd::tvd_f64(next_.data(), block_, active_, pi, n, tvd_out);
    }
  }
  if (mixed) {
    cur32_.swap(next32_);
  } else {
    cur_.swap(next_);
  }
  if (!use_frontier) dense_dirty_ = true;
  ++steps_since_seed_;
  const graph::NodeId swept = use_frontier ? frontier_.covered_rows() : n;
  rows_swept_ += swept;

#if SOCMIX_OBS_ENABLED
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();
  SOCMIX_COUNTER_ADD("markov.evolver.sweeps", 1);
  SOCMIX_COUNTER_ADD("markov.evolver.rows_swept", swept);
  SOCMIX_COUNTER_ADD("markov.evolver.lane_steps", active_);
  if (unrolled) {
    SOCMIX_COUNTER_ADD("markov.evolver.sweeps_unrolled", 1);
  } else {
    SOCMIX_COUNTER_ADD("markov.evolver.sweeps_generic", 1);
  }
  if (mixed) {
    SOCMIX_COUNTER_ADD("markov.evolver.sweeps_mixed", 1);
  }
  if (pi != nullptr) {
    SOCMIX_COUNTER_ADD("markov.evolver.fused_tvd_sweeps", 1);
    SOCMIX_TIME_OBSERVE("markov.evolver.fused_tvd_sweep_seconds", sweep_seconds);
  } else {
    SOCMIX_TIME_OBSERVE("markov.evolver.sweep_seconds", sweep_seconds);
  }
  if (policy_.enabled()) {
    if (use_frontier) {
      SOCMIX_COUNTER_ADD("markov.frontier.sweeps_sparse", 1);
      SOCMIX_COUNTER_ADD("markov.frontier.rows_swept", swept);
      SOCMIX_COUNTER_ADD("markov.frontier.rows_skipped", n - swept);
      SOCMIX_TIME_OBSERVE("markov.frontier.sparse_sweep_seconds", sweep_seconds);
    } else {
      SOCMIX_COUNTER_ADD("markov.frontier.sweeps_dense", 1);
      SOCMIX_TIME_OBSERVE("markov.frontier.dense_sweep_seconds", sweep_seconds);
    }
  }
  if (out_of_core) {
    const auto faults_after = graph::sharded::process_page_faults();
    const std::size_t state_bytes = mixed ? sizeof(float) : sizeof(double);
    SOCMIX_COUNTER_ADD("markov.shard.sweeps", 1);
    SOCMIX_COUNTER_ADD("markov.shard.shards_swept", shards);
    // Cross-shard gather traffic of a dense sweep: every boundary
    // half-edge reads one foreign lane row of the prescaled state.
    SOCMIX_COUNTER_ADD("markov.shard.boundary_bytes",
                       boundary_half_edges_ * active_ * state_bytes);
    SOCMIX_COUNTER_ADD("markov.shard.mmap_minor_faults",
                       faults_after.minor - faults_before.minor);
    SOCMIX_COUNTER_ADD("markov.shard.mmap_major_faults",
                       faults_after.major - faults_before.major);
    SOCMIX_TIME_OBSERVE("markov.shard.sweep_seconds", sweep_seconds);
  }
#endif
}

void BatchedEvolver::step() { sweep(nullptr, nullptr); }

void BatchedEvolver::step_with_tvd(std::span<const double> pi, std::span<double> tvd_out) {
  if (pi.size() != dim()) {
    throw std::invalid_argument{"BatchedEvolver: pi has wrong dimension"};
  }
  if (tvd_out.size() < active_) {
    throw std::invalid_argument{"BatchedEvolver: tvd_out smaller than active lanes"};
  }
  sweep(pi.data(), tvd_out.data());
}

void BatchedEvolver::copy_distribution(std::size_t lane, std::span<double> out) const {
  if (lane >= active_) {
    throw std::out_of_range{"BatchedEvolver: lane not active"};
  }
  if (out.size() != dim()) {
    throw std::invalid_argument{"BatchedEvolver: output has wrong dimension"};
  }
  const std::size_t n = dim();
  if (precision_ == linalg::simd::Precision::kMixed) {
    for (std::size_t v = 0; v < n; ++v) {
      out[v] = static_cast<double>(cur32_[v * block_ + lane]);
    }
  } else {
    for (std::size_t v = 0; v < n; ++v) out[v] = cur_[v * block_ + lane];
  }
}

}  // namespace socmix::markov
