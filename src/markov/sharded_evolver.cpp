#include "markov/sharded_evolver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/obs.hpp"

namespace socmix::markov {

ShardedBatchedEvolver::ShardedBatchedEvolver(const graph::Graph& g, graph::ShardPlan plan,
                                             double laziness, std::size_t block,
                                             graph::FrontierPolicy frontier,
                                             linalg::simd::Precision precision,
                                             const graph::sharded::MappedGraph* mapped)
    : graph_(&g), mapped_(mapped), plan_(std::move(plan)), laziness_(laziness),
      block_(block), precision_(precision), policy_(frontier) {
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument{"ShardedBatchedEvolver: laziness must be in [0, 1)"};
  }
  if (g.headless() && policy_.enabled()) {
    throw std::invalid_argument{
        "ShardedBatchedEvolver: the frontier optimization needs in-memory "
        "adjacency; disable it for compressed containers"};
  }
  if (block < 1 || block > kMaxBlock) {
    throw std::invalid_argument{"ShardedBatchedEvolver: block must be in [1, kMaxBlock]"};
  }
  if (policy_.enabled() &&
      !(policy_.row_fraction() > 0.0 && policy_.row_fraction() <= 1.0)) {
    throw std::invalid_argument{
        "ShardedBatchedEvolver: frontier threshold must be in (0, 1]"};
  }
  if (plan_.dim() != g.num_nodes() || plan_.num_shards() == 0) {
    throw std::invalid_argument{"ShardedBatchedEvolver: plan does not cover the graph"};
  }
  const graph::NodeId n = g.num_nodes();
  inv_deg_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const graph::NodeId d = g.degree(v);
    if (d == 0) {
      throw std::invalid_argument{
          "ShardedBatchedEvolver: graph has an isolated vertex; extract the largest "
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
#if SOCMIX_OBS_ENABLED
  // One sequential CSR pass; prices the boundary-exchange metric below.
  // A headless view has no in-memory adjacency to walk — the metric reads
  // 0 there rather than decoding the whole container to price it.
  if (!g.headless()) {
    boundary_half_edges_ = graph::count_boundary_half_edges(g, plan_);
  }
  SOCMIX_GAUGE_SET("markov.shard.count", plan_.num_shards());
  SOCMIX_GAUGE_SET("markov.shard.boundary_half_edges", boundary_half_edges_);
#endif
  pipeline_ = std::make_unique<linalg::ShardPipeline>(g, plan_, mapped_);
}

void ShardedBatchedEvolver::seed_point_masses(std::span<const graph::NodeId> sources) {
  if (sources.size() > block_) {
    throw std::invalid_argument{"ShardedBatchedEvolver: more sources than lanes"};
  }
  for (const graph::NodeId s : sources) {
    if (s >= dim()) {
      throw std::out_of_range{"ShardedBatchedEvolver: source vertex out of range"};
    }
  }
  // Identical re-zero invariant as BatchedEvolver::seed_point_masses.
  const auto reseed = [&](auto& cur, auto& next, auto& scaled) {
    using T = typename std::remove_reference_t<decltype(cur)>::value_type;
    if (policy_.enabled()) {
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

void ShardedBatchedEvolver::sweep(const double* pi, double* tvd_out) {
  SOCMIX_TRACE_SPAN("evolver.sweep_sharded");
  const graph::Graph& g = *graph_;
  const graph::NodeId n = g.num_nodes();
  const double walk_weight = 1.0 - laziness_;
  const bool mixed = precision_ == linalg::simd::Precision::kMixed;

#if SOCMIX_OBS_ENABLED
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto faults_before = graph::sharded::process_page_faults();
#endif

  // Frontier phase bookkeeping — identical to BatchedEvolver::sweep.
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

  // Prescale: the state block lives in RAM, so this is the identical
  // dense/frontier pass of BatchedEvolver::sweep — no shard dimension.
  const std::size_t lanes = active_;
  if (mixed) {
    const float* cur = cur32_.data();
    float* scaled = scaled32_.data();
    const auto prescale = [&](graph::NodeId lo, graph::NodeId hi) {
      for (graph::NodeId i = lo; i < hi; ++i) {
        const double w = inv_deg_[i];
        const std::size_t base = static_cast<std::size_t>(i) * block_;
        for (std::size_t b = 0; b < lanes; ++b) {
          scaled[base + b] = static_cast<float>(static_cast<double>(cur[base + b]) * w);
        }
      }
    };
    if (use_frontier) {
      for (const graph::RowRange r : ranges) prescale(r.begin, r.end);
    } else {
      prescale(0, n);
    }
  } else {
    const double* cur = cur_.data();
    double* scaled = scaled_.data();
    const auto prescale = [&](graph::NodeId lo, graph::NodeId hi) {
      for (graph::NodeId i = lo; i < hi; ++i) {
        const double w = inv_deg_[i];
        const std::size_t base = static_cast<std::size_t>(i) * block_;
        for (std::size_t b = 0; b < lanes; ++b) scaled[base + b] = cur[base + b] * w;
      }
    };
    if (use_frontier) {
      for (const graph::RowRange r : ranges) prescale(r.begin, r.end);
    } else {
      prescale(0, n);
    }
  }

  // Shard loop. Every shard sweep is a range-driven SpMM over the shard's
  // rows with the TVD deferred (pi null): the range kernels run the same
  // per-row body as the dense kernels, so grouping rows by shard changes
  // no bits. Window staging (advise-ahead, ADJC decode on the worker)
  // lives in the pipeline; each acquired window holds the identical
  // neighbor sequence, so compression changes no bits either.
  linalg::simd::SpmmArgs base;
  base.n = n;
  base.stride = block_;
  base.lanes = active_;
  base.walk_weight = walk_weight;
  base.laziness = laziness_;
  const linalg::simd::KernelTable& kernels = linalg::simd::dispatch();
  const std::uint32_t shards = plan_.num_shards();
#if SOCMIX_OBS_ENABLED
  std::size_t max_window_bytes = 0;
#endif
  for (std::uint32_t s = 0; s < shards; ++s) {
    const graph::NodeId lo = plan_.begin(s);
    const graph::NodeId hi = plan_.end(s);
    const linalg::ShardWindow w = pipeline_->acquire(s);
    shard_ranges_.clear();
    if (use_frontier) {
      // Closure ranges clipped to [lo, hi); sorted disjoint stays sorted
      // disjoint under clipping.
      for (const graph::RowRange r : ranges) {
        const graph::NodeId begin = std::max(r.begin, lo);
        const graph::NodeId end = std::min(r.end, hi);
        if (begin < end) shard_ranges_.push_back({begin, end});
      }
    } else if (lo < hi) {
      shard_ranges_.push_back({lo, hi});
    }
    if (!shard_ranges_.empty()) {
      linalg::simd::SpmmArgs args = base;
      args.offsets = w.offsets;
      args.neighbors = w.neighbors;
      if (w.local) {
        // Decoded window: rows are kernel-local ([0, hi-lo), offsets
        // indexing the scratch neighbors), so the streamed state blocks
        // are rebased by lo rows while the gather source stays absolute
        // (neighbor ids are absolute). Same per-row FP sequence, shifted
        // pointers — bit-identical by construction. Frontier is off here
        // (enforced at construction), so the shard range is dense.
        args.n = hi - lo;
        const std::size_t row_bias = static_cast<std::size_t>(lo) * block_;
        if (mixed) {
          kernels.spmm_mixed(args, scaled32_.data(), cur32_.data() + row_bias,
                             next32_.data() + row_bias);
        } else {
          kernels.spmm_f64(args, scaled_.data(), cur_.data() + row_bias,
                           next_.data() + row_bias);
        }
      } else {
        args.ranges = shard_ranges_.data();
        args.num_ranges = shard_ranges_.size();
        if (mixed) {
          kernels.spmm_mixed(args, scaled32_.data(), cur32_.data(), next32_.data());
        } else {
          kernels.spmm_f64(args, scaled_.data(), cur_.data(), next_.data());
        }
      }
    }
#if SOCMIX_OBS_ENABLED
    if (mapped_ != nullptr && !shard_ranges_.empty()) {
      max_window_bytes = std::max(
          max_window_bytes, mapped_->window_bytes(shard_ranges_.front().begin,
                                                  shard_ranges_.back().end));
    }
#endif
  }
  pipeline_->finish_sweep();

  // Deferred TVD: one ascending-row pass over the stored next state,
  // bit-identical to the fused reduction (see linalg::simd::tvd_*).
  if (pi != nullptr) {
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
  const auto faults_after = graph::sharded::process_page_faults();
  const std::size_t state_bytes = mixed ? sizeof(float) : sizeof(double);
  SOCMIX_COUNTER_ADD("markov.evolver.sweeps", 1);
  SOCMIX_COUNTER_ADD("markov.evolver.rows_swept", swept);
  SOCMIX_COUNTER_ADD("markov.evolver.lane_steps", active_);
  SOCMIX_COUNTER_ADD("markov.shard.sweeps", 1);
  SOCMIX_COUNTER_ADD("markov.shard.shards_swept", shards);
  // Cross-shard gather traffic of a dense sweep: every boundary half-edge
  // reads one foreign lane row of the prescaled state.
  SOCMIX_COUNTER_ADD("markov.shard.boundary_bytes",
                     boundary_half_edges_ * active_ * state_bytes);
  SOCMIX_COUNTER_ADD("markov.shard.mmap_minor_faults",
                     faults_after.minor - faults_before.minor);
  SOCMIX_COUNTER_ADD("markov.shard.mmap_major_faults",
                     faults_after.major - faults_before.major);
  if (max_window_bytes > 0) {
    SOCMIX_GAUGE_SET("markov.shard.window_bytes", max_window_bytes);
  }
  SOCMIX_TIME_OBSERVE("markov.shard.sweep_seconds", sweep_seconds);
  if (mixed) SOCMIX_COUNTER_ADD("markov.evolver.sweeps_mixed", 1);
  if (policy_.enabled()) {
    if (use_frontier) {
      SOCMIX_COUNTER_ADD("markov.frontier.sweeps_sparse", 1);
      SOCMIX_COUNTER_ADD("markov.frontier.rows_swept", swept);
      SOCMIX_COUNTER_ADD("markov.frontier.rows_skipped", n - swept);
    } else {
      SOCMIX_COUNTER_ADD("markov.frontier.sweeps_dense", 1);
    }
  }
#endif
}

void ShardedBatchedEvolver::step() { sweep(nullptr, nullptr); }

void ShardedBatchedEvolver::step_with_tvd(std::span<const double> pi,
                                          std::span<double> tvd_out) {
  if (pi.size() != dim()) {
    throw std::invalid_argument{"ShardedBatchedEvolver: pi has wrong dimension"};
  }
  if (tvd_out.size() < active_) {
    throw std::invalid_argument{"ShardedBatchedEvolver: tvd_out smaller than active lanes"};
  }
  sweep(pi.data(), tvd_out.data());
}

void ShardedBatchedEvolver::copy_distribution(std::size_t lane,
                                              std::span<double> out) const {
  if (lane >= active_) {
    throw std::out_of_range{"ShardedBatchedEvolver: lane not active"};
  }
  if (out.size() != dim()) {
    throw std::invalid_argument{"ShardedBatchedEvolver: output has wrong dimension"};
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
