// The contract of the out-of-core sweep: the shard geometry follows the
// input (an in-memory graph is one shard, a packed .smxg container sweeps
// the plan it was packed with), and trajectories computed shard-at-a-time
// through a container are BIT-IDENTICAL to the one-shard in-memory sweep —
//
//  * on every Table-1 generator config, raw or compressed (ADJC, decoded
//    ahead on the pipeline worker), for pack plans of {1, 4, 16} shards,
//    at serial and contended thread counts;
//  * composed with the frontier phase and mixed precision;
//  * across a fault-injected kill and checkpoint resume under sharding,
//    including a kill at a shard boundary mid-decode;
//  * and a snapshot written under a foreign shard geometry is classified
//    stale and recomputed, never replayed.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/frontier.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/simd/kernels.hpp"
#include "linalg/walk_operator.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/parallel.hpp"

namespace socmix::markov {
namespace {

namespace fs = std::filesystem;

constexpr graph::NodeId kNodes = 400;
constexpr std::size_t kSources = 8;
constexpr std::size_t kSteps = 30;

std::vector<graph::NodeId> spread_sources(const graph::Graph& g,
                                          std::size_t count = kSources) {
  std::vector<graph::NodeId> sources;
  const graph::NodeId stride =
      std::max<graph::NodeId>(1, g.num_nodes() / static_cast<graph::NodeId>(count));
  for (graph::NodeId v = 0; sources.size() < count && v < g.num_nodes(); v += stride) {
    sources.push_back(v);
  }
  return sources;
}

// Packs `g` under a balanced `shards`-way plan — the geometry every sweep
// over the container follows — and maps it back. The file is unlinked
// once mapped; the mapping (or the heap fallback's copy) outlives it.
graph::sharded::MappedGraph pack(const graph::Graph& g, std::uint32_t shards,
                                 const std::string& name, bool compress = false) {
  const std::string path = (fs::path{testing::TempDir()} / (name + ".smxg")).string();
  graph::sharded::WriteOptions options;
  options.compress = compress;
  graph::sharded::write_smxg_file(path, g, graph::ShardPlan::balanced(g.offsets(), shards),
                                  options);
  graph::sharded::MappedGraph mapped{path};
  std::remove(path.c_str());
  return mapped;
}

SampledMixing run(const graph::Graph& g, std::span<const graph::NodeId> sources,
                  const SampledMixingOptions& options) {
  return measure_sampled_mixing(g, sources, options);
}

SampledMixingOptions base_options() {
  SampledMixingOptions options;
  options.max_steps = kSteps;
  return options;
}

void expect_bitwise_equal(const SampledMixing& a, const SampledMixing& b,
                          const std::string& label) {
  ASSERT_EQ(a.num_sources(), b.num_sources()) << label;
  for (std::size_t s = 0; s < a.num_sources(); ++s) {
    for (std::size_t t = 1; t <= a.max_steps(); ++t) {
      ASSERT_EQ(a.tvd(s, t), b.tvd(s, t)) << label << " s=" << s << " t=" << t;
    }
  }
}

TEST(ShardParity, ComposesWithFrontierReorderAndMixedPrecision) {
  // Vertex ordering is baked in at pack time, so each ordering is a
  // relabeled graph (sources mapped through the permutation) packed under
  // 4- and 16-shard plans; frontier x precision then runs on every pack.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph original = gen::build_dataset(*spec, kNodes, 5);
  struct Combo {
    const char* frontier;
    linalg::simd::Precision precision;
    const char* label;
  };
  const Combo combos[] = {
      {"auto", linalg::simd::Precision::kFloat64, "frontier"},
      {"off", linalg::simd::Precision::kMixed, "mixed"},
      {"auto", linalg::simd::Precision::kMixed, "frontier+mixed"},
  };
  for (const graph::ReorderMode reorder :
       {graph::ReorderMode::kNone, graph::ReorderMode::kRcm}) {
    const auto perm = graph::reorder_permutation(original, reorder);
    const graph::Graph g = graph::apply_permutation(original, perm);
    std::vector<graph::NodeId> sources;
    for (const graph::NodeId s : spread_sources(original)) sources.push_back(perm[s]);
    const std::string order{graph::reorder_mode_name(reorder)};
    const graph::sharded::MappedGraph packs[] = {pack(g, 4, "compose_4_" + order),
                                                 pack(g, 16, "compose_16_" + order)};
    for (const Combo& combo : combos) {
      SampledMixingOptions dense_options = base_options();
      dense_options.frontier = *graph::parse_frontier_policy(combo.frontier);
      dense_options.precision = combo.precision;
      const SampledMixing dense = run(g, sources, dense_options);
      for (const graph::sharded::MappedGraph& mapped : packs) {
        SampledMixingOptions options = dense_options;
        options.mapped = &mapped;
        const SampledMixing sharded = run(mapped.view(), sources, options);
        expect_bitwise_equal(dense, sharded,
                             std::string{combo.label} + " order=" + order + " shards=" +
                                 std::to_string(mapped.pack_plan().num_shards()));
      }
    }
  }
}

TEST(ShardParity, PipelineMatrixBitIdenticalToDenseOnEveryTable1Config) {
  // The pipeline contract: the adjacency representation (raw ADJ4 staged
  // inline vs ADJC decoded on the worker) changes no bit. Every Table-1
  // generator config, both containers, pack plans of {1, 4, 16} shards,
  // serial and contended threads — all bit-identical to the dense
  // in-memory engine.
  std::size_t dataset_index = 0;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const std::string tag = std::to_string(dataset_index++);
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    const SampledMixing dense = run(g, sources, base_options());

    for (const std::uint32_t count : {1u, 4u, 16u}) {
      const std::string geometry = tag + "_" + std::to_string(count);
      const graph::sharded::MappedGraph raw = pack(g, count, "pipe_raw_" + geometry);
      const graph::sharded::MappedGraph adjc =
          pack(g, count, "pipe_adjc_" + geometry, /*compress=*/true);
      ASSERT_FALSE(raw.compressed());
      ASSERT_TRUE(adjc.compressed());
      for (const bool compressed : {false, true}) {
        const graph::sharded::MappedGraph& mapped = compressed ? adjc : raw;
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          util::set_thread_count(threads);
          SampledMixingOptions options = base_options();
          options.mapped = &mapped;
          const SampledMixing sharded = run(mapped.view(), sources, options);
          util::set_thread_count(0);
          expect_bitwise_equal(dense, sharded,
                               spec.name + (compressed ? " adjc" : " raw") +
                                   " shards=" + std::to_string(count) +
                                   " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

#if SOCMIX_OBS_ENABLED
TEST(ShardParity, StagingFollowsTheContainer) {
  // No option picks the staging: a compressed pack decodes ahead on the
  // pipeline worker, a raw mapped pack stages inline and never does.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 19);
  const auto sources = spread_sources(g);
  const fs::path dir = fs::path{testing::TempDir()};
  const std::string raw_path = (dir / "staging_raw.smxg").string();
  const std::string adjc_path = (dir / "staging_adjc.smxg").string();
  const graph::ShardPlan pack_plan = graph::ShardPlan::balanced(g.offsets(), 4);
  graph::sharded::write_smxg_file(raw_path, g, pack_plan);
  graph::sharded::WriteOptions compress;
  compress.compress = true;
  graph::sharded::write_smxg_file(adjc_path, g, pack_plan, compress);

  const auto issued_during = [&](const std::string& path) {
    const auto issued = [] {
      for (const auto& counter : obs::Registry::instance().snapshot().counters) {
        if (counter.name == "markov.shard.prefetch_issued") return counter.value;
      }
      return std::uint64_t{0};
    };
    const graph::sharded::MappedGraph mapped{path};
    SampledMixingOptions options = base_options();
    options.mapped = &mapped;
    const std::uint64_t before = issued();
    (void)run(mapped.view(), sources, options);
    return issued() - before;
  };
  EXPECT_EQ(issued_during(raw_path), 0u);
  EXPECT_GT(issued_during(adjc_path), 0u);
  std::remove(raw_path.c_str());
  std::remove(adjc_path.c_str());
}

TEST(ShardParity, GeometryFollowsTheContainer) {
  // No option picks the geometry either: a pack sweeps the plan it was
  // packed with, an in-memory graph is one shard.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 29);
  const auto sources = spread_sources(g);
  const auto swept_shards = [] {
    for (const auto& gauge : obs::Registry::instance().snapshot().gauges) {
      if (gauge.name == "markov.sampled.shards") return gauge.value;
    }
    return -1.0;
  };
  const graph::sharded::MappedGraph mapped = pack(g, 4, "geometry_4");
  SampledMixingOptions options = base_options();
  options.mapped = &mapped;
  (void)run(mapped.view(), sources, options);
  EXPECT_EQ(swept_shards(), 4.0);
  (void)run(g, sources, base_options());
  EXPECT_EQ(swept_shards(), 1.0);
}

TEST(ShardParity, OnlyOutOfCoreSweepsPayForShardAccounting) {
  // Every dense run sweeps the one-shard in-memory plan: it must not
  // touch a shard counter. A 4-shard plan over the same graph accounts
  // both engines' sweeps.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 23);
  const std::vector<double> pi = stationary_distribution(g);
  const graph::NodeId seed[] = {0, 5};
  std::vector<double> tvd(2);
  std::vector<double> x(g.num_nodes(), 1.0);
  std::vector<double> y(g.num_nodes());
  const auto shard_counters = [] {
    std::map<std::string, std::uint64_t> out;
    for (const auto& counter : obs::Registry::instance().snapshot().counters) {
      if (counter.name.rfind("markov.shard.", 0) == 0 ||
          counter.name == "linalg.spmv.sharded_applies") {
        out[counter.name] = counter.value;
      }
    }
    return out;
  };

  const auto before_dense = shard_counters();
  {
    BatchedEvolver evolver{g};
    evolver.seed_point_masses(seed);
    evolver.step_with_tvd(pi, tvd);
    const linalg::WalkOperator op{g};
    op.apply(x, y);
  }
  EXPECT_EQ(shard_counters(), before_dense);

  const auto before_sharded = shard_counters();
  const graph::ShardPlan plan = graph::ShardPlan::balanced(g.offsets(), 4);
  {
    BatchedEvolver evolver(g, 0.0, BatchedEvolver::kDefaultBlock, {},
                           linalg::simd::Precision::kFloat64, plan);
    evolver.seed_point_masses(seed);
    evolver.step_with_tvd(pi, tvd);
    const linalg::WalkOperator op{g, 0.0, plan};
    op.apply(x, y);
  }
  const auto after_sharded = shard_counters();
  const auto delta = [&](const std::string& name) {
    const auto was = before_sharded.find(name);
    return after_sharded.at(name) - (was == before_sharded.end() ? 0 : was->second);
  };
  EXPECT_EQ(delta("markov.shard.sweeps"), 1u);
  EXPECT_EQ(delta("markov.shard.shards_swept"), 4u);
  EXPECT_GT(delta("markov.shard.boundary_bytes"), 0u);
  EXPECT_EQ(delta("linalg.spmv.sharded_applies"), 1u);
}
#endif

TEST(ShardParity, CompressedRejectsFrontierlessPreconditions) {
  // The compressed gating: an explicitly enabled frontier closure needs
  // in-memory adjacency; a headless graph without its mapped container is
  // unusable.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 5);
  const fs::path path = fs::path{testing::TempDir()} / "pipe_gate.smxg";
  graph::sharded::WriteOptions compress;
  compress.compress = true;
  graph::sharded::write_smxg_file(path.string(), g,
                                  graph::ShardPlan::balanced(g.offsets(), 4), compress);
  const graph::sharded::MappedGraph mapped{path.string()};
  const auto sources = spread_sources(mapped.view());

  const SampledMixingOptions no_mapped = base_options();
  EXPECT_THROW(measure_sampled_mixing(mapped.view(), sources, no_mapped),
               std::invalid_argument);

  // The evolver itself refuses a frontier walk on headless adjacency.
  EXPECT_THROW(BatchedEvolver(mapped.view(), 0.0, BatchedEvolver::kDefaultBlock,
                              *graph::parse_frontier_policy("auto"),
                              linalg::simd::Precision::kFloat64,
                              graph::ShardPlan::balanced(mapped.view().offsets(), 4),
                              &mapped),
               std::invalid_argument);
  std::remove(path.string().c_str());
}

TEST(ShardParity, PackedContainerMatchesInMemoryBitwise) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 17);
  const auto sources = spread_sources(g);
  const fs::path path = fs::path{testing::TempDir()} / "shard_parity.smxg";
  graph::sharded::write_smxg_file(path.string(), g,
                                  graph::ShardPlan::balanced(g.offsets(), 4));
  const graph::sharded::MappedGraph mapped{path.string()};
  ASSERT_EQ(mapped.view().num_nodes(), g.num_nodes());

  const SampledMixing dense = run(g, sources, base_options());

  SampledMixingOptions options = base_options();
  options.mapped = &mapped;
  const SampledMixing sharded = run(mapped.view(), sources, options);
  expect_bitwise_equal(dense, sharded, "mapped container, 4 shards");
  std::remove(path.string().c_str());
}

TEST(ShardParity, EvolverStateAccessorsMatchDense) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 7);
  const std::vector<double> pi = stationary_distribution(g);
  const graph::FrontierPolicy frontier = *graph::parse_frontier_policy("auto");

  BatchedEvolver dense{g, 0.0, BatchedEvolver::kDefaultBlock, frontier};
  BatchedEvolver sharded(g, 0.0, BatchedEvolver::kDefaultBlock, frontier,
                         linalg::simd::Precision::kFloat64,
                         graph::ShardPlan::balanced(g.offsets(), 8));
  const graph::NodeId seed[] = {0, 3};
  dense.seed_point_masses(seed);
  sharded.seed_point_masses(seed);
  EXPECT_EQ(sharded.plan().num_shards(), 8u);
  EXPECT_EQ(sharded.dim(), dense.dim());
  EXPECT_EQ(sharded.active(), dense.active());

  std::vector<double> tvd_dense(2), tvd_sharded(2);
  for (std::size_t t = 0; t < kSteps; ++t) {
    dense.step_with_tvd(pi, tvd_dense);
    sharded.step_with_tvd(pi, tvd_sharded);
    ASSERT_EQ(tvd_dense, tvd_sharded) << "t=" << t;
    // The frontier bookkeeping (sparse phase, switch step, rows swept)
    // tracks the dense engine exactly.
    ASSERT_EQ(sharded.in_sparse_phase(), dense.in_sparse_phase()) << "t=" << t;
    ASSERT_EQ(sharded.switch_step(), dense.switch_step()) << "t=" << t;
    ASSERT_EQ(sharded.rows_swept(), dense.rows_swept()) << "t=" << t;
  }

  std::vector<double> dist_dense(g.num_nodes()), dist_sharded(g.num_nodes());
  dense.copy_distribution(1, dist_dense);
  sharded.copy_distribution(1, dist_sharded);
  EXPECT_EQ(dist_dense, dist_sharded);
}

class ShardResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path{testing::TempDir()} /
           ("shard_resume_" +
            std::string{
                ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(dir_);
  }
  void TearDown() override {
    resilience::disarm_faults();
    fs::remove_all(dir_);
  }

  /// Checkpointed options over `mapped`'s pack plan, or over the
  /// in-memory one-shard plan when null.
  [[nodiscard]] SampledMixingOptions options(
      const graph::sharded::MappedGraph* mapped = nullptr) const {
    SampledMixingOptions opts = base_options();
    opts.mapped = mapped;
    opts.checkpoint.dir = dir_.string();
    opts.checkpoint.interval = 1;
    return opts;
  }

  fs::path dir_;
};

TEST_F(ShardResumeTest, KilledShardedRunResumesBitIdenticalToDense) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);
  const SampledMixing dense = run(g, sources, base_options());
  const graph::sharded::MappedGraph sharded = pack(g, 4, "resume_killed_4");

  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(sharded.view(), sources, options(&sharded)),
               resilience::InjectedFault);
  resilience::disarm_faults();

  const SampledMixing resumed =
      measure_sampled_mixing(sharded.view(), sources, options(&sharded));
  expect_bitwise_equal(dense, resumed, "resumed sharded vs uninterrupted dense");
}

TEST_F(ShardResumeTest, KilledMidPrefetchAcrossShardBoundaryResumesBitIdentical) {
  // The resilience case: kill a compressed run at a shard boundary — the
  // "shard.window" fault site fires inside ShardPipeline::acquire, i.e.
  // exactly where compute crosses from one shard's window to the next
  // while the decode worker is mid-stage on the window after it. The
  // pipeline (and its worker) must unwind cleanly, and the resumed run
  // must land on the dense run's exact bits.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const fs::path pack = fs::path{testing::TempDir()} / "resume_prefetch.smxg";
  graph::sharded::WriteOptions compress;
  compress.compress = true;
  graph::sharded::write_smxg_file(pack.string(), g,
                                  graph::ShardPlan::balanced(g.offsets(), 4), compress);
  const graph::sharded::MappedGraph mapped{pack.string()};
  const auto sources = spread_sources(mapped.view(), 3 * BatchedEvolver::kDefaultBlock);

  const SampledMixing dense = run(g, sources, base_options());

  const SampledMixingOptions packed = options(&mapped);
  // 3 blocks x kSteps sweeps x 4 shards of acquire calls; the 150th lands
  // mid-run, past the first checkpointed blocks.
  resilience::arm_fault("shard.window:150:error");
  EXPECT_THROW(measure_sampled_mixing(mapped.view(), sources, packed),
               resilience::InjectedFault);
  resilience::disarm_faults();

  const SampledMixing resumed = measure_sampled_mixing(mapped.view(), sources, packed);
  expect_bitwise_equal(dense, resumed, "resumed compressed vs uninterrupted dense");
  std::remove(pack.string().c_str());
}

TEST_F(ShardResumeTest, ForeignShardGeometrySnapshotClassifiesStale) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);
  const SampledMixing baseline = run(g, sources, base_options());
  const graph::sharded::MappedGraph four = pack(g, 4, "foreign_geometry_4");
  const graph::sharded::MappedGraph sixteen = pack(g, 16, "foreign_geometry_16");

  // Leave a partial snapshot written under a 4-shard pack...
  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(four.view(), sources, options(&four)),
               resilience::InjectedFault);
  resilience::disarm_faults();

#if SOCMIX_OBS_ENABLED
  const auto stale_count = [] {
    for (const auto& counter : obs::Registry::instance().snapshot().counters) {
      if (counter.name == "resilience.stale_discarded") return counter.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t stale_before = stale_count();
#endif
  // ...then resume over a 16-shard pack of the same graph: the context
  // word differs, so the snapshot classifies stale and everything
  // recomputes — to the same bits (geometry never changes results, only
  // provenance).
  const SampledMixing resumed =
      measure_sampled_mixing(sixteen.view(), sources, options(&sixteen));
  expect_bitwise_equal(baseline, resumed, "recomputed after stale geometry");
#if SOCMIX_OBS_ENABLED
  EXPECT_GT(stale_count(), stale_before);
#endif
}

TEST_F(ShardResumeTest, DenseGeometryKeepsPreShardSnapshotsCompatible) {
  // An in-memory run and a run over a one-shard pack fold no shard word,
  // so a snapshot written by either replays into the other (and into runs
  // of builds that predate sharding entirely).
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);
  const graph::sharded::MappedGraph single = pack(g, 1, "dense_geometry_1");

  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(g, sources, options()),
               resilience::InjectedFault);
  resilience::disarm_faults();

#if SOCMIX_OBS_ENABLED
  const auto restored_count = [] {
    for (const auto& counter : obs::Registry::instance().snapshot().counters) {
      if (counter.name == "resilience.resume_blocks_skipped") return counter.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t restored_before = restored_count();
#endif
  const SampledMixing resumed =
      measure_sampled_mixing(single.view(), sources, options(&single));
  expect_bitwise_equal(run(g, sources, base_options()), resumed,
                       "one-shard pack resume of an in-memory snapshot");
#if SOCMIX_OBS_ENABLED
  EXPECT_GT(restored_count(), restored_before);
#endif
}

}  // namespace
}  // namespace socmix::markov
