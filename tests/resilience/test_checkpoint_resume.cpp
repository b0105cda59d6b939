// The resilience contract, end to end: a measurement interrupted at any
// fault site and then re-run with the same checkpoint directory produces
// results bit-identical to an uninterrupted run — at any thread count —
// and a damaged checkpoint degrades to a clean start, never a wrong answer.
#include "resilience/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "linalg/simd/kernels.hpp"
#include "markov/mixing_time.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "sybil/sybil_limit.hpp"
#include "util/parallel.hpp"

namespace socmix::resilience {
namespace {

namespace fs = std::filesystem;

graph::Graph ring_with_chords(graph::NodeId n) {
  graph::EdgeList edges;
  for (graph::NodeId v = 0; v < n; ++v) {
    edges.add(v, (v + 1) % n);
    edges.add(v, (v * 7 + 3) % n);
  }
  return graph::Graph::from_edges(std::move(edges));
}

std::vector<graph::NodeId> first_sources(std::size_t count) {
  std::vector<graph::NodeId> sources(count);
  for (std::size_t i = 0; i < count; ++i) sources[i] = static_cast<graph::NodeId>(i);
  return sources;
}

std::vector<std::vector<double>> trajectories(const markov::SampledMixing& sampled) {
  std::vector<std::vector<double>> out(sampled.num_sources());
  for (std::size_t s = 0; s < sampled.num_sources(); ++s) {
    out[s].reserve(sampled.max_steps());
    for (std::size_t t = 1; t <= sampled.max_steps(); ++t) {
      out[s].push_back(sampled.tvd(s, t));
    }
  }
  return out;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path{testing::TempDir()} /
           ("resume_test_" +
            std::string{
                ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(dir_);
  }
  void TearDown() override {
    disarm_faults();
    util::set_thread_count(0);
    fs::remove_all(dir_);
  }

  [[nodiscard]] markov::SampledMixingOptions options(std::size_t interval = 1) const {
    markov::SampledMixingOptions opts;
    opts.max_steps = 25;
    opts.checkpoint.dir = dir_.string();
    opts.checkpoint.interval = interval;
    return opts;
  }

  fs::path dir_;
};

constexpr graph::NodeId kNodes = 160;
constexpr std::size_t kSources = 96;  // 3 blocks of BatchedEvolver::kDefaultBlock

TEST_F(CheckpointResumeTest, UnitRecordFinalizeRestoreRoundTrip) {
  CheckpointOptions opts{dir_.string(), "unit", 2};
  {
    BlockCheckpoint ckpt{opts, 99, 4};
    EXPECT_EQ(ckpt.restore(), 0u);
    ckpt.record(0, {1.0, 2.0});
    ckpt.record(2, {3.0});
    ckpt.finalize();
  }
  BlockCheckpoint reloaded{opts, 99, 4};
  EXPECT_EQ(reloaded.restore(), 2u);
  EXPECT_TRUE(reloaded.is_restored(0));
  EXPECT_FALSE(reloaded.is_restored(1));
  EXPECT_TRUE(reloaded.is_restored(2));
  EXPECT_EQ(reloaded.restored_payload(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(reloaded.restored_payload(2), (std::vector<double>{3.0}));
}

TEST_F(CheckpointResumeTest, UnitRejectsForeignFingerprintAndShape) {
  CheckpointOptions opts{dir_.string(), "unit", 1};
  {
    BlockCheckpoint ckpt{opts, 99, 4};
    ckpt.record(0, {1.0});
    ckpt.finalize();
  }
  BlockCheckpoint other_run{opts, 100, 4};
  EXPECT_EQ(other_run.restore(), 0u);  // stale: different fingerprint
  BlockCheckpoint other_shape{opts, 99, 5};
  EXPECT_EQ(other_shape.restore(), 0u);  // same run id, different block count
}

TEST_F(CheckpointResumeTest, UnitRejectsForeignContextAsStale) {
  // The context word records the execution environment (the kernel
  // precision, for the sampled sweep); a frame written under a different
  // context is internally valid but not replayable — it must be
  // classified stale and recomputed, never silently replayed.
  CheckpointOptions opts{dir_.string(), "unit", 1};
  const auto context = [](linalg::simd::Precision precision) {
    return linalg::simd::precision_context_word(precision);
  };
  {
    BlockCheckpoint ckpt{opts, 99, 4, context(linalg::simd::Precision::kFloat64)};
    ckpt.record(0, {1.0});
    ckpt.finalize();
  }
#if SOCMIX_OBS_ENABLED
  const auto stale_count = [] {
    for (const auto& counter : obs::Registry::instance().snapshot().counters) {
      if (counter.name == "resilience.stale_discarded") return counter.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t stale_before = stale_count();
#endif
  BlockCheckpoint other_precision{opts, 99, 4, context(linalg::simd::Precision::kMixed)};
  EXPECT_EQ(other_precision.restore(), 0u);
  EXPECT_EQ(other_precision.context(), context(linalg::simd::Precision::kMixed));
#if SOCMIX_OBS_ENABLED
  EXPECT_EQ(stale_count(), stale_before + 1);
#endif
  // The matching context still round-trips.
  BlockCheckpoint same_precision{opts, 99, 4,
                                 context(linalg::simd::Precision::kFloat64)};
  EXPECT_EQ(same_precision.restore(), 1u);
  EXPECT_EQ(same_precision.restored_payload(0), (std::vector<double>{1.0}));
}

TEST_F(CheckpointResumeTest, InterruptedMeasurementResumesBitIdentical) {
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const auto baseline =
      trajectories(markov::measure_sampled_mixing(g, sources, /*max_steps=*/25));

  // Thread counts bracket the interesting schedules: serial and contended.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    fs::remove_all(dir_);
    util::set_thread_count(threads);

    arm_fault("block.complete:2:error");
    EXPECT_THROW(markov::measure_sampled_mixing(g, sources, options()), InjectedFault)
        << threads << " threads";
    disarm_faults();

    const auto resumed = markov::measure_sampled_mixing(g, sources, options());
    EXPECT_EQ(trajectories(resumed), baseline) << threads << " threads";
  }
}

TEST_F(CheckpointResumeTest, SurvivesAKillAtEveryMeasurementFaultSite) {
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const auto baseline =
      trajectories(markov::measure_sampled_mixing(g, sources, /*max_steps=*/25));

  for (const std::string_view site :
       {"block.complete", "checkpoint.write", "checkpoint.rename"}) {
    fs::remove_all(dir_);
    arm_fault(std::string{site} + ":1:error");
    EXPECT_THROW(markov::measure_sampled_mixing(g, sources, options()), InjectedFault)
        << site;
    disarm_faults();
    const auto resumed = markov::measure_sampled_mixing(g, sources, options());
    EXPECT_EQ(trajectories(resumed), baseline) << site;
  }
}

TEST_F(CheckpointResumeTest, CorruptSnapshotDegradesToCleanStart) {
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const auto baseline =
      trajectories(markov::measure_sampled_mixing(g, sources, /*max_steps=*/25));

  arm_fault("block.complete:3:error");
  EXPECT_THROW(markov::measure_sampled_mixing(g, sources, options()), InjectedFault);
  disarm_faults();

  // Trash both the snapshot and its fallback: resume must recompute all.
  for (const auto& entry : fs::directory_iterator{dir_}) {
    std::ofstream out{entry.path(), std::ios::binary | std::ios::trunc};
    out << "not a snapshot";
  }
  const auto resumed = markov::measure_sampled_mixing(g, sources, options());
  EXPECT_EQ(trajectories(resumed), baseline);
}

TEST_F(CheckpointResumeTest, CompletedRunShortCircuitsOnRerun) {
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);

  const auto first = markov::measure_sampled_mixing(g, sources, options());
  arm_fault("block.complete:1:error");  // any recompute would trip this
  const auto rerun = markov::measure_sampled_mixing(g, sources, options());
  disarm_faults();
  EXPECT_EQ(trajectories(first), trajectories(rerun));
}

TEST_F(CheckpointResumeTest, SybilSweepResumesBitIdentical) {
  const auto g = ring_with_chords(80);

  sybil::AdmissionSweepConfig config;
  config.route_lengths = {2, 3, 4, 5};
  config.suspect_sample = 20;
  config.verifier_sample = 2;
  const auto baseline = sybil::admission_sweep(g, config);

  config.checkpoint.dir = dir_.string();
  config.checkpoint.interval = 1;
  arm_fault("block.complete:3:error");
  EXPECT_THROW(sybil::admission_sweep(g, config), InjectedFault);
  disarm_faults();

  const auto resumed = sybil::admission_sweep(g, config);
  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(resumed[i].route_length, baseline[i].route_length);
    EXPECT_EQ(resumed[i].admitted_fraction, baseline[i].admitted_fraction) << i;
  }
}

}  // namespace
}  // namespace socmix::resilience
