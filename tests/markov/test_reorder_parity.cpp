// The determinism/tolerance contract of pack-time vertex ordering
// (graph_pack --reorder). The measurement runs on whatever labels its
// input carries, so each case measures `apply_permutation(g, perm)` with
// the sources mapped through `perm`, exactly what a run on a relabeled
// pack computes:
//
//  * on a FIXED relabeled graph, results are bit-identical across thread
//    counts (an ordering must not weaken the thread-determinism promise);
//  * across orderings, sampled TVD trajectories may differ from identity
//    ordering only by floating-point summation order — within 1e-12 per
//    step — on every Table-1 generator config;
//  * the SLEM is label-invariant, so spectral results under any ordering
//    match identity within the Lanczos tolerance, again on every config;
//  * the graph fingerprint separates orderings, which is what keeps
//    checkpoints of differently ordered packs apart.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/walk_operator.hpp"
#include "markov/mixing_time.hpp"
#include "util/parallel.hpp"

namespace socmix::markov {
namespace {

constexpr graph::ReorderMode kOrderings[] = {graph::ReorderMode::kRcm,
                                             graph::ReorderMode::kBfs};

// Small but non-trivial: ~400-node stand-ins keep all 15 configs cheap.
constexpr graph::NodeId kNodes = 400;
constexpr std::size_t kSources = 8;
constexpr std::size_t kSteps = 30;

std::vector<graph::NodeId> spread_sources(const graph::Graph& g) {
  std::vector<graph::NodeId> sources;
  const graph::NodeId stride = std::max<graph::NodeId>(1, g.num_nodes() / kSources);
  for (graph::NodeId v = 0; sources.size() < kSources && v < g.num_nodes();
       v += stride) {
    sources.push_back(v);
  }
  return sources;
}

/// `g` relabeled under `mode`, with `sources` mapped into the new labels.
struct Relabeled {
  graph::Graph graph;
  std::vector<graph::NodeId> sources;
};

Relabeled relabel(const graph::Graph& g, std::span<const graph::NodeId> sources,
                  graph::ReorderMode mode) {
  const std::vector<graph::NodeId> perm = graph::reorder_permutation(g, mode);
  Relabeled out{graph::apply_permutation(g, perm), {}};
  for (const graph::NodeId s : sources) out.sources.push_back(perm[s]);
  return out;
}

SampledMixing run(const graph::Graph& g, std::span<const graph::NodeId> sources) {
  SampledMixingOptions options;
  options.max_steps = kSteps;
  return measure_sampled_mixing(g, sources, options);
}

TEST(ReorderParity, BitIdenticalAcrossThreadCountsAtFixedOrdering) {
  const auto spec = gen::find_dataset("Livejournal A");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 3);
  const auto sources = spread_sources(g);
  for (const graph::ReorderMode mode : kOrderings) {
    const Relabeled relabeled = relabel(g, sources, mode);
    util::set_thread_count(1);
    const SampledMixing serial = run(relabeled.graph, relabeled.sources);
    util::set_thread_count(4);
    const SampledMixing threaded = run(relabeled.graph, relabeled.sources);
    util::set_thread_count(0);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      for (std::size_t t = 1; t <= kSteps; ++t) {
        ASSERT_EQ(serial.tvd(s, t), threaded.tvd(s, t))
            << "mode=" << graph::reorder_mode_name(mode) << " s=" << s
            << " t=" << t;
      }
    }
  }
}

TEST(ReorderParity, TvdMatchesIdentityOrderingOnEveryTable1Config) {
  // The TVD after each step is a sum of |p_v - pi_v| over vertices; a
  // relabeling only permutes the summation order, so each step may drift
  // from identity ordering by rounding alone — the documented 1e-12.
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    const SampledMixing identity = run(g, sources);
    for (const graph::ReorderMode mode : kOrderings) {
      const Relabeled relabeled = relabel(g, sources, mode);
      const SampledMixing reordered = run(relabeled.graph, relabeled.sources);
      ASSERT_EQ(reordered.num_sources(), identity.num_sources());
      for (std::size_t s = 0; s < sources.size(); ++s) {
        for (std::size_t t = 1; t <= kSteps; ++t) {
          ASSERT_NEAR(reordered.tvd(s, t), identity.tvd(s, t), 1e-12)
              << spec.name << " mode=" << graph::reorder_mode_name(mode)
              << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(ReorderParity, SlemMatchesIdentityOrderingWithinLanczosTolerance) {
  // Eigenvalues are invariant under the similarity transform a relabeling
  // induces; only the iteration's rounding differs.
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const std::string& name = spec.name;
    const graph::Graph g = gen::build_dataset(spec, kNodes, 17);
    const linalg::LanczosOptions options;
    const linalg::WalkOperator identity_op{g};
    const auto identity = linalg::slem_spectrum(identity_op, options);
    ASSERT_TRUE(identity.converged) << name;
    for (const graph::ReorderMode mode : kOrderings) {
      const graph::Graph relabeled =
          graph::apply_permutation(g, graph::reorder_permutation(g, mode));
      const linalg::WalkOperator op{relabeled};
      const auto spectrum = linalg::slem_spectrum(op, options);
      ASSERT_TRUE(spectrum.converged)
          << name << " mode=" << graph::reorder_mode_name(mode);
      EXPECT_NEAR(spectrum.slem, identity.slem, 100 * options.tolerance)
          << name << " mode=" << graph::reorder_mode_name(mode);
    }
  }
}

TEST(ReorderParity, FingerprintSeparatesOrderings) {
  // The checkpoint fingerprint starts from the graph's structural
  // fingerprint, so a snapshot of one pack never resumes on a pack of the
  // same graph stored under another ordering.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 3);
  const std::uint64_t base = graph::structural_fingerprint(g);
  EXPECT_EQ(base, graph::structural_fingerprint(graph::apply_permutation(
                      g, graph::reorder_permutation(g, graph::ReorderMode::kNone))));
  for (const graph::ReorderMode mode : kOrderings) {
    EXPECT_NE(base, graph::structural_fingerprint(graph::apply_permutation(
                        g, graph::reorder_permutation(g, mode))))
        << graph::reorder_mode_name(mode);
  }
}

}  // namespace
}  // namespace socmix::markov
