// The locality layer's correctness contract: every ordering is a
// deterministic bijection, apply_permutation preserves all Graph
// invariants and round-trips bit-exactly through the inverse, and the
// orderings actually improve label locality where they should.
#include "graph/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph.hpp"

namespace socmix::graph {
namespace {

Graph community_graph() {
  const auto spec = gen::find_dataset("Livejournal A");
  return gen::build_dataset(*spec, 600, 7);
}

Graph path_graph(NodeId n) {
  EdgeList edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.add(v, v + 1);
  return Graph::from_edges(std::move(edges));
}

void expect_same_csr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto ao = a.offsets();
  const auto bo = b.offsets();
  ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()));
  const auto an = a.raw_neighbors();
  const auto bn = b.raw_neighbors();
  EXPECT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()));
}

constexpr ReorderMode kAllModes[] = {ReorderMode::kNone, ReorderMode::kRcm,
                                     ReorderMode::kBfs};

TEST(Reorder, EveryModeProducesADeterministicBijection) {
  const Graph g = community_graph();
  for (const ReorderMode mode : kAllModes) {
    const auto perm = reorder_permutation(g, mode);
    ASSERT_EQ(perm.size(), g.num_nodes());
    std::vector<bool> seen(perm.size(), false);
    for (const NodeId p : perm) {
      ASSERT_LT(p, perm.size());
      ASSERT_FALSE(seen[p]) << "duplicate target under mode "
                            << reorder_mode_name(mode);
      seen[p] = true;
    }
    // Deterministic: a second computation is identical.
    EXPECT_EQ(perm, reorder_permutation(g, mode));
  }
}

TEST(Reorder, ApplyPermutationKeepsInvariantsAndRoundTrips) {
  const Graph g = community_graph();
  for (const ReorderMode mode : kAllModes) {
    const auto perm = reorder_permutation(g, mode);
    const Graph relabeled = apply_permutation(g, perm);
    ASSERT_EQ(relabeled.num_nodes(), g.num_nodes());
    ASSERT_EQ(relabeled.num_edges(), g.num_edges());
    // Adjacency stays sorted strictly ascending (sorted, no dupes, no
    // self-loops) — the invariant every kernel assumes.
    for (NodeId v = 0; v < relabeled.num_nodes(); ++v) {
      const auto adj = relabeled.neighbors(v);
      for (std::size_t i = 0; i + 1 < adj.size(); ++i) {
        ASSERT_LT(adj[i], adj[i + 1]);
      }
      for (const NodeId u : adj) ASSERT_NE(u, v);
    }
    // Degrees carry over through the relabeling.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(relabeled.degree(perm[v]), g.degree(v));
    }
    // perm then inverse lands on a bit-identical CSR.
    const Graph back = apply_permutation(relabeled, invert_permutation(perm));
    expect_same_csr(back, g);
  }
}

TEST(Reorder, InvertPermutationRejectsNonBijections) {
  EXPECT_THROW((void)invert_permutation(std::vector<NodeId>{0, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)invert_permutation(std::vector<NodeId>{0, 5}),
               std::invalid_argument);
}

TEST(Reorder, NamesAndParsingRoundTrip) {
  for (const ReorderMode mode : kAllModes) {
    const auto parsed = parse_reorder_mode(reorder_mode_name(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_reorder_mode("cuthill").has_value());
  EXPECT_FALSE(parse_reorder_mode("degree").has_value());  // deleted ordering
  EXPECT_EQ(parse_reorder_mode(""), ReorderMode::kNone);  // empty = default
}

TEST(Reorder, RcmRecoversUnitBandwidthOnAShuffledPath) {
  // A path has bandwidth 1 under its natural order; shuffle destroys that
  // and RCM must recover it exactly (the path is the textbook case).
  const Graph path = path_graph(64);
  const Graph shuffled = apply_permutation(path, shuffle_permutation(64, 99));
  EXPECT_GT(locality_stats(shuffled).bandwidth, 1u);
  const Graph rcm =
      apply_permutation(shuffled, reorder_permutation(shuffled, ReorderMode::kRcm));
  EXPECT_EQ(locality_stats(rcm).bandwidth, 1u);
}

TEST(Reorder, RcmImprovesLocalityOnShuffledCommunityGraph) {
  const Graph g = community_graph();
  const Graph crawl = apply_permutation(g, shuffle_permutation(g.num_nodes(), 5));
  const LocalityStats before = locality_stats(crawl);
  const Graph rcm =
      apply_permutation(crawl, reorder_permutation(crawl, ReorderMode::kRcm));
  const LocalityStats after = locality_stats(rcm);
  EXPECT_LT(after.bandwidth, before.bandwidth);
  EXPECT_LT(after.avg_neighbor_distance, before.avg_neighbor_distance);
}

TEST(Reorder, ReorderGraphNoneIsZeroCopyIdentity) {
  Graph g = community_graph();
  const NodeId* const neighbors = g.raw_neighbors().data();
  const Graph same = reorder_graph(std::move(g), ReorderMode::kNone);
  // The input is handed back, not relabeled into a copy.
  EXPECT_EQ(same.raw_neighbors().data(), neighbors);
  expect_same_csr(same, community_graph());
}

TEST(Reorder, ReorderGraphMapsIdsConsistently) {
  // reorder_graph applies exactly reorder_permutation: vertex v of the
  // input is vertex perm[v] of the output.
  const Graph g = community_graph();
  const auto perm = reorder_permutation(g, ReorderMode::kRcm);
  const Graph relabeled = reorder_graph(g, ReorderMode::kRcm);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(relabeled.degree(perm[v]), g.degree(v));
  }
  expect_same_csr(relabeled, apply_permutation(g, perm));
}

}  // namespace
}  // namespace socmix::graph
