#include "gen/datasets.hpp"

#include <gtest/gtest.h>

#include <cctype>

#include "graph/components.hpp"
#include "graph/stats.hpp"
#include "linalg/lanczos.hpp"
#include "util/string_util.hpp"

namespace socmix::gen {
namespace {

TEST(Datasets, TableHasFifteenRows) {
  EXPECT_EQ(table1_datasets().size(), 15u);
}

TEST(Datasets, FindByNameCaseInsensitive) {
  EXPECT_TRUE(find_dataset("Physics 1").has_value());
  EXPECT_TRUE(find_dataset("physics 1").has_value());
  EXPECT_TRUE(find_dataset("WIKI-VOTE").has_value());
  EXPECT_FALSE(find_dataset("MySpace").has_value());
}

TEST(Datasets, FindBySlug) {
  EXPECT_EQ(find_dataset("livejournal-a")->name, "Livejournal A");
  EXPECT_EQ(find_dataset("Physics-1")->name, "Physics 1");
  EXPECT_FALSE(find_dataset("livejournal-c").has_value());
  // Every row is reachable by its slug, and slugs name distinct rows.
  for (const DatasetSpec& spec : table1_datasets()) {
    const auto found = find_dataset(util::slugify(spec.name));
    ASSERT_TRUE(found.has_value()) << spec.name;
    EXPECT_EQ(found->name, spec.name);
  }
}

TEST(Datasets, SpecsAreSane) {
  for (const auto& spec : table1_datasets()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GT(spec.paper_nodes, 0u) << spec.name;
    EXPECT_GT(spec.paper_edges, spec.paper_nodes / 2) << spec.name;
    EXPECT_GT(spec.avg_degree, 1.0) << spec.name;
    EXPECT_GE(spec.default_nodes, 1000u) << spec.name;
    // Community datasets round default_nodes up to a whole block.
    EXPECT_LE(spec.default_nodes, spec.paper_nodes + spec.block_size) << spec.name;
  }
}

// Every stand-in must build, be connected, and hit its size/degree class.
class DatasetBuild : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DatasetBuild, SmallScaleBuildIsConnectedAndSized) {
  const DatasetSpec& spec = table1_datasets()[GetParam()];
  const graph::NodeId target = 2000;
  const auto g = build_dataset(spec, target, /*seed=*/7);
  EXPECT_TRUE(graph::is_connected(g)) << spec.name;
  // largest_component may shave a little off the target.
  EXPECT_GE(g.num_nodes(), target * 9 / 10) << spec.name;
  EXPECT_LE(g.num_nodes(), target * 11 / 10 + spec.block_size) << spec.name;
  const auto stats = graph::degree_stats(g);
  EXPECT_GT(stats.mean, spec.avg_degree * 0.4) << spec.name;
  EXPECT_LT(stats.mean, spec.avg_degree * 2.5) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllRows, DatasetBuild,
                         ::testing::Range<std::size_t>(0, 15),
                         [](const auto& info) {
                           std::string name = table1_datasets()[info.param].name;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

TEST(Datasets, DeterministicPerSeed) {
  const auto spec = *find_dataset("Physics 3");
  const auto a = build_dataset(spec, 2000, 11);
  const auto b = build_dataset(spec, 2000, 11);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  // Different seed, different wiring (edge *counts* can coincide for the
  // HK family, so compare degree sequences).
  const auto c = build_dataset(spec, 2000, 12);
  bool any_degree_differs = a.num_nodes() != c.num_nodes();
  for (graph::NodeId v = 0; !any_degree_differs && v < a.num_nodes(); ++v) {
    any_degree_differs = a.degree(v) != c.degree(v);
  }
  EXPECT_TRUE(any_degree_differs);
}

TEST(Datasets, MixingClassesAreRealized) {
  // The headline substitution property: slow-class stand-ins must have
  // SLEM far closer to 1 than fast-class ones, at matched size.
  const auto fast = build_dataset(*find_dataset("Wiki-vote"), 4000, 3);
  const auto slow = build_dataset(*find_dataset("Physics 1"), 4000, 3);
  const auto mu_fast = linalg::slem_spectrum(linalg::WalkOperator{fast}).slem;
  const auto mu_slow = linalg::slem_spectrum(linalg::WalkOperator{slow}).slem;
  EXPECT_LT(mu_fast, 0.95);
  EXPECT_GT(mu_slow, 0.99);
}

TEST(CommunityPowerlaw, BlockStructure) {
  util::Rng rng{5};
  const auto g = community_powerlaw(4, 100, 3, 0.5, 2.0, rng);
  EXPECT_EQ(g.num_nodes(), 400u);
  EXPECT_TRUE(graph::is_connected(g));
  // Cross-block edges are rare: cutting block 0 from the rest costs little.
  std::vector<char> in_set(400, 0);
  for (graph::NodeId v = 0; v < 100; ++v) in_set[v] = 1;
  EXPECT_LT(graph::cut_conductance(g, in_set), 0.1);
}

TEST(CommunityPowerlaw, RejectsBadArguments) {
  util::Rng rng{6};
  EXPECT_THROW(community_powerlaw(0, 100, 3, 0.5, 2.0, rng), std::invalid_argument);
  EXPECT_THROW(community_powerlaw(4, 3, 3, 0.5, 2.0, rng), std::invalid_argument);
  EXPECT_THROW(community_powerlaw(4, 100, 3, 0.5, -1.0, rng), std::invalid_argument);
}

TEST(CommunityPowerlaw, MoreLinksFasterMixing) {
  util::Rng rng{7};
  const auto sparse = community_powerlaw(8, 150, 3, 0.5, 1.0, rng);
  const auto dense = community_powerlaw(8, 150, 3, 0.5, 20.0, rng);
  const auto mu_sparse = linalg::slem_spectrum(linalg::WalkOperator{sparse}).slem;
  const auto mu_dense = linalg::slem_spectrum(linalg::WalkOperator{dense}).slem;
  EXPECT_GT(mu_sparse, mu_dense);
}

}  // namespace
}  // namespace socmix::gen
