#include "sybil/ranking.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/components.hpp"
#include "markov/stationary.hpp"
#include "util/rng.hpp"

namespace socmix::sybil {
namespace {

graph::Graph expander(graph::NodeId n, std::uint64_t seed) {
  util::Rng rng{seed};
  return graph::largest_component(
             gen::erdos_renyi_gnm(n, static_cast<std::uint64_t>(n) * 5, rng))
      .graph;
}

AttackedGraph attacked_expander(std::uint64_t seed, graph::NodeId attack_edges) {
  AttackConfig config;
  config.sybil_nodes = 150;
  config.attack_edges = attack_edges;
  config.seed = seed;
  return attach_sybil_region(expander(300, seed), config);
}

TEST(WalkProbabilityScores, SumsToOneBeforeNormalization) {
  const auto g = expander(100, 1);
  const auto scores = walk_probability_scores(g, 0, 8);
  double weighted = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    weighted += scores[v] * g.degree(v);  // undo normalization
  }
  EXPECT_NEAR(weighted, 1.0, 1e-9);
}

TEST(WalkProbabilityScores, LongWalksFlattenToUniform) {
  // p_t -> pi = deg/2m, so deg-normalized scores -> 1/2m for all v.
  const auto g = expander(80, 2);
  const auto scores = walk_probability_scores(g, 0, 200);
  const double uniform = 1.0 / static_cast<double>(g.num_half_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(scores[v], uniform, uniform * 0.05);
  }
}

TEST(RankingFromScores, SortsDescendingDeterministically) {
  const std::vector<double> scores{0.1, 0.5, 0.5, 0.3};
  const auto order = ranking_from_scores(scores);
  EXPECT_EQ(order, (std::vector<graph::NodeId>{1, 2, 3, 0}));
}

TEST(EvaluateRanking, PerfectAndInvertedRankings) {
  const auto attacked = attacked_expander(3, 5);
  const auto n = attacked.graph.num_nodes();
  // Perfect: honest nodes get score 1, sybils 0.
  std::vector<double> perfect(n);
  for (graph::NodeId v = 0; v < n; ++v) perfect[v] = attacked.is_sybil(v) ? 0.0 : 1.0;
  const auto good = evaluate_ranking(attacked, perfect);
  EXPECT_DOUBLE_EQ(good.auc, 1.0);
  EXPECT_DOUBLE_EQ(good.honest_admitted_at_cutoff, 1.0);
  EXPECT_EQ(good.sybils_admitted_at_cutoff, 0u);

  std::vector<double> inverted(n);
  for (graph::NodeId v = 0; v < n; ++v) inverted[v] = attacked.is_sybil(v) ? 1.0 : 0.0;
  EXPECT_DOUBLE_EQ(evaluate_ranking(attacked, inverted).auc, 0.0);
}

TEST(EvaluateRanking, ConstantScoresAreChance) {
  const auto attacked = attacked_expander(4, 5);
  const std::vector<double> flat(attacked.graph.num_nodes(), 0.5);
  EXPECT_NEAR(evaluate_ranking(attacked, flat).auc, 0.5, 1e-12);
}

TEST(EvaluateRanking, SizeMismatchThrows) {
  const auto attacked = attacked_expander(5, 5);
  EXPECT_THROW((void)evaluate_ranking(attacked, std::vector<double>(3, 0.0)),
               std::invalid_argument);
}

TEST(Ranking, WalkScoresSeparateSybilsOnExpander) {
  // Viswanath's observation, positive case: with few attack edges on a
  // fast-mixing honest region, walk-probability ranking from an honest
  // verifier is an excellent Sybil classifier.
  const auto attacked = attacked_expander(6, 4);
  const auto scores = walk_probability_scores(attacked.graph, 0, 10);
  const auto eval = evaluate_ranking(attacked, scores);
  EXPECT_GT(eval.auc, 0.95);
  EXPECT_GT(eval.honest_admitted_at_cutoff, 0.9);
}

TEST(Ranking, MoreAttackEdgesDegradeAuc) {
  // A small, heavily-attached Sybil region integrates into the honest
  // mixing pattern: per-Sybil landing probability approaches the honest
  // level and the ranking collapses.
  AttackConfig config;
  config.sybil_nodes = 30;
  config.seed = 7;
  const auto honest = expander(300, 7);

  config.attack_edges = 2;
  const auto few = attach_sybil_region(honest, config);
  config.attack_edges = 100;
  const auto many = attach_sybil_region(honest, config);

  const auto auc_few =
      evaluate_ranking(few, walk_probability_scores(few.graph, 0, 10)).auc;
  const auto auc_many =
      evaluate_ranking(many, walk_probability_scores(many.graph, 0, 10)).auc;
  EXPECT_GT(auc_few, auc_many + 0.2);
}

TEST(Ranking, CommunityStructureHurtsHonestNodes) {
  // Viswanath + the paper's conclusion: on a community-heavy honest graph,
  // short-walk ranking strands honest nodes outside the verifier's
  // community, so the same defense admits fewer honest nodes than on an
  // expander with identical attack strength.
  AttackConfig config;
  config.sybil_nodes = 150;
  config.attack_edges = 4;
  config.seed = 8;

  const auto slow_honest = gen::build_dataset(*gen::find_dataset("Physics 1"), 1500, 8);
  const auto slow = attach_sybil_region(slow_honest, config);
  const auto fast = attacked_expander(8, 4);

  const auto eval_slow =
      evaluate_ranking(slow, walk_probability_scores(slow.graph, 0, 6));
  const auto eval_fast =
      evaluate_ranking(fast, walk_probability_scores(fast.graph, 0, 6));
  EXPECT_LT(eval_slow.honest_admitted_at_cutoff + 0.03,
            eval_fast.honest_admitted_at_cutoff);
  EXPECT_LT(eval_slow.auc + 0.05, eval_fast.auc);
}

TEST(Ranking, PagerankScoresComparableToWalkScores) {
  const auto attacked = attacked_expander(9, 4);
  const auto walk_eval =
      evaluate_ranking(attacked, walk_probability_scores(attacked.graph, 0, 10));
  const auto ppr_eval =
      evaluate_ranking(attacked, pagerank_scores(attacked.graph, 0, 0.15));
  EXPECT_GT(ppr_eval.auc, 0.9);
  EXPECT_NEAR(ppr_eval.auc, walk_eval.auc, 0.08);
}

}  // namespace
}  // namespace socmix::sybil
