#include "linalg/lanczos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "graph/components.hpp"
#include "graph/edge_list.hpp"
#include "linalg/dense.hpp"
#include "linalg/vector_ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace socmix::linalg {
namespace {

TEST(Lanczos, CompleteGraphClosedForm) {
  // K_n: lambda_2 = ... = lambda_n = -1/(n-1) -> mu = 1/(n-1).
  for (const graph::NodeId n : {3u, 8u, 20u, 100u}) {
    const auto s = slem_spectrum(WalkOperator{gen::complete(n)});
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.slem, 1.0 / (n - 1.0), 1e-8) << "n=" << n;
    EXPECT_NEAR(s.lambda2, -1.0 / (n - 1.0), 1e-8) << "n=" << n;
  }
}

TEST(Lanczos, OddCycleClosedForm) {
  // C_n eigenvalues cos(2 pi k/n); for odd n the SLEM is |cos(pi(n-1)/n)|.
  for (const graph::NodeId n : {5u, 11u, 25u}) {
    const auto s = slem_spectrum(WalkOperator{gen::cycle(n)});
    const double lambda2 = std::cos(2 * std::numbers::pi / n);
    const double lambda_min = std::cos(2 * std::numbers::pi * ((n - 1) / 2) / n);
    EXPECT_NEAR(s.lambda2, lambda2, 1e-8) << "n=" << n;
    EXPECT_NEAR(s.lambda_min, lambda_min, 1e-8) << "n=" << n;
    EXPECT_NEAR(s.slem, std::max(lambda2, std::fabs(lambda_min)), 1e-8);
  }
}

TEST(Lanczos, BipartiteGraphsHaveSlemOne) {
  for (const auto* name : {"star", "bipartite", "hypercube"}) {
    graph::Graph g;
    if (std::string_view{name} == "star") g = gen::star(30);
    if (std::string_view{name} == "bipartite") g = gen::complete_bipartite(6, 9);
    if (std::string_view{name} == "hypercube") g = gen::hypercube(5);
    const auto s = slem_spectrum(WalkOperator{g});
    EXPECT_NEAR(s.slem, 1.0, 1e-7) << name;
    EXPECT_NEAR(s.lambda_min, -1.0, 1e-7) << name;
  }
}

TEST(Lanczos, HypercubeLambda2ClosedForm) {
  // Q_d: eigenvalues 1 - 2k/d -> lambda_2 = 1 - 2/d.
  for (const unsigned d : {3u, 5u, 7u}) {
    const auto s = slem_spectrum(WalkOperator{gen::hypercube(d)});
    EXPECT_NEAR(s.lambda2, 1.0 - 2.0 / d, 1e-8) << "d=" << d;
  }
}

TEST(Lanczos, LazyWalkUnmapsToSimpleSpectrum) {
  // The lazy operator (I+N)/2 reports eigenvalues mapped back to P-space,
  // so results must agree with the simple walk where both are ergodic.
  const auto g = gen::complete(12);
  const auto simple = slem_spectrum(WalkOperator{g, 0.0});
  const auto lazy = slem_spectrum(WalkOperator{g, 0.5});
  EXPECT_NEAR(simple.lambda2, lazy.lambda2, 1e-7);
  EXPECT_NEAR(simple.lambda_min, lazy.lambda_min, 1e-7);
}

TEST(Lanczos, LazyWalkBreaksPeriodicity) {
  // Star is periodic (mu = 1) but its lazy chain mixes: lambda of lazy =
  // (1 + lambda)/2 in [0, 1], so in P-space lambda_min maps back to -1 but
  // the *lazy* SLEM max((1+l2)/2, |(1+lmin)/2|) = 1/2.
  const auto g = gen::star(20);
  const WalkOperator lazy{g, 0.5};
  const auto s = slem_spectrum(lazy);
  // Reported in P-space:
  EXPECT_NEAR(s.lambda_min, -1.0, 1e-7);
  EXPECT_NEAR(s.lambda2, 0.0, 1e-7);
  // The lazy chain's own SLEM:
  EXPECT_NEAR(lazy.map_eigenvalue(s.lambda2), 0.5, 1e-7);
}

class LanczosVsDense : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LanczosVsDense, AgreesOnRandomGraphs) {
  util::Rng rng{GetParam()};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(80, 200, rng)).graph;
  const auto lanczos = slem_spectrum(WalkOperator{g});
  const double exact = dense_slem(g);
  EXPECT_NEAR(lanczos.slem, exact, 1e-7) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LanczosVsDense,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(Lanczos, BarabasiAlbertVsDense) {
  util::Rng rng{42};
  const auto g = gen::barabasi_albert(150, 3, rng);
  const auto lanczos = slem_spectrum(WalkOperator{g});
  EXPECT_NEAR(lanczos.slem, dense_slem(g), 1e-7);
}

TEST(Lanczos, DumbbellSlowMixing) {
  // Sparse-cut graphs push mu toward 1; the single-bridge dumbbell must be
  // much slower than the two-clique volume suggests.
  const auto tight = slem_spectrum(WalkOperator{gen::dumbbell(20, 10)});
  const auto loose = slem_spectrum(WalkOperator{gen::dumbbell(20, 1)});
  EXPECT_GT(loose.slem, tight.slem);
  EXPECT_GT(loose.slem, 0.99);
}

TEST(Lanczos, Lambda2VectorIsEigenvector) {
  const auto g = gen::dumbbell(12, 1);
  const WalkOperator op{g};
  const auto s = slem_spectrum_with_vector(op);
  ASSERT_EQ(s.lambda2_vector.size(), op.dim());
  EXPECT_NEAR(norm2(s.lambda2_vector), 1.0, 1e-9);

  Vec out(op.dim());
  op.apply(s.lambda2_vector, out);
  // || N v - lambda2 v || should be tiny.
  axpy(-s.lambda2, s.lambda2_vector, out);
  EXPECT_LT(norm2(out), 1e-6);
}

TEST(Lanczos, TwoNodeGraph) {
  // Single edge: spectrum {1, -1}; deflated spectrum {-1}.
  const auto s = slem_spectrum(WalkOperator{gen::path(2)});
  EXPECT_TRUE(s.converged);
  EXPECT_NEAR(s.slem, 1.0, 1e-10);
  EXPECT_NEAR(s.lambda_min, -1.0, 1e-10);
}

TEST(Lanczos, DeterministicForFixedSeed) {
  util::Rng rng{9};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(100, 250, rng)).graph;
  LanczosOptions opt;
  opt.seed = 777;
  const auto a = slem_spectrum(WalkOperator{g}, opt);
  const auto b = slem_spectrum(WalkOperator{g}, opt);
  EXPECT_DOUBLE_EQ(a.slem, b.slem);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Lanczos, SeedInsensitiveResult) {
  util::Rng rng{10};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(100, 250, rng)).graph;
  LanczosOptions opt_a;
  opt_a.seed = 1;
  LanczosOptions opt_b;
  opt_b.seed = 999;
  const auto a = slem_spectrum(WalkOperator{g}, opt_a);
  const auto b = slem_spectrum(WalkOperator{g}, opt_b);
  EXPECT_NEAR(a.slem, b.slem, 1e-7);
}

TEST(Lanczos, IterationCapRespected) {
  const auto g = gen::dumbbell(40, 1);
  LanczosOptions opt;
  opt.max_iterations = 10;
  const auto s = slem_spectrum(WalkOperator{g}, opt);
  EXPECT_LE(s.iterations, 10u);
}

TEST(Lanczos, BitIdenticalAcrossThreadCounts) {
  // The reorthogonalization sweeps split the rows into fixed blocks and
  // reduce their partial sums in block order, so the thread count must not
  // move a single bit. The graph spans several blocks, the last one ragged.
  util::Rng rng{4};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(9500, 38000, rng)).graph;
  const WalkOperator op{g};
  ASSERT_GT(op.dim(), 2 * detail::kReorthBlockRows);
  ASSERT_NE(op.dim() % detail::kReorthBlockRows, 0u);

  util::set_thread_count(1);
  const auto serial = slem_spectrum_with_vector(op);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    util::set_thread_count(threads);
    const auto s = slem_spectrum_with_vector(op);
    EXPECT_EQ(s.slem, serial.slem) << threads;
    EXPECT_EQ(s.lambda2, serial.lambda2) << threads;
    EXPECT_EQ(s.lambda_min, serial.lambda_min) << threads;
    EXPECT_EQ(s.iterations, serial.iterations) << threads;
    EXPECT_EQ(s.lambda2_vector, serial.lambda2_vector) << threads;
  }
  util::set_thread_count(0);
}

/// max |Q^T Q - I| over the k columns of the column-major n-row basis q.
double orthogonality_error(const std::vector<double>& q, std::size_t n) {
  const std::size_t k = q.size() / n;
  double worst = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double qij = dot(std::span<const double>{q.data() + i * n, n},
                             std::span<const double>{q.data() + j * n, n});
      worst = std::max(worst, std::fabs(qij - (i == j ? 1.0 : 0.0)));
    }
  }
  return worst;
}

/// Two random halves joined by one bridge: slow mixing like gen::dumbbell,
/// but with a spread spectrum, so Lanczos runs long enough for plain
/// three-term recurrence to lose orthogonality.
graph::Graph random_dumbbell(graph::NodeId half, std::uint64_t edges_per_half,
                             std::uint64_t seed) {
  util::Rng rng{seed};
  graph::EdgeList edges{2 * half};
  for (graph::NodeId offset : {graph::NodeId{0}, half}) {
    for (std::uint64_t e = 0; e < edges_per_half; ++e) {
      edges.add(offset + static_cast<graph::NodeId>(rng.below(half)),
                offset + static_cast<graph::NodeId>(rng.below(half)));
    }
  }
  edges.add(0, half);
  return graph::largest_component(graph::Graph::from_edges(std::move(edges))).graph;
}

TEST(LanczosReorthogonalize, BasisStaysOrthonormalOnSlowMixingDumbbell) {
  const graph::Graph g = random_dumbbell(400, 1600, 3);
  const WalkOperator op{g};
  std::vector<double> basis;
  const auto s = detail::run_lanczos(op, {}, /*want_vector=*/false, &basis);
  ASSERT_TRUE(s.converged);
  // + deflation column; each thick restart drops the Ritz pairs it does not
  // keep, so the rotated Ritz columns are checked too.
  constexpr std::size_t dropped =
      detail::kMaxLanczosColumns - detail::kKeepLargest - detail::kKeepSmallest;
  ASSERT_EQ(basis.size(), (s.iterations - dropped * s.restarts + 1) * op.dim());
  EXPECT_LE(orthogonality_error(basis, op.dim()), 1e-12);
}

TEST(LanczosThickRestart, RestartedSolvesMatchDenseJacobi) {
  // Both need more operator applications than the basis holds; the cycle's
  // clustered extremes make it restart several times.
  const std::vector<std::pair<const char*, graph::Graph>> graphs{
      {"random dumbbell", random_dumbbell(100, 400, 3)}, {"cycle", gen::cycle(201)}};
  for (const auto& [name, g] : graphs) {
    const WalkOperator op{g};
    std::vector<double> basis;
    const auto s = detail::run_lanczos(op, {}, /*want_vector=*/false, &basis);
    ASSERT_TRUE(s.converged) << name;
    EXPECT_GT(s.restarts, 0u) << name;
    const auto exact = jacobi_eigenvalues(dense_walk_matrix(g));
    EXPECT_NEAR(s.lambda2, exact[exact.size() - 2], 1e-8) << name;
    EXPECT_NEAR(s.lambda_min, exact.front(), 1e-8) << name;
    EXPECT_LE(basis.size(), (detail::kMaxLanczosColumns + 1) * op.dim()) << name;
    EXPECT_LE(orthogonality_error(basis, op.dim()), 1e-12) << name;
  }
}

TEST(LanczosThickRestart, BoundedBasisBitIdenticalAcrossThreadCounts) {
  // Several thousand nodes over two reorthogonalization blocks, the last
  // ragged, and a solve that restarts: the restart rotation must not move a
  // bit with the thread count either.
  const graph::Graph g = random_dumbbell(3000, 12000, 3);
  const WalkOperator op{g};
  ASSERT_GT(op.dim(), detail::kReorthBlockRows);
  ASSERT_NE(op.dim() % detail::kRotateBlockRows, 0u);

  util::set_thread_count(1);
  std::vector<double> serial_basis;
  const auto serial = detail::run_lanczos(op, {}, /*want_vector=*/true, &serial_basis);
  ASSERT_TRUE(serial.converged);
  EXPECT_GT(serial.restarts, 0u);
  EXPECT_GT(serial.iterations, detail::kMaxLanczosColumns);
  EXPECT_LE(serial_basis.size(), (detail::kMaxLanczosColumns + 1) * op.dim());
  EXPECT_LE(orthogonality_error(serial_basis, op.dim()), 1e-12);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    util::set_thread_count(threads);
    std::vector<double> basis;
    const auto s = detail::run_lanczos(op, {}, /*want_vector=*/true, &basis);
    EXPECT_EQ(s.slem, serial.slem) << threads;
    EXPECT_EQ(s.lambda2, serial.lambda2) << threads;
    EXPECT_EQ(s.lambda_min, serial.lambda_min) << threads;
    EXPECT_EQ(s.iterations, serial.iterations) << threads;
    EXPECT_EQ(s.restarts, serial.restarts) << threads;
    EXPECT_EQ(s.lambda2_vector, serial.lambda2_vector) << threads;
    EXPECT_EQ(basis, serial_basis) << threads;
  }
  util::set_thread_count(0);
}

TEST(LanczosThickRestart, ConvergesPastThreeHundredApplications) {
  // An odd cycle's extremes are clustered: the solve needs more operator
  // applications than the old 300-step cap, where the unrestarted solver
  // stopped UNCONVERGED. Default options must see it through.
  constexpr graph::NodeId n = 501;
  const auto s = slem_spectrum(WalkOperator{gen::cycle(n)});
  ASSERT_TRUE(s.converged);
  EXPECT_GT(s.iterations, 300u);
  EXPECT_GT(s.restarts, 0u);
  EXPECT_NEAR(s.lambda2, std::cos(2 * std::numbers::pi / n), 1e-8);
  EXPECT_NEAR(s.lambda_min, -std::cos(std::numbers::pi / n), 1e-8);
}

TEST(LanczosReorthogonalize, HeavyCancellationTriggersSecondPass) {
  // Six orthonormal columns over several row blocks, and an input 99% of
  // whose norm lies in their span: one pass cancels almost all of it.
  constexpr std::size_t n = 3 * detail::kReorthBlockRows + 123;
  constexpr std::size_t k = 6;
  util::Rng rng{11};
  std::vector<double> q(k * n);
  for (std::size_t j = 0; j < k; ++j) {
    std::span<double> col{q.data() + j * n, n};
    randomize_unit(col, rng);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < j; ++i) {
        orthogonalize_against(col, std::span<const double>{q.data() + i * n, n});
      }
    }
    normalize2(col);
  }
  std::vector<double> w(n);
  randomize_unit(w, rng);
  scale(w, 0.01);
  for (std::size_t j = 0; j < k; ++j) {
    axpy(0.99 / std::sqrt(static_cast<double>(k)),
         std::span<const double>{q.data() + j * n, n}, w);
  }

  EXPECT_TRUE(detail::reorthogonalize(w, q));
  const double norm = norm2(w);
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_LE(std::fabs(dot(std::span<const double>{q.data() + j * n, n}, w)) / norm,
              1e-14)
        << j;
  }
  // Already orthogonal: one pass removes nothing and the test passes.
  EXPECT_FALSE(detail::reorthogonalize(w, q));
}

}  // namespace
}  // namespace socmix::linalg
