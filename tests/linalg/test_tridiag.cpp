#include "linalg/tridiag.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "linalg/dense.hpp"
#include "util/rng.hpp"

namespace socmix::linalg {
namespace {

TEST(Tridiag, EmptyAndScalar) {
  EXPECT_TRUE(tridiag_eigen({}, {}, false).values.empty());
  const auto one = tridiag_eigen(std::vector<double>{3.5}, {}, true);
  ASSERT_EQ(one.values.size(), 1u);
  EXPECT_DOUBLE_EQ(one.values[0], 3.5);
  EXPECT_DOUBLE_EQ(one.vectors[0], 1.0);
}

TEST(Tridiag, DiagonalMatrix) {
  const std::vector<double> diag{3, 1, 2};
  const std::vector<double> off{0, 0};
  const auto eig = tridiag_eigen(diag, off, false);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_DOUBLE_EQ(eig.values[0], 1.0);
  EXPECT_DOUBLE_EQ(eig.values[1], 2.0);
  EXPECT_DOUBLE_EQ(eig.values[2], 3.0);
}

TEST(Tridiag, TwoByTwoClosedForm) {
  // [[a, b], [b, c]]: eigenvalues (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2).
  const double a = 2.0;
  const double b = 1.5;
  const double c = -1.0;
  const auto eig = tridiag_eigen(std::vector<double>{a, c}, std::vector<double>{b}, false);
  const double mid = (a + c) / 2;
  const double rad = std::sqrt((a - c) * (a - c) / 4 + b * b);
  ASSERT_EQ(eig.values.size(), 2u);
  EXPECT_NEAR(eig.values[0], mid - rad, 1e-12);
  EXPECT_NEAR(eig.values[1], mid + rad, 1e-12);
}

TEST(Tridiag, ToeplitzClosedForm) {
  // diag a, offdiag b: lambda_k = a + 2b cos(k pi / (n+1)), k = 1..n.
  const std::size_t n = 12;
  const double a = 0.5;
  const double b = -0.25;
  const std::vector<double> diag(n, a);
  const std::vector<double> off(n - 1, b);
  const auto eig = tridiag_eigen(diag, off, false);
  std::vector<double> expected;
  for (std::size_t k = 1; k <= n; ++k) {
    expected.push_back(a + 2 * b * std::cos(static_cast<double>(k) * std::numbers::pi /
                                            static_cast<double>(n + 1)));
  }
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(eig.values[i], expected[i], 1e-10);
}

TEST(Tridiag, EigenvectorsSatisfyDefinition) {
  const std::vector<double> diag{1.0, -0.5, 2.0, 0.25};
  const std::vector<double> off{0.7, -0.3, 0.9};
  const auto eig = tridiag_eigen(diag, off, true);
  const std::size_t m = diag.size();
  ASSERT_EQ(eig.vectors.size(), m * m);

  for (std::size_t k = 0; k < m; ++k) {
    // Residual || T v - lambda v ||_inf.
    for (std::size_t i = 0; i < m; ++i) {
      double tv = diag[i] * eig.vectors[k * m + i];
      if (i > 0) tv += off[i - 1] * eig.vectors[k * m + i - 1];
      if (i + 1 < m) tv += off[i] * eig.vectors[k * m + i + 1];
      EXPECT_NEAR(tv, eig.values[k] * eig.vectors[k * m + i], 1e-10);
    }
  }
}

TEST(Tridiag, EigenvectorsOrthonormal) {
  const std::vector<double> diag{0.1, 0.2, 0.3, 0.4, 0.5};
  const std::vector<double> off{1, 1, 1, 1};
  const auto eig = tridiag_eigen(diag, off, true);
  const std::size_t m = diag.size();
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      double d = 0;
      for (std::size_t i = 0; i < m; ++i) d += eig.vectors[a * m + i] * eig.vectors[b * m + i];
      EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Tridiag, TraceAndFrobeniusPreserved) {
  const std::vector<double> diag{2, -1, 0.5, 3, -2, 1};
  const std::vector<double> off{0.3, 0.8, -0.6, 0.1, 1.2};
  const auto eig = tridiag_eigen(diag, off, false);

  double trace = 0;
  double frob = 0;
  for (const double d : diag) {
    trace += d;
    frob += d * d;
  }
  for (const double e : off) frob += 2 * e * e;

  double trace_eig = 0;
  double frob_eig = 0;
  for (const double v : eig.values) {
    trace_eig += v;
    frob_eig += v * v;
  }
  EXPECT_NEAR(trace, trace_eig, 1e-10);
  EXPECT_NEAR(frob, frob_eig, 1e-9);
}

TEST(Tridiag, RejectsMismatchedSizes) {
  EXPECT_THROW(tridiag_eigen(std::vector<double>{1, 2}, std::vector<double>{}, false),
               std::invalid_argument);
}

TEST(Tridiag, ValuesAscending) {
  const std::vector<double> diag{5, 1, 3, 2, 4};
  const std::vector<double> off{0.9, 0.9, 0.9, 0.9};
  const auto eig = tridiag_eigen(diag, off, false);
  for (std::size_t i = 1; i < eig.values.size(); ++i) {
    EXPECT_LE(eig.values[i - 1], eig.values[i]);
  }
}

TEST(SymmetricEigen, MatchesJacobiWithOrthonormalEigenvectors) {
  // A random dense matrix, and an arrowhead-plus-tridiagonal one shaped like
  // the Lanczos projected matrix after a thick restart.
  constexpr std::size_t m = 24;
  util::Rng rng{17};
  DenseSym dense{m, std::vector<double>(m * m)};
  DenseSym arrow{m, std::vector<double>(m * m, 0.0)};
  constexpr std::size_t kept = 10;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j <= i; ++j) dense.at(i, j) = dense.at(j, i) = rng.uniform() - 0.5;
    arrow.at(i, i) = rng.uniform() - 0.5;
    if (i < kept) arrow.at(i, kept) = arrow.at(kept, i) = rng.uniform() - 0.5;
    if (i >= kept && i + 1 < m) arrow.at(i, i + 1) = arrow.at(i + 1, i) = rng.uniform();
  }
  for (const DenseSym& a : {dense, arrow}) {
    const auto eig = symmetric_eigen(a.a, m);
    const auto exact = jacobi_eigenvalues(a);
    ASSERT_EQ(eig.values.size(), m);
    ASSERT_EQ(eig.vectors.size(), m * m);
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_NEAR(eig.values[k], exact[k], 1e-12) << k;
      const double* v = eig.vectors.data() + k * m;
      for (std::size_t i = 0; i < m; ++i) {
        double av = 0.0;
        for (std::size_t j = 0; j < m; ++j) av += a.at(i, j) * v[j];
        EXPECT_NEAR(av, eig.values[k] * v[i], 1e-12) << k << "," << i;
      }
      for (std::size_t l = 0; l <= k; ++l) {
        double d = 0.0;
        for (std::size_t i = 0; i < m; ++i) d += v[i] * eig.vectors[l * m + i];
        EXPECT_NEAR(d, l == k ? 1.0 : 0.0, 1e-12);
      }
    }
  }
}

TEST(SymmetricEigen, TridiagonalInputMatchesTridiagEigen) {
  const std::vector<double> diag{2, -1, 0.5, 3, -2, 1};
  const std::vector<double> off{0.3, 0.8, -0.6, 0.1, 1.2};
  const std::size_t m = diag.size();
  std::vector<double> a(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) a[i * m + i] = diag[i];
  for (std::size_t i = 0; i + 1 < m; ++i) a[i * m + i + 1] = a[(i + 1) * m + i] = off[i];
  const auto dense = symmetric_eigen(a, m);
  const auto tri = tridiag_eigen(diag, off, true);
  EXPECT_EQ(dense.values, tri.values);
  EXPECT_EQ(dense.vectors, tri.vectors);
  EXPECT_THROW((void)symmetric_eigen(a, m - 1), std::invalid_argument);
}

}  // namespace
}  // namespace socmix::linalg
