// Symmetric Lanczos eigensolver with full reorthogonalization.
//
// Computes the extremal eigenvalues of a symmetrized walk operator
// N = D^{-1/2} A D^{-1/2} (or its weighted analogue) — in particular
// lambda_2 (second largest) and lambda_min — from which the paper's SLEM is
//     mu = max(lambda_2, |lambda_min|).
//
// The known top eigenpair (1, D^{1/2} 1) is deflated analytically: it is
// column 0 of the basis, so every Lanczos vector is kept orthogonal to it
// and the *largest* Ritz value of the deflated operator is exactly
// lambda_2.
//
// Full reorthogonalization is blocked classical Gram–Schmidt over one
// contiguous column-major basis (detail::reorthogonalize): h = Q^T w, then
// w -= Q h, each a sweep over fixed 4096-row blocks on the thread pool. A
// second pass runs only when the first cancelled most of w (the DGKS test
// ARPACK uses: ||w_after|| < ||w_before|| / sqrt(2)). The blocks do not
// depend on the thread count and their partial sums are reduced in block
// order, so every result bit is the same at any thread count. The work is
// O(k^2 n) — the right trade for the modest subspace sizes (<= a few
// hundred) these spectra need.
//
// The solver is generic over any operator satisfying WalkLikeOperator
// (unweighted WalkOperator, weighted WeightedWalkOperator, ...).
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/tridiag.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/walk_operator.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace socmix::linalg {

/// Requirements on a matrix-free symmetric walk operator: dimension, SpMV,
/// the analytically-known top eigenvector, and the lazy-walk affine map.
template <typename Op>
concept WalkLikeOperator = requires(const Op op, std::span<const double> x,
                                    std::span<double> y) {
  { op.dim() } -> std::convertible_to<std::size_t>;
  { op.apply(x, y) };
  { op.top_eigenvector() } -> std::convertible_to<std::vector<double>>;
  { op.laziness() } -> std::convertible_to<double>;
};

struct LanczosOptions {
  /// Maximum Lanczos subspace dimension (= max operator applications).
  std::size_t max_iterations = 300;
  /// Convergence: residual bound |beta_k * s_last| on both extremal Ritz
  /// pairs must fall below this.
  double tolerance = 1e-8;
  /// Seed for the random start vector.
  std::uint64_t seed = 0x1a2b3c4d5e6f7788ULL;
  /// Check convergence every this many iterations.
  std::size_t check_every = 5;
};

/// Extremal spectrum of the (deflated) walk operator.
struct SpectrumResult {
  /// Second largest eigenvalue of the transition matrix P (lambda_2).
  double lambda2 = 0.0;
  /// Smallest eigenvalue of P (lambda_n; can approach -1 for near-bipartite
  /// structures).
  double lambda_min = 0.0;
  /// Second largest eigenvalue modulus: mu = max(lambda2, |lambda_min|).
  double slem = 0.0;
  /// Iterations (subspace dimension) actually used.
  std::size_t iterations = 0;
  /// Whether both extremal Ritz pairs met the residual tolerance.
  bool converged = false;
  /// Ritz vector for lambda_2 in the symmetrized space (length n). Filled
  /// only by slem_spectrum_with_vector.
  std::vector<double> lambda2_vector;
};

namespace detail {

/// Rows per block of the reorthogonalization sweeps. Fixed, so that the
/// per-block partial sums — and with them every output bit — do not depend
/// on the thread count.
inline constexpr std::size_t kReorthBlockRows = 4096;

/// Orthogonalizes w against the k = basis.size() / w.size() orthonormal
/// columns of the column-major `basis` by blocked classical Gram–Schmidt,
/// with a second pass when the first left less than 1/sqrt(2) of ||w||
/// (DGKS). Returns whether the second pass ran. Bit-identical at any
/// thread count.
bool reorthogonalize(std::span<double> w, std::span<const double> basis);

/// Runs the solver. When `basis_out` is given it receives the final
/// column-major basis (column 0 the deflation vector), for tests.
template <WalkLikeOperator Op>
SpectrumResult run_lanczos(const Op& op, const LanczosOptions& options,
                           bool want_vector, std::vector<double>* basis_out = nullptr) {
  SOCMIX_TRACE_SPAN("lanczos.solve");
  SOCMIX_COUNTER_ADD("linalg.lanczos.solves", 1);
  const std::size_t n = op.dim();
  SpectrumResult result;
  if (n == 0) return result;
  if (n == 1) {
    // A single vertex is the trivial chain; SLEM is 0 by convention.
    result.converged = true;
    return result;
  }

  const std::size_t max_iter = std::min(options.max_iterations, n);

  // Column 0 is the deflation vector, column i + 1 the i-th Lanczos vector.
  // Reserved up front but grown one column per step, so only the columns
  // in use are ever touched.
  std::vector<double> basis;
  basis.reserve((max_iter + 1) * n);
  {
    const std::vector<double> deflate = op.top_eigenvector();
    basis.insert(basis.end(), deflate.begin(), deflate.end());
  }
  const auto column = [&basis, n](std::size_t j) {
    return std::span<const double>{basis.data() + j * n, n};
  };
  std::vector<double> alpha;
  std::vector<double> beta;  // beta[i] couples Lanczos steps i and i+1

  util::Rng rng{options.seed};
  std::vector<double> v(n);
  randomize_unit(v, rng);
  reorthogonalize(v, basis);
  if (normalize2(v) == 0.0) {
    throw std::runtime_error{"lanczos: start vector vanished under deflation"};
  }

  std::vector<double> w(n);
  TridiagEigen eig;
  const auto solve_tridiag = [&] {
    SOCMIX_TRACE_SPAN("lanczos.tridiag");
    const std::size_t k = alpha.size();
    eig = tridiag_eigen(alpha, std::span<const double>{beta.data(), k - 1},
                        /*want_vectors=*/true);
  };

  // Residual bounds for the extremal Ritz pairs: |beta_next * s_{k-1,j}|,
  // where s is the tridiagonal eigenvector and beta_next the just-computed
  // norm of the next (unnormalized) Lanczos vector.
  const auto extremal_residuals_ok = [&](double beta_next) -> bool {
    const std::size_t k = alpha.size();
    if (k < 2) return false;
    solve_tridiag();
    const double res_top = std::fabs(beta_next * eig.vectors[(k - 1) * k + (k - 1)]);
    const double res_bot = std::fabs(beta_next * eig.vectors[0 * k + (k - 1)]);
    SOCMIX_GAUGE_SET("linalg.lanczos.residual_top", res_top);
    SOCMIX_GAUGE_SET("linalg.lanczos.residual_bottom", res_bot);
    return res_top <= options.tolerance && res_bot <= options.tolerance;
  };

  bool converged = false;
  while (true) {
    op.apply(v, w);
    const double a = dot(w, v);
    alpha.push_back(a);
    basis.insert(basis.end(), v.begin(), v.end());
    const std::size_t k = alpha.size();

    // Three-term recurrence first, so reorthogonalization only removes
    // rounding-level components and its DGKS second pass stays rare.
    axpy(-a, v, w);
    if (k > 1) axpy(-beta.back(), column(k - 1), w);
    {
      SOCMIX_TRACE_SPAN("lanczos.reorth");
      if (reorthogonalize(w, basis)) {
        SOCMIX_COUNTER_ADD("linalg.lanczos.reorth_second_pass", 1);
      }
    }
    const double b = norm2(w);

    const bool exhausted = b <= 1e-14;  // invariant subspace reached: exact
    if (k % options.check_every == 0 || k == max_iter || exhausted) {
      if (extremal_residuals_ok(b) || exhausted) {
        converged = true;
        break;
      }
    }
    if (k == max_iter) break;

    beta.push_back(b);
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / b;
  }

  const std::size_t dim = alpha.size();
  if (eig.values.size() != dim) solve_tridiag();

  result.iterations = dim;
  result.converged = converged;
  SOCMIX_COUNTER_ADD("linalg.lanczos.iterations", dim);
  SOCMIX_GAUGE_SET("linalg.lanczos.last_iterations", dim);

  // Ritz values approximate the *deflated* operator's spectrum: its largest
  // is lambda_2 of the (possibly lazy) operator; map back to P's spectrum.
  const double laziness = op.laziness();
  const auto unmap = [laziness](double lam) { return (lam - laziness) / (1.0 - laziness); };
  result.lambda2 = unmap(eig.values.back());
  result.lambda_min = unmap(eig.values.front());
  result.slem = std::clamp(std::max(result.lambda2, std::fabs(result.lambda_min)), 0.0, 1.0);

  if (want_vector) {
    // Ritz vector for the top Ritz value: y = sum_i s_i q_i.
    const std::size_t m = eig.values.size();
    std::span<const double> s{eig.vectors.data() + (m - 1) * m, m};
    result.lambda2_vector.assign(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) axpy(s[i], column(i + 1), result.lambda2_vector);
    normalize2(result.lambda2_vector);
  }
  if (basis_out != nullptr) *basis_out = std::move(basis);
  return result;
}

}  // namespace detail

/// Runs deflated Lanczos on `op` and returns the extremal spectrum.
template <WalkLikeOperator Op>
[[nodiscard]] SpectrumResult slem_spectrum(const Op& op,
                                           const LanczosOptions& options = {}) {
  return detail::run_lanczos(op, options, /*want_vector=*/false);
}

/// As slem_spectrum, but also reconstructs the Ritz vector for lambda_2.
template <WalkLikeOperator Op>
[[nodiscard]] SpectrumResult slem_spectrum_with_vector(
    const Op& op, const LanczosOptions& options = {}) {
  return detail::run_lanczos(op, options, /*want_vector=*/true);
}

}  // namespace socmix::linalg
