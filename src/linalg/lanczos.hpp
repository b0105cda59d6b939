// Symmetric thick-restart Lanczos eigensolver with full reorthogonalization.
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
// The basis is one contiguous column-major block of at most
// kMaxLanczosColumns Lanczos columns after the deflation column. When it
// fills before convergence, the solver thick-restarts (Wu & Simon 2000):
// it keeps the Ritz pairs at both ends of the spectrum (kKeepLargest and
// kKeepSmallest of them), rotates them into the leading columns in place
// (detail::rotate_basis), and carries the residual vector over as the next
// Lanczos vector. The projected matrix is then a diagonal block of kept
// Ritz values with an arrowhead coupling to that vector, followed by the
// usual tridiagonal recurrence, so it is solved densely (symmetric_eigen);
// before the first restart it is tridiagonal and tridiag_eigen solves it.
// Memory is therefore (kMaxLanczosColumns + 1) n doubles for the basis
// whatever the number of operator applications, and every reorthogonalization
// sweep runs over a basis small enough to stay in cache.
//
// Full reorthogonalization is blocked classical Gram–Schmidt
// (detail::reorthogonalize): h = Q^T w, then w -= Q h, each a sweep over
// fixed 4096-row blocks on the thread pool. A second pass runs only when
// the first cancelled most of w (the DGKS test ARPACK uses: ||w_after|| <
// ||w_before|| / sqrt(2)). The blocks do not depend on the thread count
// and their partial sums are reduced in block order, and the restart
// rotation sums in a fixed order over fixed row blocks, so every result
// bit is the same at any thread count.
//
// The solver is generic over any operator satisfying WalkLikeOperator
// (unweighted WalkOperator, weighted WeightedWalkOperator, ...).
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
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
  /// Maximum operator applications. The basis stays bounded however many
  /// there are (see kMaxLanczosColumns).
  std::size_t max_iterations = 1000;
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
  /// Operator applications actually used.
  std::size_t iterations = 0;
  /// Thick restarts performed (0 when the solve fit in one basis).
  std::size_t restarts = 0;
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

/// Lanczos columns the basis holds (after the deflation column) before a
/// thick restart.
inline constexpr std::size_t kMaxLanczosColumns = 64;
/// Ritz pairs a restart keeps at the top and at the bottom of the
/// spectrum: lambda_2 and lambda_min are the targets, and their neighbours
/// keep the restarted subspace converging at nearly the unrestarted rate.
inline constexpr std::size_t kKeepLargest = 24;
inline constexpr std::size_t kKeepSmallest = 8;

/// Rows per block of the restart rotation: a kept-columns x rows
/// temporary and the block's basis rows stay in L2.
inline constexpr std::size_t kRotateBlockRows = 256;

/// Orthogonalizes w against the k = basis.size() / w.size() orthonormal
/// columns of the column-major `basis` by blocked classical Gram–Schmidt,
/// with a second pass when the first left less than 1/sqrt(2) of ||w||
/// (DGKS). Returns whether the second pass ran. Bit-identical at any
/// thread count.
bool reorthogonalize(std::span<double> w, std::span<const double> basis);

/// In place q[:, 0..k) <- q y^T over the m = q.size() / n columns of the
/// column-major n-row `q`, where `y` is k x m row-major (k <= m). Runs over
/// fixed row blocks with a k x kRotateBlockRows temporary, summing over
/// the m columns in order, so it needs no second basis and is
/// bit-identical at any thread count.
void rotate_basis(std::span<double> q, std::size_t n, std::span<const double> y,
                  std::size_t k);

/// Eigenpairs of the projected matrix: diagonal `alpha`; for i <
/// arrow.size(), arrow[i] couples i with arrow.size(); beta[j] couples
/// arrow.size() + j with arrow.size() + j + 1. With no arrow this is the
/// tridiagonal case.
TridiagEigen projected_eigen(std::span<const double> alpha, std::span<const double> arrow,
                             std::span<const double> beta);

/// Runs the solver. When `basis_out` is given it receives the final
/// column-major basis (column 0 the deflation vector), for tests.
template <WalkLikeOperator Op>
SpectrumResult run_lanczos(const Op& op, const LanczosOptions& options,
                           bool want_vector, std::vector<double>* basis_out = nullptr) {
  SOCMIX_TRACE_SPAN("lanczos.solve");
  SOCMIX_COUNTER_ADD("linalg.lanczos.solves", 1);
  const std::size_t n = op.dim();
  SpectrumResult result;
  SOCMIX_GAUGE_SET("linalg.lanczos.restarts", 0);
  if (n == 0) return result;
  if (n == 1) {
    // A single vertex is the trivial chain; SLEM is 0 by convention.
    result.converged = true;
    return result;
  }

  // Column 0 is the deflation vector, column i + 1 the i-th Lanczos vector
  // since the last restart (the kept Ritz vectors first). Reserved up
  // front but grown one column per step, so only the columns in use are
  // ever touched. When the deflated space (dimension n - 1) fits, the
  // Krylov space is exhausted before the basis fills and nothing restarts.
  const std::size_t max_apps = options.max_iterations;
  std::vector<double> basis;
  basis.reserve((std::min(max_apps, kMaxLanczosColumns) + 1) * n);
  {
    const std::vector<double> deflate = op.top_eigenvector();
    basis.insert(basis.end(), deflate.begin(), deflate.end());
  }
  const auto column = [&basis, n](std::size_t j) {
    return std::span<const double>{basis.data() + j * n, n};
  };
  // The projected matrix (see projected_eigen): alpha its diagonal, arrow
  // the kept Ritz vectors' coupling to the first vector after a restart,
  // beta[j] the coupling of Lanczos steps arrow.size() + j and the next.
  std::vector<double> alpha;
  std::vector<double> arrow;
  std::vector<double> beta;

  util::Rng rng{options.seed};
  std::vector<double> v(n);
  randomize_unit(v, rng);
  reorthogonalize(v, basis);
  if (normalize2(v) == 0.0) {
    throw std::runtime_error{"lanczos: start vector vanished under deflation"};
  }

  std::vector<double> w(n);
  TridiagEigen eig;
  const auto solve_projected = [&] {
    SOCMIX_TRACE_SPAN("lanczos.tridiag");
    eig = projected_eigen(alpha, arrow, beta);
  };

  // Residual bounds for the extremal Ritz pairs: |beta_next * s_{k-1,j}|,
  // where s is the projected matrix's eigenvector and beta_next the
  // just-computed norm of the next (unnormalized) Lanczos vector.
  const auto extremal_residuals_ok = [&](double beta_next) -> bool {
    const std::size_t k = alpha.size();
    if (k < 2) return false;
    solve_projected();
    const double res_top = std::fabs(beta_next * eig.vectors[(k - 1) * k + (k - 1)]);
    const double res_bot = std::fabs(beta_next * eig.vectors[0 * k + (k - 1)]);
    SOCMIX_GAUGE_SET("linalg.lanczos.residual_top", res_top);
    SOCMIX_GAUGE_SET("linalg.lanczos.residual_bottom", res_bot);
    return res_top <= options.tolerance && res_bot <= options.tolerance;
  };

  // Thick restart on a full basis whose projected matrix `eig` solved: the
  // Ritz vectors at both ends of the spectrum become columns 1..kept,
  // coupled to the next Lanczos vector (the normalized residual) by
  // beta_next times their last component.
  std::size_t restarts = 0;
  const auto restart = [&](double beta_next) {
    SOCMIX_TRACE_SPAN("lanczos.restart");
    const std::size_t m = alpha.size();
    std::vector<double> y;
    y.reserve((kKeepSmallest + kKeepLargest) * m);
    alpha.clear();
    arrow.clear();
    beta.clear();
    for (std::size_t j = 0; j < m; ++j) {
      if (j >= kKeepSmallest && j < m - kKeepLargest) continue;
      const double* s = eig.vectors.data() + j * m;
      y.insert(y.end(), s, s + m);
      alpha.push_back(eig.values[j]);
      arrow.push_back(beta_next * s[m - 1]);
    }
    rotate_basis(std::span<double>{basis.data() + n, m * n}, n, y, alpha.size());
    basis.resize((alpha.size() + 1) * n);
    ++restarts;
  };

  bool converged = false;
  std::size_t apps = 0;
  while (true) {
    op.apply(v, w);
    ++apps;
    const double a = dot(w, v);
    alpha.push_back(a);
    basis.insert(basis.end(), v.begin(), v.end());
    const std::size_t k = alpha.size();

    // Three-term recurrence first (after a restart: the arrowhead coupling
    // to every kept Ritz vector), so reorthogonalization only removes
    // rounding-level components and its DGKS second pass stays rare.
    axpy(-a, v, w);
    if (k == arrow.size() + 1) {
      for (std::size_t i = 0; i < arrow.size(); ++i) axpy(-arrow[i], column(i + 1), w);
    } else {
      axpy(-beta.back(), column(k - 1), w);
    }
    {
      SOCMIX_TRACE_SPAN("lanczos.reorth");
      if (reorthogonalize(w, basis)) {
        SOCMIX_COUNTER_ADD("linalg.lanczos.reorth_second_pass", 1);
      }
    }
    const double b = norm2(w);

    const bool exhausted = b <= 1e-14;  // invariant subspace reached: exact
    const bool full = k == kMaxLanczosColumns;
    if (apps % options.check_every == 0 || apps >= max_apps || exhausted || full) {
      if (extremal_residuals_ok(b) || exhausted) {
        converged = true;
        break;
      }
    }
    if (apps >= max_apps) break;

    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / b;
    if (full) {
      restart(b);
    } else {
      beta.push_back(b);
    }
  }

  if (eig.values.size() != alpha.size()) solve_projected();

  result.iterations = apps;
  result.restarts = restarts;
  result.converged = converged;
  SOCMIX_COUNTER_ADD("linalg.lanczos.iterations", apps);
  SOCMIX_GAUGE_SET("linalg.lanczos.last_iterations", apps);
  SOCMIX_GAUGE_SET("linalg.lanczos.restarts", restarts);

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
