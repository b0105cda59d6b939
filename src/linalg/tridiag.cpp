#include "linalg/tridiag.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace socmix::linalg {

namespace {
/// sqrt(a^2 + b^2) without destructive overflow/underflow.
[[nodiscard]] double pythag(double a, double b) noexcept { return std::hypot(a, b); }
}  // namespace

TridiagEigen tridiag_eigen(std::span<const double> diag, std::span<const double> offdiag,
                           bool want_vectors) {
  const std::size_t m = diag.size();
  TridiagEigen out;
  out.values.assign(diag.begin(), diag.end());
  if (m == 0) return out;
  if (offdiag.size() + 1 != m) {
    throw std::invalid_argument{"tridiag_eigen: offdiag must have size m-1"};
  }

  std::vector<double> e(m, 0.0);
  std::copy(offdiag.begin(), offdiag.end(), e.begin());  // e[i] couples i,i+1

  std::vector<double>& d = out.values;
  std::vector<double>& z = out.vectors;
  if (want_vectors) {
    z.assign(m * m, 0.0);
    for (std::size_t i = 0; i < m; ++i) z[i * m + i] = 1.0;  // identity
  }

  // Implicit QL with Wilkinson shift (tqli, Numerical-Recipes structure).
  for (std::size_t l = 0; l < m; ++l) {
    int iterations = 0;
    std::size_t split = 0;
    do {
      // Find the first negligible off-diagonal at or after l.
      for (split = l; split + 1 < m; ++split) {
        const double dd = std::fabs(d[split]) + std::fabs(d[split + 1]);
        if (std::fabs(e[split]) <= 1e-16 * dd) break;
      }
      if (split != l) {
        if (iterations++ == 50) {
          throw std::runtime_error{"tridiag_eigen: QL iteration did not converge"};
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = pythag(g, 1.0);
        g = d[split] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = split; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = pythag(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[split] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (want_vectors) {
            for (std::size_t k = 0; k < m; ++k) {
              f = z[k * m + i + 1];
              z[k * m + i + 1] = s * z[k * m + i] + c * f;
              z[k * m + i] = c * z[k * m + i] - s * f;
            }
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[split] = 0.0;
      }
    } while (split != l);
  }

  // Sort eigenvalues ascending, permuting eigenvectors alongside.
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });

  std::vector<double> sorted_values(m);
  for (std::size_t k = 0; k < m; ++k) sorted_values[k] = d[order[k]];

  if (want_vectors) {
    // z holds eigenvectors as columns (z[row*m + col]); re-emit each sorted
    // eigenvector as a contiguous row.
    std::vector<double> sorted_vectors(m * m);
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t col = order[k];
      for (std::size_t i = 0; i < m; ++i) sorted_vectors[k * m + i] = z[i * m + col];
    }
    out.vectors = std::move(sorted_vectors);
  }
  out.values = std::move(sorted_values);
  return out;
}

TridiagEigen symmetric_eigen(std::span<const double> a, std::size_t m) {
  if (a.size() != m * m) {
    throw std::invalid_argument{"symmetric_eigen: matrix must be m x m"};
  }
  std::vector<double> h(a.begin(), a.end());
  const auto at = [&h, m](std::size_t i, std::size_t j) -> double& { return h[i * m + j]; };
  // q accumulates the reflectors: a = q t q^T with t tridiagonal.
  std::vector<double> q(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) q[i * m + i] = 1.0;

  std::vector<double> u(m);
  std::vector<double> p(m);
  for (std::size_t k = 0; k + 2 < m; ++k) {
    // Reflector P = I - tau u u^T mapping column k below the subdiagonal
    // onto the subdiagonal; skipped when that part is already zero.
    double tail = 0.0;
    for (std::size_t i = k + 2; i < m; ++i) tail += at(i, k) * at(i, k);
    if (tail == 0.0) continue;
    const double x0 = at(k + 1, k);
    const double alpha = -std::copysign(std::sqrt(tail + x0 * x0), x0);
    u[k + 1] = x0 - alpha;
    for (std::size_t i = k + 2; i < m; ++i) u[i] = at(i, k);
    const double tau = 2.0 / (tail + u[k + 1] * u[k + 1]);

    // Trailing block: A <- P A P = A - u r^T - r u^T with p = tau A u,
    // r = p - (tau/2)(u^T p) u.
    double up = 0.0;
    for (std::size_t i = k + 1; i < m; ++i) {
      double s = 0.0;
      for (std::size_t j = k + 1; j < m; ++j) s += at(i, j) * u[j];
      p[i] = tau * s;
      up += u[i] * p[i];
    }
    const double half = 0.5 * tau * up;
    for (std::size_t i = k + 1; i < m; ++i) p[i] -= half * u[i];
    for (std::size_t i = k + 1; i < m; ++i) {
      for (std::size_t j = k + 1; j < m; ++j) at(i, j) -= u[i] * p[j] + p[i] * u[j];
    }
    at(k + 1, k) = alpha;
    at(k, k + 1) = alpha;
    for (std::size_t i = k + 2; i < m; ++i) at(i, k) = at(k, i) = 0.0;

    // q <- q P.
    for (std::size_t r = 0; r < m; ++r) {
      double s = 0.0;
      for (std::size_t j = k + 1; j < m; ++j) s += q[r * m + j] * u[j];
      s *= tau;
      for (std::size_t j = k + 1; j < m; ++j) q[r * m + j] -= s * u[j];
    }
  }

  std::vector<double> diag(m);
  std::vector<double> offdiag(m > 0 ? m - 1 : 0);
  for (std::size_t i = 0; i < m; ++i) diag[i] = at(i, i);
  for (std::size_t i = 0; i + 1 < m; ++i) offdiag[i] = at(i, i + 1);
  TridiagEigen out = tridiag_eigen(diag, offdiag, /*want_vectors=*/true);

  // Eigenvector k of a is q z_k.
  std::vector<double> vectors(m * m, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    const double* z = out.vectors.data() + k * m;
    double* x = vectors.data() + k * m;
    for (std::size_t r = 0; r < m; ++r) {
      double s = 0.0;
      for (std::size_t i = 0; i < m; ++i) s += q[r * m + i] * z[i];
      x[r] = s;
    }
  }
  out.vectors = std::move(vectors);
  return out;
}

}  // namespace socmix::linalg
