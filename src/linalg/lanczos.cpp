#include "linalg/lanczos.hpp"

#include <algorithm>
#include <array>

#include "util/parallel.hpp"

namespace socmix::linalg {

namespace detail {

namespace {

/// Independent accumulators per dot product: enough to break the serial
/// add chain so the loop vectorizes without reassociating (no fast-math),
/// reduced by a fixed tree so the result does not depend on the caller.
constexpr std::size_t kLanes = 8;

double block_dot(const double* a, const double* b, std::size_t len) noexcept {
  std::array<double, kLanes> acc{};
  std::size_t i = 0;
  for (; i + kLanes <= len; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) acc[l] += a[i + l] * b[i + l];
  }
  double tail = 0.0;
  for (; i < len; ++i) tail += a[i] * b[i];
  return ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) +
         tail;
}

/// One classical Gram–Schmidt pass: w -= Q (Q^T w) over the k columns of
/// the column-major `q`. Returns (||w||^2 before, ||w||^2 after).
std::array<double, 2> cgs_pass(std::span<double> w, std::span<const double> q,
                               std::size_t k) {
  const std::size_t n = w.size();
  const std::size_t blocks = (n + kReorthBlockRows - 1) / kReorthBlockRows;
  // Slot b holds block b's k coefficient partials, then its ||w||^2 partial.
  const std::size_t stride = k + 1;
  std::vector<double> partial(blocks * stride);

  util::parallel_for(0, blocks, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t r0 = b * kReorthBlockRows;
      const std::size_t len = std::min(kReorthBlockRows, n - r0);
      const double* wb = w.data() + r0;
      double* slot = partial.data() + b * stride;
      for (std::size_t j = 0; j < k; ++j) slot[j] = block_dot(q.data() + j * n + r0, wb, len);
      slot[k] = block_dot(wb, wb, len);
    }
  });
  std::vector<double> h(stride, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j < stride; ++j) h[j] += partial[b * stride + j];
  }

  std::vector<double> after_partial(blocks);
  util::parallel_for(0, blocks, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t r0 = b * kReorthBlockRows;
      const std::size_t len = std::min(kReorthBlockRows, n - r0);
      double* wb = w.data() + r0;
      for (std::size_t j = 0; j < k; ++j) {
        const double* qb = q.data() + j * n + r0;
        const double hj = h[j];
        for (std::size_t i = 0; i < len; ++i) wb[i] -= hj * qb[i];
      }
      after_partial[b] = block_dot(wb, wb, len);
    }
  });
  double after = 0.0;
  for (const double p : after_partial) after += p;
  return {h[k], after};
}

}  // namespace

bool reorthogonalize(std::span<double> w, std::span<const double> basis) {
  const std::size_t n = w.size();
  if (n == 0) return false;
  const std::size_t k = basis.size() / n;
  const auto [before, after] = cgs_pass(w, basis, k);
  // DGKS: ||w_after|| < ||w_before|| / sqrt(2) means the pass cancelled
  // enough that rounding in Q^T w may have left w visibly non-orthogonal.
  if (!(after < 0.5 * before)) return false;
  cgs_pass(w, basis, k);
  return true;
}

void rotate_basis(std::span<double> q, std::size_t n, std::span<const double> y,
                  std::size_t k) {
  if (n == 0 || k == 0) return;
  const std::size_t m = q.size() / n;
  const std::size_t blocks = (n + kRotateBlockRows - 1) / kRotateBlockRows;
  util::parallel_for(0, blocks, 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<double> rotated(k * kRotateBlockRows);
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t r0 = b * kRotateBlockRows;
      const std::size_t len = std::min(kRotateBlockRows, n - r0);
      for (std::size_t i = 0; i < k; ++i) {
        double* t = rotated.data() + i * kRotateBlockRows;
        const double* yi = y.data() + i * m;
        for (std::size_t r = 0; r < len; ++r) t[r] = yi[0] * q[r0 + r];
        for (std::size_t j = 1; j < m; ++j) {
          const double yij = yi[j];
          const double* qj = q.data() + j * n + r0;
          for (std::size_t r = 0; r < len; ++r) t[r] += yij * qj[r];
        }
      }
      for (std::size_t i = 0; i < k; ++i) {
        const double* t = rotated.data() + i * kRotateBlockRows;
        std::copy(t, t + len, q.data() + i * n + r0);
      }
    }
  });
}

TridiagEigen projected_eigen(std::span<const double> alpha, std::span<const double> arrow,
                             std::span<const double> beta) {
  const std::size_t m = alpha.size();
  const std::size_t kept = arrow.size();
  if (kept == 0) return tridiag_eigen(alpha, beta.first(m - 1), /*want_vectors=*/true);
  std::vector<double> h(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) h[i * m + i] = alpha[i];
  for (std::size_t i = 0; i < kept; ++i) h[i * m + kept] = h[kept * m + i] = arrow[i];
  for (std::size_t j = kept; j + 1 < m; ++j) {
    h[j * m + j + 1] = h[(j + 1) * m + j] = beta[j - kept];
  }
  return symmetric_eigen(h, m);
}

}  // namespace detail

// Explicit instantiation for the common unweighted operator keeps its code
// out of every including translation unit.

template SpectrumResult slem_spectrum<WalkOperator>(const WalkOperator&,
                                                    const LanczosOptions&);
template SpectrumResult slem_spectrum_with_vector<WalkOperator>(const WalkOperator&,
                                                                const LanczosOptions&);

}  // namespace socmix::linalg
