// Symmetric tridiagonal eigensolver (implicit QL with Wilkinson shifts),
// the inner solver of the Lanczos procedure, plus a small dense symmetric
// eigensolver built on it for the projected matrix after a thick restart.
//
// Classic EISPACK tql2/imtql2 algorithm: O(m^2) per eigenvalue without
// vectors, O(m^3) with, where m is the (small) Lanczos subspace dimension.
#pragma once

#include <span>
#include <vector>

namespace socmix::linalg {

/// Eigen-decomposition of a symmetric tridiagonal matrix.
struct TridiagEigen {
  /// Eigenvalues in ascending order.
  std::vector<double> values;
  /// Row-major m x m eigenvector matrix; vectors[k*m + i] is component i of
  /// the eigenvector for values[k]. Empty when vectors were not requested.
  std::vector<double> vectors;
};

/// Computes all eigenvalues (and optionally eigenvectors) of the symmetric
/// tridiagonal matrix with diagonal `diag` (size m) and off-diagonal
/// `offdiag` (size m-1; offdiag[i] couples i and i+1).
/// Throws std::runtime_error if the QL iteration fails to converge
/// (pathological input; cannot happen for Lanczos output in practice).
[[nodiscard]] TridiagEigen tridiag_eigen(std::span<const double> diag,
                                         std::span<const double> offdiag,
                                         bool want_vectors);

/// All eigenpairs of the dense symmetric m x m matrix `a` (row-major):
/// Householder reduction to tridiagonal form, tridiag_eigen, then the
/// reflectors applied back to the eigenvectors. Same layout as
/// tridiag_eigen with vectors. O(m^3), for m up to a few hundred.
[[nodiscard]] TridiagEigen symmetric_eigen(std::span<const double> a, std::size_t m);

}  // namespace socmix::linalg
