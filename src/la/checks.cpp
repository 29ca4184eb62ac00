#include "la/checks.hpp"

#include <cmath>

#include "la/blas.hpp"

namespace qr3d::la {

double frobenius_norm(ConstMatrixView a) {
  double s = 0.0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) s += a(i, j) * a(i, j);
  return std::sqrt(s);
}

double max_abs(ConstMatrixView a) {
  double s = 0.0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) s = std::max(s, std::abs(a(i, j)));
  return s;
}

double qr_residual(ConstMatrixView A, ConstMatrixView V, ConstMatrixView T, ConstMatrixView R) {
  const index_t m = A.rows();
  const index_t n = A.cols();
  QR3D_CHECK(V.rows() == m && V.cols() == n, "qr_residual: V shape");
  QR3D_CHECK(R.rows() == n && R.cols() == n, "qr_residual: R shape");
  Matrix QR(m, n);
  assign(QR.block(0, 0, n, n), R);
  apply_q<double>(V, T, Op::NoTrans, QR.view());
  add(-1.0, A, QR.view());
  const double na = frobenius_norm(A);
  return frobenius_norm(QR.view()) / (na == 0.0 ? 1.0 : na);
}

double orthogonality_loss(ConstMatrixView V, ConstMatrixView T) {
  const index_t m = V.rows();
  const index_t n = V.cols();
  Matrix Qn(m, n);
  for (index_t j = 0; j < n; ++j) Qn(j, j) = 1.0;
  apply_q<double>(V, T, Op::NoTrans, Qn.view());
  Matrix G = multiply<double>(Op::ConjTrans, ConstMatrixView(Qn.view()), Op::NoTrans,
                      ConstMatrixView(Qn.view()));
  for (index_t i = 0; i < n; ++i) G(i, i) -= 1.0;
  return frobenius_norm(G.view());
}

double diff_norm(ConstMatrixView a, ConstMatrixView b) {
  QR3D_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "diff_norm shape mismatch");
  double s = 0.0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) {
      const double d = a(i, j) - b(i, j);
      s += d * d;
    }
  return std::sqrt(s);
}

bool is_upper_triangular(ConstMatrixView a, double tol) {
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = j + 1; i < a.rows(); ++i)
      if (std::abs(a(i, j)) > tol) return false;
  return true;
}

bool is_unit_lower_trapezoidal(ConstMatrixView v, double tol) {
  for (index_t j = 0; j < v.cols(); ++j) {
    if (j < v.rows() && std::abs(v(j, j) - 1.0) > tol) return false;
    for (index_t i = 0; i < j && i < v.rows(); ++i)
      if (std::abs(v(i, j)) > tol) return false;
  }
  return true;
}

}  // namespace qr3d::la
