// Numerical quality metrics used across tests, examples and EXPERIMENTS.md:
// Frobenius norms, QR backward error, and orthogonality loss.
#pragma once

#include "la/householder.hpp"
#include "la/matrix.hpp"

namespace qr3d::la {

double frobenius_norm(ConstMatrixView a);
double max_abs(ConstMatrixView a);

/// Relative backward error ||A - Q*[R;0]||_F / ||A||_F for a Householder
/// representation (V, T, R).
double qr_residual(ConstMatrixView A, ConstMatrixView V, ConstMatrixView T, ConstMatrixView R);

/// Orthogonality loss ||Qn^H Qn - I||_F of the leading n columns of
/// Q = I - V T V^H.
double orthogonality_loss(ConstMatrixView V, ConstMatrixView T);

/// ||A - B||_F.
double diff_norm(ConstMatrixView a, ConstMatrixView b);

/// True if A is upper triangular/trapezoidal up to `tol` in absolute value.
bool is_upper_triangular(ConstMatrixView a, double tol);

/// True if V is unit lower trapezoidal up to `tol` (ones on the diagonal,
/// zeros strictly above).
bool is_unit_lower_trapezoidal(ConstMatrixView v, double tol);

}  // namespace qr3d::la
