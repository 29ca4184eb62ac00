// Tall-Skinny QR (Section 5 / Appendix C) — the [BDG+15] variant with
// Householder reconstruction.
//
// Input: each rank owns m_p >= n rows of the m x n matrix A (m/n >= P);
// rank 0 (the root) owns A's leading n rows as its first n local rows.
// Output: the Householder representation (V, T) with V distributed like A,
// plus the R-factor; T and R live on the root only.
//
// Structure (communication pattern = binomial-tree reduce then broadcast,
// with local QR / Q-application instead of elementwise arithmetic):
//   1. upsweep   — local QR (geqrt), then a binomial reduction combining
//                  pairs of packed n x n R-factors by QR of their 2n x n
//                  stack;
//   2. downsweep — apply the stored tree Q-factors to identity columns,
//                  recovering W = explicit leading n columns of the tree Q;
//   3. reconstruction — on the root, the sign-shifted LU X + S = L U of W's
//                  top block yields V = [L; W_2 U^{-1}], T = U S^H L^{-H},
//                  R := -S^H R ([BDG+15] Lemma 6.2); U is broadcast down a
//                  binomial tree so every rank finishes its rows of V
//                  locally.
#pragma once

#include "core/qr_result.hpp"
#include "la/matrix.hpp"
#include "backend/comm.hpp"

namespace qr3d::core {

/// Collective over `comm`; see file comment for the data-distribution
/// contract.  Root is rank 0.
DistributedQr tsqr(backend::Comm& comm, la::ConstMatrixView A_local);

}  // namespace qr3d::core
