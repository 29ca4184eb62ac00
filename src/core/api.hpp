// Low-level driver entry points under the public facade (qr3d.hpp's
// DistMatrix / Solver / Factorization); prefer the facade in new code.
// This header holds only what the facade and the plan resolver use:
//
//   * Algorithm / Accuracy — the dispatch and accuracy/speed contract
//                          enums the facade re-exports.
//   * resolve_algorithm  — the Section 1 aspect-ratio dispatch, called by
//                          serve::resolve_shape_plan (the single plan
//                          resolver behind Solver::factor and serving).
//   * apply_q_cyclic     — apply Q or Q^H to a row-cyclic block of vectors
//                          with Lemma 3's 1D multiplications.
//   * rebuild_kernel_cyclic — the Section 2.3 "T need not be stored" rebuild.
#pragma once

#include "core/caqr_eg_3d.hpp"
#include "la/blas.hpp"
#include "backend/comm.hpp"

namespace qr3d::core {

enum class Algorithm {
  Auto,      ///< aspect-ratio dispatch per Section 1
  CaqrEg3d,  ///< force the full recursion
  BaseCase,  ///< force the tall-skinny path (b = n)
};

/// The per-job accuracy/speed contract (docs/TUNING.md "Accuracy/speed
/// contract").  It steers the serving layer's algorithm dispatch for
/// tall-skinny least-squares jobs:
///
///   * Fast     — CholeskyQR2 with a float first pass (double refinement),
///                guarded at core::kFastMaxCondition;
///   * Balanced — CholeskyQR2 in double, guarded at
///                core::kBalancedMaxCondition;
///   * Accurate — always the Householder path (TSQR / 3D-CAQR-EG),
///                unconditionally backward stable.
///
/// Fast and Balanced are contracts about the *attempt*, not the result: a
/// guard trip or non-SPD Gram falls back to the Householder path in-session
/// (serve::JobStats::cholesky_fallbacks), so every mode returns a correct
/// factorization — the modes trade how much conditioning headroom is
/// required before the gemm-dominant fast path is tried.
enum class Accuracy {
  Fast,      ///< CholeskyQR2, float first pass; tightest condition guard
  Balanced,  ///< CholeskyQR2 in double with the standard guard (default)
  Accurate,  ///< Householder only: no conditioning assumptions
};

/// Resolve the Section 1 dispatch into concrete recursion parameters:
/// BaseCase (and Auto with m/n >= P) pins b = n so the conversion + 1D base
/// case runs immediately.  Called by serve::resolve_shape_plan.
CaqrEg3dOptions resolve_algorithm(la::index_t m, la::index_t n, int P, Algorithm alg,
                                  CaqrEg3dOptions params);

/// X := Q * X (op = NoTrans) or Q^H * X (op = ConjTrans), where Q is given by
/// the row-cyclic Householder factors (V_local, T_local) of an m x n matrix
/// and X is a row-cyclic m x k block.  V, T and X share one layout, so
/// Lemma 3's 1D multiplications move neither V nor T: three collectives of
/// n x k words.  Collective; returns this rank's rows of the result.
la::Matrix apply_q_cyclic(backend::Comm& comm, const la::Matrix& V_local, const la::Matrix& T_local,
                          la::index_t m, la::index_t n, const la::Matrix& X_local, la::index_t k,
                          la::Op op);

/// Section 2.3: in Householder representation "T need not be stored, since
/// T = (triu(V^H V) + diag(V^H V)/2)^{-1}".  Rebuild the kernel from a
/// row-cyclic basis: the Gram matrix comes from a 1D reduce, the small
/// triangular inversion runs on rank 0, and the result is broadcast and each
/// rank keeps its row-cyclic slice.  Enables the Section 8.4 variant that
/// never stores T.
la::Matrix rebuild_kernel_cyclic(backend::Comm& comm, const la::Matrix& V_local, la::index_t m,
                                 la::index_t n);

}  // namespace qr3d::core
