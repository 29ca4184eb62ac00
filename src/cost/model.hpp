// Closed-form asymptotic cost model: the formulas of Lemmas 5-7, Theorems
// 1-2 and Tables 1-3, with all constants set to 1.
//
// The benches compare these predictions against the simulator's measured
// critical-path counts; EXPERIMENTS.md records the ratios.  Because the
// bounds are asymptotic, agreement means "bounded ratio across sweeps and
// matching growth shape", not pointwise equality.
#pragma once

#include "sim/clock.hpp"

namespace qr3d::cost {

/// Asymptotic (#operations, #words, #messages) triple.
struct Costs {
  double flops = 0.0;
  double words = 0.0;
  double msgs = 0.0;

  /// Predicted runtime under an alpha-beta-gamma machine.
  double time(const sim::CostParams& p) const {
    return p.gamma * flops + p.beta * words + p.alpha * msgs;
  }
};

/// ceil(log2 P), >= 1 (as a double for formula use).
double lg(int P);

// --- Table 1: collectives on blocks of B words over P ranks. ---------------
Costs scatter(double B, int P);
Costs gather(double B, int P);
Costs broadcast(double B, int P);
Costs reduce(double B, int P);
Costs all_gather(double B, int P);
Costs all_reduce(double B, int P);
Costs reduce_scatter(double B, int P);
Costs all_to_all(double B, double Bstar, int P);

// --- Matrix multiplication (Lemmas 2-4). ------------------------------------
Costs mm_1d(double I, double J, double K, int P);
Costs mm_3d(double I, double J, double K, int P);

// --- QR algorithms. ----------------------------------------------------------
/// Lemma 5 (TSQR).
Costs tsqr(double m, double n, int P);

/// CholeskyQR2 (two Gram/Cholesky/solve passes; arXiv 1710.08471): per pass
/// one n x n local gram gemm (2mn^2/P), one all-reduce of the packed upper
/// triangle (n(n+1)/2 words), the replicated Cholesky (n^3/3) and the local
/// triangular solve (mn^2/P); plus the final replicated R2*R1 trmm (n^3).
/// Gemm-dominant: no Householder panel factor anywhere.  Constants are kept
/// (not dropped to asymptotics) so the predicted-time comparison against
/// tsqr() — the serving dispatch and the bench_table3_tallskinny smoke gate
/// — is meaningful at benchmark sizes.
Costs cholesky_qr2(double m, double n, int P);

/// Eq. (11): 1D-CAQR-EG with explicit threshold b.
Costs caqr_eg_1d_b(double m, double n, int P, double b);
/// Theorem 2 parameterization: b = n/(log P)^epsilon.
Costs caqr_eg_1d(double m, double n, int P, double epsilon);

/// Eq. (13): 3D-CAQR-EG with explicit thresholds b, b*.
Costs caqr_eg_3d_b(double m, double n, int P, double b, double bstar);
/// Theorem 1 parameterization: b = n/(nP/m)^delta, b* = b/(log P)^epsilon.
Costs caqr_eg_3d(double m, double n, int P, double delta, double epsilon);

// --- Table 2 (square-ish, m/n = O(P)) and Table 3 (tall-skinny) rows. -------
Costs table2_house_2d(double m, double n, int P);
Costs table2_caqr(double m, double n, int P);
Costs table2_caqr_eg_3d(double m, double n, int P, double delta);
Costs table3_house_1d(double m, double n, int P);
Costs table3_tsqr(double m, double n, int P);
Costs table3_caqr_eg_1d(double m, double n, int P, double epsilon);

// --- Lower bounds (Section 8.3). --------------------------------------------
/// Tall-skinny: Omega(n^2) words, Omega(log P) messages.
Costs lower_bound_tall_skinny(double m, double n, int P);
/// Square-ish: Omega(n^2/(nP/m)^(2/3)) words, Omega((nP/m)^(1/2)) messages.
Costs lower_bound_squareish(double m, double n, int P);

}  // namespace qr3d::cost
