// Tests for the public facade (qr3d.hpp): DistMatrix distribution round
// trips, the Solver / Factorization object API, the Algorithm::Auto
// aspect-ratio dispatch, the least-squares driver, and the QrOptions
// validation error paths.
#include <gtest/gtest.h>

#include <cmath>

#include "qr3d.hpp"

namespace la = qr3d::la;
namespace backend = qr3d::backend;
namespace sim = qr3d::sim;
using la::index_t;
using qr3d::Dist;
using qr3d::DistMatrix;

// ---------------------------------------------------------------------------
// DistMatrix
// ---------------------------------------------------------------------------

class DistRoundTrip : public ::testing::TestWithParam<Dist> {};

TEST_P(DistRoundTrip, FromGlobalGatherRecoversTheMatrix) {
  const Dist dist = GetParam();
  const index_t m = 23, n = 5;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 101);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    DistMatrix Ad = DistMatrix::from_global(c, A.view(), dist);
    EXPECT_EQ(Ad.rows(), m);
    EXPECT_EQ(Ad.cols(), n);
    // Every local row is the right global row.
    for (index_t li = 0; li < Ad.local_rows(); ++li)
      for (index_t j = 0; j < n; ++j)
        EXPECT_EQ(Ad.local()(li, j), A(Ad.global_row(li), j));
    la::Matrix full = Ad.gather(0);
    if (c.rank() == 0) {
      EXPECT_LT(la::diff_norm(full.view(), A.view()), 1e-15);
    } else {
      EXPECT_TRUE(full.empty());
    }
    // gather_all replicates everywhere.
    la::Matrix everywhere = Ad.gather_all();
    EXPECT_LT(la::diff_norm(everywhere.view(), A.view()), 1e-15);
  });
}

TEST_P(DistRoundTrip, ScatterFromRootMatchesFromGlobal) {
  const Dist dist = GetParam();
  const index_t m = 17, n = 3;
  const int P = 5;
  la::Matrix A = la::random_matrix(m, n, 102);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    // Only the root holds the global matrix; everyone else passes a dummy.
    DistMatrix Ad = DistMatrix::scatter(c, c.rank() == 0 ? A : la::Matrix(), m, n, dist);
    DistMatrix ref = DistMatrix::from_global(c, A.view(), dist);
    EXPECT_LT(la::diff_norm(Ad.local().view(), ref.local().view()), 1e-15);
  });
}

TEST_P(DistRoundTrip, RedistributeThereAndBack) {
  const Dist dist = GetParam();
  const Dist other = dist == Dist::CyclicRows ? Dist::BlockRows : Dist::CyclicRows;
  const index_t m = 19, n = 4;
  const int P = 3;
  la::Matrix A = la::random_matrix(m, n, 103);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    DistMatrix Ad = DistMatrix::from_global(c, A.view(), dist);
    DistMatrix moved = Ad.redistribute(other);
    EXPECT_EQ(moved.dist(), other);
    EXPECT_LT(la::diff_norm(moved.local().view(),
                            DistMatrix::from_global(c, A.view(), other).local().view()),
              1e-15);
    DistMatrix back = moved.redistribute(dist);
    EXPECT_LT(la::diff_norm(back.local().view(), Ad.local().view()), 1e-15);
  });
}

INSTANTIATE_TEST_SUITE_P(Layouts, DistRoundTrip,
                         ::testing::Values(Dist::CyclicRows, Dist::BlockRows));

TEST(DistMatrixValidation, WrapRejectsMismatchedLocalBlock) {
  sim::Machine machine(3);
  EXPECT_THROW(machine.run([](backend::Comm& c) {
    la::Matrix wrong(1, 2);  // 12 rows over 3 ranks is 4 rows each
    DistMatrix::wrap(c, std::move(wrong), 12, 2, Dist::CyclicRows);
  }),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Solver / Factorization
// ---------------------------------------------------------------------------

TEST(SolverFacade, FactorsReconstructAndQIsOrthogonal) {
  const index_t m = 36, n = 12;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 104);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    qr3d::Factorization f = qr3d::Solver().factor(DistMatrix::from_global(c, A.view()));
    la::Matrix V = f.v().gather();
    la::Matrix T = f.t().gather();
    la::Matrix R = f.r().gather();
    // Explicit Q: leading n columns of I - V T V^H.
    la::Matrix Q = f.explicit_q().gather();
    if (c.rank() == 0) {
      EXPECT_LT(la::qr_residual(A.view(), V.view(), T.view(), R.view()), 1e-12);
      EXPECT_LT(la::orthogonality_loss(V.view(), T.view()), 1e-12);
      EXPECT_TRUE(la::is_upper_triangular(R.view(), 1e-12));
      // Q R == A.
      la::Matrix QR = la::multiply<double>(la::Op::NoTrans, Q.view(), la::Op::NoTrans, R.view());
      EXPECT_LT(la::diff_norm(QR.view(), A.view()), 1e-11 * (1.0 + la::frobenius_norm(A.view())));
    }
  });
}

TEST(SolverFacade, BlockRowsInputIsRedistributedAndFactored) {
  const index_t m = 30, n = 10;
  const int P = 5;
  la::Matrix A = la::random_matrix(m, n, 105);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    qr3d::Factorization f =
        qr3d::factor(DistMatrix::from_global(c, A.view(), Dist::BlockRows));
    la::Matrix R = f.r().gather();
    if (c.rank() == 0) {
      la::QrFactors ref = la::qr_factor<double>(A.view());
      for (index_t i = 0; i < n; ++i)
        for (index_t j = i; j < n; ++j)
          EXPECT_NEAR(std::abs(R(i, j)), std::abs(ref.R(i, j)),
                      1e-9 * (1.0 + std::abs(ref.R(i, j))));
    }
  });
}

TEST(SolverFacade, ApplyQRoundTripIsIdentity) {
  const index_t m = 28, n = 7, k = 3;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 106);
  la::Matrix X = la::random_matrix(m, k, 107);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    qr3d::Factorization f = qr3d::Solver().factor(DistMatrix::from_global(c, A.view()));
    DistMatrix Xd = DistMatrix::from_global(c, X.view());
    DistMatrix Y = f.apply_q(Xd, la::Op::ConjTrans);
    DistMatrix Z = f.apply_q(Y, la::Op::NoTrans);
    EXPECT_LT(la::diff_norm(Z.local().view(), Xd.local().view()),
              1e-10 * (1.0 + la::frobenius_norm(Xd.local().view())));
  });
}

TEST(SolverFacade, RebuildKernelMatchesStoredTAndIsCached) {
  const index_t m = 40, n = 10;
  const int P = 5;
  la::Matrix A = la::random_matrix(m, n, 108);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    qr3d::Factorization f = qr3d::Solver().factor(DistMatrix::from_global(c, A.view()));
    const DistMatrix& T1 = f.rebuild_kernel();
    const DistMatrix& T2 = f.rebuild_kernel();  // cached: same object, no collective
    EXPECT_EQ(&T1, &T2);
    la::Matrix Tr = T1.gather();
    la::Matrix Ts = f.t().gather();
    if (c.rank() == 0) {
      EXPECT_LT(la::diff_norm(Tr.view(), Ts.view()),
                1e-10 * (1.0 + la::frobenius_norm(Ts.view())));
    }
  });
}

// ---------------------------------------------------------------------------
// Algorithm::Auto aspect-ratio dispatch (Section 1)
// ---------------------------------------------------------------------------

namespace {

/// Critical path of factoring A under the given algorithm choice.  The
/// simulator is deterministic, so identical algorithm choices give
/// bit-identical cost clocks.
sim::CostClock factor_costs(const la::Matrix& A, int P, qr3d::Algorithm alg) {
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    qr3d::factor(DistMatrix::from_global(c, A.view()),
                 qr3d::QrOptions().with_algorithm(alg));
  });
  return machine.critical_path();
}

}  // namespace

TEST(AutoDispatch, TallSkinnyTakesTheBaseCasePath) {
  // m/n = 16 >= P = 8: Auto must behave exactly like the forced base case.
  la::Matrix A = la::random_matrix(64, 4, 109);
  const auto a = factor_costs(A, 8, qr3d::Algorithm::Auto);
  const auto b = factor_costs(A, 8, qr3d::Algorithm::BaseCase);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.msgs, b.msgs);
}

TEST(AutoDispatch, SquareIshTakesTheRecursion) {
  // m/n = 2 < P = 6: Auto must run the full recursion, which schedules
  // different communication than the forced base case.
  la::Matrix A = la::random_matrix(24, 12, 110);
  const auto a = factor_costs(A, 6, qr3d::Algorithm::Auto);
  const auto rec = factor_costs(A, 6, qr3d::Algorithm::CaqrEg3d);
  const auto base = factor_costs(A, 6, qr3d::Algorithm::BaseCase);
  EXPECT_EQ(a.flops, rec.flops);
  EXPECT_EQ(a.words, rec.words);
  EXPECT_EQ(a.msgs, rec.msgs);
  // The discriminator: recursion and base case are genuinely different plans.
  EXPECT_NE(rec.msgs, base.msgs);
}

// ---------------------------------------------------------------------------
// Least squares
// ---------------------------------------------------------------------------

TEST(LeastSquares, MatchesSerialQrSolve) {
  const index_t m = 60, n = 12, k = 2;
  const int P = 6;
  la::Matrix A = la::random_matrix(m, n, 111);
  la::Matrix B = la::random_matrix(m, k, 112);

  // Serial reference: QR of A, x = R^{-1} (Q^H B)_top.
  la::Matrix Aref = la::copy<double>(A.view());
  la::QrFactors ref = la::qr_factor<double>(Aref.view());
  la::Matrix y = la::copy<double>(B.view());
  la::apply_q<double>(ref.V.view(), ref.T_.view(), la::Op::ConjTrans, y.view());
  la::Matrix x_ref = la::copy<double>(y.block(0, 0, n, k));
  la::trsm(la::Side::Left, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0, ref.R.view(),
           x_ref.view());

  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    la::Matrix x = qr3d::solve_least_squares(DistMatrix::from_global(c, A.view()),
                                             DistMatrix::from_global(c, B.view()));
    // Replicated on every rank, and equal to the serial solution.
    EXPECT_EQ(x.rows(), n);
    EXPECT_EQ(x.cols(), k);
    EXPECT_LT(la::diff_norm(x.view(), x_ref.view()),
              1e-9 * (1.0 + la::frobenius_norm(x_ref.view())));
  });

  // And the normal-equations residual optimality check: A^H (A x - B) ~ 0.
  la::Matrix x0;
  sim::Machine machine2(P);
  machine2.run([&](backend::Comm& c) {
    la::Matrix x = qr3d::solve_least_squares(DistMatrix::from_global(c, A.view()),
                                             DistMatrix::from_global(c, B.view()));
    if (c.rank() == 0) x0 = std::move(x);
  });
  la::Matrix r = la::copy<double>(B.view());
  la::gemm(-1.0, la::Op::NoTrans, la::ConstMatrixView(A.view()), la::Op::NoTrans,
           la::ConstMatrixView(x0.view()), 1.0, r.view());
  la::Matrix opt = la::multiply<double>(la::Op::ConjTrans, A.view(), la::Op::NoTrans, r.view());
  EXPECT_LT(la::frobenius_norm(opt.view()), 1e-9 * (1.0 + la::frobenius_norm(B.view())));
}

// ---------------------------------------------------------------------------
// QrOptions validation error paths
// ---------------------------------------------------------------------------

TEST(OptionsValidation, DeltaOutsideTheoremOneRangeThrows) {
  EXPECT_THROW(qr3d::QrOptions().with_delta(0.4), std::invalid_argument);
  EXPECT_THROW(qr3d::QrOptions().with_delta(0.7), std::invalid_argument);
  EXPECT_NO_THROW(qr3d::QrOptions().with_delta(0.5).with_delta(2.0 / 3.0));
}

TEST(OptionsValidation, EpsilonOutsideTheoremTwoRangeThrows) {
  EXPECT_THROW(qr3d::QrOptions().with_epsilon(-0.1), std::invalid_argument);
  EXPECT_THROW(qr3d::QrOptions().with_epsilon(1.5), std::invalid_argument);
  EXPECT_NO_THROW(qr3d::QrOptions().with_epsilon(0.0).with_epsilon(1.0));
}

TEST(OptionsValidation, FactorRejectsWideMatrices) {
  sim::Machine machine(2);
  EXPECT_THROW(machine.run([](backend::Comm& c) {
    qr3d::factor(DistMatrix::random(c, 4, 8, 1));
  }),
               std::invalid_argument);
}

TEST(OptionsValidation, SolveLeastSquaresRejectsMismatchedRhs) {
  sim::Machine machine(2);
  EXPECT_THROW(machine.run([](backend::Comm& c) {
    qr3d::Factorization f = qr3d::factor(DistMatrix::random(c, 16, 4, 4));
    f.solve_least_squares(DistMatrix::random(c, 8, 1, 5));  // wrong row count
  }),
               std::invalid_argument);
}
