// Cross-cutting property tests: agreement between all five QR algorithms,
// determinism of the simulator, cost-clock consistency laws, distribution
// invariance, the Section 2.3 kernel-rebuild identity, and input validation.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "accuracy.hpp"
#include "qr3d.hpp"

namespace core = qr3d::core;
namespace la = qr3d::la;
namespace mm = qr3d::mm;
namespace backend = qr3d::backend;
namespace sim = qr3d::sim;
using la::index_t;

namespace {

// Distribution helpers: the one DistMatrix implementation, nothing hand-rolled.
la::Matrix cyclic_local(backend::Comm& c, const la::Matrix& A) {
  return qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::CyclicRows);
}

la::Matrix block_local(backend::Comm& c, const la::Matrix& A) {
  return qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
}

la::Matrix gather(backend::Comm& c, const la::Matrix& local, index_t rows, index_t cols) {
  return qr3d::DistMatrix::gather_local(c, local.view(), rows, cols);
}

/// 3D-CAQR-EG of the global A under the Section 1 dispatch at the default
/// parameters — what an untuned Solver::factor runs.
core::CyclicQr qr_cyclic(backend::Comm& c, const la::Matrix& A) {
  const index_t m = A.rows(), n = A.cols();
  return core::caqr_eg_3d(
      c, la::ConstMatrixView(cyclic_local(c, A).view()), m, n,
      core::resolve_algorithm(m, n, c.size(), core::Algorithm::Auto, core::CaqrEg3dOptions{}));
}

/// |R| from every algorithm on the same matrix (QR unique up to row signs).
std::vector<la::Matrix> all_algorithm_abs_r(const la::Matrix& A, int P) {
  const index_t m = A.rows();
  const index_t n = A.cols();
  std::vector<la::Matrix> rs;

  auto push_abs = [&](la::Matrix R) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i) R(i, j) = std::abs(R(i, j));
    rs.push_back(std::move(R));
  };

  // 1D family (block rows).
  for (int which = 0; which < 3; ++which) {
    sim::Machine machine(P);
    la::Matrix R;
    machine.run([&](backend::Comm& c) {
      la::Matrix Al = block_local(c, A);
      core::DistributedQr r;
      if (which == 0) r = core::tsqr(c, la::ConstMatrixView(Al.view()));
      if (which == 1) r = core::caqr_eg_1d(c, la::ConstMatrixView(Al.view()));
      if (which == 2) r = core::house_1d(c, la::ConstMatrixView(Al.view()));
      if (c.rank() == 0) R = std::move(r.R);
    });
    push_abs(std::move(R));
  }

  // 3D-CAQR-EG (row cyclic).
  {
    sim::Machine machine(P);
    la::Matrix R;
    machine.run([&](backend::Comm& c) {
      core::CaqrEg3dOptions opts;
      opts.b = std::max<index_t>(1, n / 2);
      core::CyclicQr f = core::caqr_eg_3d(
          c, la::ConstMatrixView(cyclic_local(c, A).view()), m, n, opts);
      la::Matrix Rg = gather(c, f.R, n, n);
      if (c.rank() == 0) R = std::move(Rg);
    });
    push_abs(std::move(R));
  }

  // 2D-HOUSE (block cyclic); R sits in the factored local storage.
  {
    core::ProcGrid2 grid = core::ProcGrid2::choose(m, n, P);
    core::BlockCyclic bc{m, n, 2, grid};
    core::House2dOptions opts;
    opts.b = 2;
    opts.grid_r = grid.r;
    opts.grid_c = grid.c;
    sim::Machine machine(P);
    std::vector<la::Matrix> locals(P);
    machine.run([&](backend::Comm& c) {
      la::Matrix Al(bc.local_rows(bc.g.row_of(c.rank())), bc.local_cols(bc.g.col_of(c.rank())));
      for (index_t li = 0; li < Al.rows(); ++li)
        for (index_t lj = 0; lj < Al.cols(); ++lj)
          Al(li, lj) = A(bc.grow(bc.g.row_of(c.rank()), li), bc.gcol(bc.g.col_of(c.rank()), lj));
      core::Grid2dQr out = core::house_2d(c, la::ConstMatrixView(Al.view()), m, n, opts);
      locals[c.rank()] = std::move(out.local);
    });
    la::Matrix R(n, n);
    for (int w = 0; w < P; ++w) {
      const int pr = bc.g.row_of(w), pc = bc.g.col_of(w);
      for (index_t li = 0; li < locals[w].rows(); ++li)
        for (index_t lj = 0; lj < locals[w].cols(); ++lj) {
          const index_t i = bc.grow(pr, li), j = bc.gcol(pc, lj);
          if (i < n && i <= j) R(i, j) = locals[w](li, lj);
        }
    }
    push_abs(std::move(R));
  }
  return rs;
}

}  // namespace

class CrossAlgorithm : public ::testing::TestWithParam<int> {};

TEST_P(CrossAlgorithm, AllFiveAlgorithmsAgreeOnAbsR) {
  const int seed = GetParam();
  const index_t m = 64, n = 16;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, static_cast<std::uint64_t>(seed));
  auto rs = all_algorithm_abs_r(A, P);
  ASSERT_EQ(rs.size(), 5u);
  const double scale = 1.0 + la::frobenius_norm(rs[0].view());
  for (std::size_t k = 1; k < rs.size(); ++k) {
    EXPECT_LT(la::diff_norm(rs[k].view(), rs[0].view()), 1e-9 * scale)
        << "algorithm " << k << " disagrees (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossAlgorithm, ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(Determinism, IdenticalRunsProduceIdenticalCostsAndFactors) {
  const index_t m = 48, n = 12;
  const int P = 6;
  la::Matrix A = la::random_matrix(m, n, 31);

  auto run_once = [&](la::Matrix& R_out) {
    sim::Machine machine(P);
    machine.run([&](backend::Comm& c) {
      core::CyclicQr f = qr_cyclic(c, A);
      la::Matrix Rg = gather(c, f.R, n, n);
      if (c.rank() == 0) R_out = std::move(Rg);
    });
    return machine.critical_path();
  };
  la::Matrix R1, R2;
  const auto cp1 = run_once(R1);
  const auto cp2 = run_once(R2);
  // The simulator is deterministic: costs and results match bit-for-bit
  // regardless of thread scheduling.
  EXPECT_EQ(cp1.flops, cp2.flops);
  EXPECT_EQ(cp1.words, cp2.words);
  EXPECT_EQ(cp1.msgs, cp2.msgs);
  EXPECT_EQ(cp1.time, cp2.time);
  EXPECT_EQ(R1, R2);
}

TEST(CostClock, TimeRespectsPerMetricBoundsAcrossAlgorithms) {
  // For any run: max(gamma*F, beta*W, alpha*S) <= time <= gamma*F + beta*W
  // + alpha*S, where F, W, S are the per-metric critical paths (each side
  // holds because `time` follows one real path while F/W/S may follow
  // different ones).
  const index_t n = 16;
  const int P = 8;
  sim::CostParams params{2.0, 0.25, 1e-3, "test"};

  for (int which = 0; which < 2; ++which) {
    // The 1D algorithm needs m/n >= P; the 3D one runs square-ish.
    const index_t m = which == 0 ? 64 : static_cast<index_t>(P) * 2 * n;
    la::Matrix A = la::random_matrix(m, n, 17);
    sim::Machine machine(P, params);
    machine.run([&](backend::Comm& c) {
      if (which == 0) {
        qr_cyclic(c, A);
      } else {
        la::Matrix Al = block_local(c, A);
        core::caqr_eg_1d(c, la::ConstMatrixView(Al.view()));
      }
    });
    const auto cp = machine.critical_path();
    const double hi = params.gamma * cp.flops + params.beta * cp.words + params.alpha * cp.msgs;
    const double lo =
        std::max({params.gamma * cp.flops, params.beta * cp.words, params.alpha * cp.msgs});
    EXPECT_LE(cp.time, hi * (1.0 + 1e-12));
    EXPECT_GE(cp.time, lo * (1.0 - 1e-12));
  }
}

TEST(DistributionInvariance, TsqrRMatchesAcrossBlockSplits) {
  // Different block-row splits schedule different trees; R may only differ
  // by row signs, and each result must still reconstruct A.
  const index_t m = 60, n = 10;
  la::Matrix A = la::random_matrix(m, n, 23);
  la::Matrix Rref;
  for (int P : {2, 3, 5, 6}) {
    sim::Machine machine(P);
    la::Matrix R;
    machine.run([&](backend::Comm& c) {
      la::Matrix Al = block_local(c, A);
      core::DistributedQr r = core::tsqr(c, la::ConstMatrixView(Al.view()));
      if (c.rank() == 0) R = std::move(r.R);
    });
    if (Rref.empty()) {
      Rref = std::move(R);
      continue;
    }
    for (index_t i = 0; i < n; ++i)
      for (index_t j = i; j < n; ++j)
        EXPECT_NEAR(std::abs(R(i, j)), std::abs(Rref(i, j)), 1e-10 * (1.0 + std::abs(Rref(i, j))))
            << "P-dependent R at (" << i << "," << j << ")";
  }
}

TEST(KernelRebuild, Section23IdentityHoldsForDistributedV) {
  // T = (strict_upper(V^H V) + diag(V^H V)/2)^{-1} rebuilt from the cyclic
  // basis equals the kernel the factorization produced, both for the 3D
  // recursion's T (40 x 10, P = 5) and for the tall-skinny base case's
  // (96 x 8, P = 4).
  struct Shape {
    index_t m, n;
    int P;
  };
  for (const Shape sh : {Shape{40, 10, 5}, Shape{96, 8, 4}}) {
    SCOPED_TRACE(std::to_string(sh.m) + "x" + std::to_string(sh.n));
    const index_t m = sh.m, n = sh.n;
    la::Matrix A = la::random_matrix(m, n, 41);
    sim::Machine machine(sh.P);
    machine.run([&](backend::Comm& c) {
      core::CyclicQr f = qr_cyclic(c, A);
      la::Matrix T_rebuilt = core::rebuild_kernel_cyclic(c, f.V, m, n);
      la::Matrix T1 = gather(c, f.T, n, n);
      la::Matrix T2 = gather(c, T_rebuilt, n, n);
      if (c.rank() == 0) {
        EXPECT_LT(la::diff_norm(T1.view(), T2.view()),
                  1e-10 * (1.0 + la::frobenius_norm(T1.view())));
      }
    });
  }
}

TEST(GradedMatrices, AllAlgorithmsStayStableAcrossConditioning) {
  const index_t m = 48, n = 8;
  const int P = 4;
  for (double cond : {1e4, 1e8, 1e12}) {
    la::Matrix A = qr3d::tests::make_matrix_with_condition(m, n, cond, 61);
    // 3D path.
    sim::Machine machine(P);
    machine.run([&](backend::Comm& c) {
      core::CyclicQr f = qr_cyclic(c, A);
      la::Matrix V = gather(c, f.V, m, n);
      la::Matrix T = gather(c, f.T, n, n);
      la::Matrix R = gather(c, f.R, n, n);
      if (c.rank() == 0) {
        EXPECT_LT(qr3d::tests::residual_error(A.view(), V.view(), T.view(), R.view()), 1e-10)
            << "cond=" << cond;
        EXPECT_LT(qr3d::tests::orthogonality_error(V.view(), T.view()), 1e-10)
            << "cond=" << cond;
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Input validation: every public entry rejects malformed input with
// std::invalid_argument (and the machine aborts cleanly, no hangs).
// ---------------------------------------------------------------------------

TEST(Validation, TsqrRejectsTooFewLocalRows) {
  sim::Machine machine(3);
  EXPECT_THROW(machine.run([](backend::Comm& c) {
    la::Matrix Al = la::random_matrix(2, 4, 1);
    core::tsqr(c, la::ConstMatrixView(Al.view()));
  }),
               std::invalid_argument);
}

TEST(Validation, CaqrEg3dRejectsWideMatrices) {
  sim::Machine machine(2);
  EXPECT_THROW(machine.run([](backend::Comm& c) {
    la::Matrix Al(2, 8);
    core::caqr_eg_3d(c, la::ConstMatrixView(Al.view()), 4, 8, {});
  }),
               std::invalid_argument);
}

TEST(Validation, CaqrEg3dRejectsWrongLocalRowCount) {
  sim::Machine machine(4);
  EXPECT_THROW(machine.run([](backend::Comm& c) {
    la::Matrix Al(1, 2);  // every rank claims 1 row of a 16-row matrix
    core::caqr_eg_3d(c, la::ConstMatrixView(Al.view()), 16, 2, {});
  }),
               std::invalid_argument);
}

TEST(Validation, House2dRejectsMismatchedLocalBlock) {
  sim::Machine machine(4);
  EXPECT_THROW(machine.run([](backend::Comm& c) {
    core::House2dOptions opts;
    opts.grid_r = 2;
    opts.grid_c = 2;
    la::Matrix Al(1, 1);
    core::house_2d(c, la::ConstMatrixView(Al.view()), 16, 8, opts);
  }),
               std::invalid_argument);
}

TEST(Validation, ApplyQRejectsWrongXShape) {
  sim::Machine machine(2);
  la::Matrix A(8, 4);
  for (la::index_t i = 0; i < A.rows(); ++i) A(i, 0) = 1.0;
  EXPECT_THROW(machine.run([&](backend::Comm& c) {
    core::CyclicQr f = qr_cyclic(c, A);
    la::Matrix X(1, 1);  // wrong shape
    core::apply_q_cyclic(c, f.V, f.T, 8, 4, X, 3, la::Op::NoTrans);
  }),
               std::invalid_argument);
}

TEST(Validation, Mm3dRejectsMismatchedLayouts) {
  sim::Machine machine(2);
  EXPECT_THROW(machine.run([](backend::Comm& c) {
    mm::CyclicRows wrong(5, 5, 2, 0);
    std::vector<double> buf(static_cast<std::size_t>(wrong.local_count(c.rank())), 0.0);
    mm::mm_3d(c, 4, 4, 4, wrong, buf, wrong, buf, wrong);
  }),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Section 8.4 extension: right-looking iterative top level.
// ---------------------------------------------------------------------------

TEST(IterativeTopLevel, ReconstructsAndAgreesWithRecursive) {
  const index_t m = 48, n = 16;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 71);

  sim::Machine machine(P);
  la::Matrix V, R, R_rec;
  std::vector<la::Matrix> Ts;
  std::vector<index_t> starts;
  machine.run([&](backend::Comm& c) {
    core::IterativeOptions opts;
    opts.panel = 6;  // three panels: 6 + 6 + 4
    opts.inner.b = 3;
    core::IterativeQr f = core::caqr_eg_3d_iterative(
        c, la::ConstMatrixView(cyclic_local(c, A).view()), m, n, opts);
    la::Matrix Vg = gather(c, f.V, m, n);
    la::Matrix Rg = gather(c, f.R, n, n);
    std::vector<la::Matrix> Tg;
    for (std::size_t k = 0; k < f.T_blocks.size(); ++k) {
      const index_t bk = f.panel_width(k, n);
      Tg.push_back(gather(c, f.T_blocks[k], bk, bk));
    }
    // Recursive reference on the same data.
    core::CaqrEg3dOptions ropts;
    ropts.b = 6;
    core::CyclicQr rec = core::caqr_eg_3d(
        c, la::ConstMatrixView(cyclic_local(c, A).view()), m, n, ropts);
    la::Matrix Rr = gather(c, rec.R, n, n);
    if (c.rank() == 0) {
      V = std::move(Vg);
      R = std::move(Rg);
      Ts = std::move(Tg);
      starts = f.panel_starts;
      R_rec = std::move(Rr);
    }
  });

  ASSERT_EQ(starts.size(), 3u);
  EXPECT_TRUE(la::is_unit_lower_trapezoidal(V.view(), 1e-12));
  EXPECT_TRUE(la::is_upper_triangular(R.view(), 1e-12));

  // Q = Q_0 Q_1 Q_2 applied to [R; 0] must reproduce A.
  la::Matrix C(m, n);
  la::assign<double>(C.block(0, 0, n, n), la::ConstMatrixView(R.view()));
  for (int k = static_cast<int>(starts.size()) - 1; k >= 0; --k) {
    const index_t j0 = starts[static_cast<std::size_t>(k)];
    const index_t bk =
        (static_cast<std::size_t>(k) + 1 < starts.size() ? starts[static_cast<std::size_t>(k) + 1]
                                                         : n) -
        j0;
    la::Matrix Vk = la::copy<double>(V.block(j0, j0, m - j0, bk));
    la::MatrixView Csub = C.block(j0, 0, m - j0, n);
    la::apply_q<double>(Vk.view(), Ts[static_cast<std::size_t>(k)].view(), la::Op::NoTrans, Csub);
  }
  EXPECT_LT(la::diff_norm(C.view(), A.view()), 1e-11 * (1.0 + la::frobenius_norm(A.view())));

  // Same |R| as the recursive algorithm.
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i; j < n; ++j)
      EXPECT_NEAR(std::abs(R(i, j)), std::abs(R_rec(i, j)), 1e-9 * (1.0 + std::abs(R_rec(i, j))));
}

TEST(IterativeTopLevel, KernelStorageIsBlockDiagonal) {
  // The point of the variant: sum of panel kernel sizes << full n^2 kernel.
  const index_t m = 64, n = 32;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 72);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    core::IterativeOptions opts;
    opts.panel = 8;
    core::IterativeQr f = core::caqr_eg_3d_iterative(
        c, la::ConstMatrixView(cyclic_local(c, A).view()), m, n, opts);
    index_t kernel_words = 0;
    for (std::size_t k = 0; k < f.T_blocks.size(); ++k) {
      const index_t bk = f.panel_width(k, n);
      kernel_words += bk * bk;
    }
    EXPECT_EQ(kernel_words, 4 * 8 * 8);  // 4 panels of 8 vs n^2 = 1024
    EXPECT_LT(kernel_words, n * n);
  });
}
