// Cross-backend conformance: the simulator is the oracle for the real
// threaded backend.
//
// Every algorithm in the repository — the eight collectives, TSQR, 1D-HOUSE,
// 1D-CAQR-EG, 3D-CAQR-EG (recursive and iterative), the 2D baselines, and
// the Solver facade — runs the same seeded input once on sim::Machine and
// once on backend::ThreadMachine, and the results must be *bitwise*
// identical.  This is strict on purpose: both backends execute the same
// deterministic SPMD code, message matching is FIFO per (source, tag), and
// no reduction order depends on thread scheduling, so any difference at all
// is a backend bug, not floating-point noise.
//
// The pattern generalizes: a future backend (real MPI) only has to implement
// backend::CommImpl/Machine and add itself to conformant() below to inherit
// this entire suite as its correctness proof.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "qr3d.hpp"

namespace backend = qr3d::backend;
namespace coll = qr3d::coll;
namespace core = qr3d::core;
namespace la = qr3d::la;
namespace sim = qr3d::sim;

using la::index_t;

namespace {

// --- Serialization helpers: every rank flattens its results to doubles. ----

void put(std::vector<double>& out, double x) { out.push_back(x); }

void put(std::vector<double>& out, const std::vector<double>& v) {
  out.push_back(static_cast<double>(v.size()));
  out.insert(out.end(), v.begin(), v.end());
}

void put(std::vector<double>& out, const la::Matrix& M) {
  out.push_back(static_cast<double>(M.rows()));
  out.push_back(static_cast<double>(M.cols()));
  for (index_t j = 0; j < M.cols(); ++j)
    for (index_t i = 0; i < M.rows(); ++i) out.push_back(M(i, j));
}

void put(std::vector<double>& out, const std::vector<std::vector<double>>& blocks) {
  out.push_back(static_cast<double>(blocks.size()));
  for (const auto& b : blocks) put(out, b);
}

/// A conformance body: runs on one rank, returns that rank's serialized
/// results.  Must be deterministic given (rank, size).
using Body = std::function<std::vector<double>(backend::Comm&)>;

constexpr int kCollectTag = 424242;

/// Run `body` on `machine` and concatenate all ranks' serialized results in
/// rank order (collected at rank 0 over the world communicator).
std::vector<double> run_collect(backend::Machine& machine, const Body& body) {
  std::vector<double> all;
  machine.run([&](backend::Comm& c) {
    std::vector<double> mine = body(c);
    if (c.rank() == 0) {
      all.push_back(static_cast<double>(mine.size()));
      all.insert(all.end(), mine.begin(), mine.end());
      for (int src = 1; src < c.size(); ++src) {
        std::vector<double> theirs = c.recv(src, kCollectTag);
        all.push_back(static_cast<double>(theirs.size()));
        all.insert(all.end(), theirs.begin(), theirs.end());
      }
    } else {
      c.send(0, std::move(mine), kCollectTag);
    }
  });
  return all;
}

/// The oracle assertion: identical serialized results on both backends.
void expect_conformant(int P, const Body& body) {
  sim::Machine oracle(P);
  backend::ThreadMachine real(P);
  const std::vector<double> expected = run_collect(oracle, body);
  const std::vector<double> actual = run_collect(real, body);
  ASSERT_EQ(expected.size(), actual.size()) << "backends produced different result shapes";
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(expected[i], actual[i]) << "first divergence at flat index " << i;
}

/// Deterministic per-rank payload for the collectives.
std::vector<double> pattern(int rank, std::size_t n, int salt) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 0.25 * static_cast<double>(rank + 1) + 1.75 * static_cast<double>(i) +
           0.125 * static_cast<double>(salt);
  return v;
}

}  // namespace

// --- The eight collectives, all algorithm variants. -------------------------

TEST(BackendConformance, ScatterGatherBroadcast) {
  for (int P : {4, 7}) {
    expect_conformant(P, [P](backend::Comm& c) {
      std::vector<double> out;
      const std::vector<std::size_t> counts(static_cast<std::size_t>(P), 9);
      for (coll::Alg alg : {coll::Alg::Binomial, coll::Alg::Auto}) {
        std::vector<std::vector<double>> blocks;
        for (int q = 0; q < P; ++q) blocks.push_back(pattern(q, 9, 1));
        put(out, coll::scatter(c, 0, blocks, counts, alg));

        put(out, coll::gather(c, P - 1, pattern(c.rank(), 9, 2), counts, alg));
      }
      for (coll::Alg alg : {coll::Alg::Binomial, coll::Alg::BidirExchange, coll::Alg::Auto}) {
        std::vector<double> data = c.rank() == 1 % P ? pattern(c.rank(), 33, 3)
                                                     : std::vector<double>(33, 0.0);
        coll::broadcast(c, 1 % P, data, alg);
        put(out, data);
      }
      return out;
    });
  }
}

TEST(BackendConformance, ReduceAllReduce) {
  for (int P : {4, 6}) {
    expect_conformant(P, [P](backend::Comm& c) {
      std::vector<double> out;
      for (coll::Alg alg : {coll::Alg::Binomial, coll::Alg::BidirExchange, coll::Alg::Auto}) {
        std::vector<double> data = pattern(c.rank(), 21, 4);
        coll::reduce(c, P - 1, data, alg);
        if (c.rank() == P - 1) put(out, data);  // non-root data is scratch

        std::vector<double> data2 = pattern(c.rank(), 17, 5);
        coll::all_reduce(c, data2, alg);
        put(out, data2);
      }
      return out;
    });
  }
}

TEST(BackendConformance, AllGatherReduceScatterAllToAll) {
  for (int P : {4, 5}) {
    expect_conformant(P, [P](backend::Comm& c) {
      std::vector<double> out;
      const std::vector<std::size_t> counts(static_cast<std::size_t>(P), 7);
      for (coll::Alg alg : {coll::Alg::BidirExchange, coll::Alg::Auto}) {
        put(out, coll::all_gather(c, pattern(c.rank(), 7, 6), counts, alg));

        std::vector<std::vector<double>> contributions;
        for (int q = 0; q < P; ++q) contributions.push_back(pattern(c.rank() + q, 5, 7));
        put(out, coll::reduce_scatter(c, std::move(contributions), alg));
      }
      for (coll::Alg alg : {coll::Alg::Index, coll::Alg::TwoPhase, coll::Alg::Auto}) {
        std::vector<std::vector<double>> outgoing;
        for (int q = 0; q < P; ++q)
          outgoing.push_back(pattern(c.rank(), static_cast<std::size_t>(1 + (c.rank() + q) % 4),
                                     8 + q));
        put(out, coll::all_to_all(c, std::move(outgoing), alg));
      }
      return out;
    });
  }
}

// --- The QR algorithms. ------------------------------------------------------

TEST(BackendConformance, Tsqr) {
  const index_t m = 64, n = 8;
  const int P = 8;
  la::Matrix A = la::random_matrix(m, n, 901);
  expect_conformant(P, [&](backend::Comm& c) {
    la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
    core::DistributedQr f = core::tsqr(c, la::ConstMatrixView(Al.view()));
    std::vector<double> out;
    put(out, f.V);
    put(out, f.T);
    put(out, f.R);
    return out;
  });
}

TEST(BackendConformance, CholeskyQr2) {
  const index_t m = 64, n = 8;
  const int P = 8;
  // Well-conditioned input, both precisions of the first pass: explicit Q
  // and the replicated R must be bitwise identical across backends (the
  // packed-upper all-reduce fixes the summation order, everything else is
  // rank-local).
  la::Matrix A = la::graded_matrix(m, n, 1e2, 912);
  expect_conformant(P, [&](backend::Comm& c) {
    std::vector<double> out;
    for (bool in_float : {false, true}) {
      la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
      core::CholeskyQr2Options opts;
      opts.factor_in_float = in_float;
      opts.max_condition = in_float ? core::kFastMaxCondition : core::kBalancedMaxCondition;
      core::ExplicitQr f = core::cholesky_qr2(c, la::ConstMatrixView(Al.view()), opts);
      put(out, f.Q);
      put(out, f.R);
    }
    return out;
  });
}

TEST(BackendConformance, CholeskyQr2UnstableIsDeterministicOnBothBackends) {
  // The failure contract is part of conformance: an ill-conditioned input
  // must make EVERY rank throw CholeskyQrUnstable (the guard acts on the
  // replicated Gram), identically on the simulator and on real threads —
  // that all-or-nothing symmetry is what makes the serving layer's
  // collective-safe Householder retry possible.
  const index_t m = 64, n = 8;
  const int P = 8;
  la::Matrix A = la::graded_matrix(m, n, 1e12, 913);
  expect_conformant(P, [&](backend::Comm& c) {
    la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
    std::vector<double> out;
    try {
      core::ExplicitQr f = core::cholesky_qr2(c, la::ConstMatrixView(Al.view()), {});
      put(out, 0.0);  // unexpectedly succeeded — conformance will still agree,
      put(out, f.Q);  // but the accuracy sweep pins that this kappa must fail
    } catch (const core::CholeskyQrUnstable&) {
      put(out, 1.0);
    }
    return out;
  });
}

TEST(BackendConformance, House1d) {
  const index_t m = 48, n = 6;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 902);
  expect_conformant(P, [&](backend::Comm& c) {
    la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
    core::DistributedQr f = core::house_1d(c, la::ConstMatrixView(Al.view()));
    std::vector<double> out;
    put(out, f.V);
    put(out, f.T);
    put(out, f.R);
    return out;
  });
}

TEST(BackendConformance, CaqrEg1d) {
  const index_t m = 96, n = 12;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 903);
  expect_conformant(P, [&](backend::Comm& c) {
    std::vector<double> out;
    for (index_t b : {index_t{0}, index_t{4}}) {
      la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
      core::CaqrEg1dOptions opts;
      opts.b = b;
      core::DistributedQr f = core::caqr_eg_1d(c, la::ConstMatrixView(Al.view()), opts);
      put(out, f.V);
      put(out, f.T);
      put(out, f.R);
    }
    return out;
  });
}

TEST(BackendConformance, CaqrEg3dRecursive) {
  const index_t m = 32, n = 8;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 904);
  expect_conformant(P, [&](backend::Comm& c) {
    std::vector<double> out;
    for (index_t b : {index_t{0}, index_t{4}}) {
      la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::CyclicRows);
      core::CaqrEg3dOptions opts;
      opts.b = b;
      core::CyclicQr f = core::caqr_eg_3d(c, la::ConstMatrixView(Al.view()), m, n, opts);
      put(out, f.V);
      put(out, f.T);
      put(out, f.R);
    }
    return out;
  });
}

TEST(BackendConformance, CaqrEg3dIterative) {
  const index_t m = 32, n = 8;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 905);
  expect_conformant(P, [&](backend::Comm& c) {
    la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::CyclicRows);
    core::IterativeOptions opts;
    opts.panel = 4;
    core::IterativeQr f = core::caqr_eg_3d_iterative(c, la::ConstMatrixView(Al.view()), m, n, opts);
    std::vector<double> out;
    put(out, f.V);
    put(out, f.R);
    put(out, static_cast<double>(f.T_blocks.size()));
    for (const auto& T : f.T_blocks) put(out, T);
    for (index_t s : f.panel_starts) put(out, static_cast<double>(s));
    return out;
  });
}

namespace {

la::Matrix bc_local_of(const core::BlockCyclic& bc, int rank, const la::Matrix& A) {
  const int pr = bc.g.row_of(rank);
  const int pc = bc.g.col_of(rank);
  la::Matrix out(bc.local_rows(pr), bc.local_cols(pc));
  for (index_t li = 0; li < out.rows(); ++li)
    for (index_t lj = 0; lj < out.cols(); ++lj)
      out(li, lj) = A(bc.grow(pr, li), bc.gcol(pc, lj));
  return out;
}

}  // namespace

TEST(BackendConformance, House2d) {
  const index_t m = 32, n = 16;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 906);
  core::House2dOptions opts;
  opts.b = 2;
  opts.grid_r = 2;
  opts.grid_c = 2;
  core::BlockCyclic bc{m, n, opts.b, core::ProcGrid2{opts.grid_r, opts.grid_c}};
  expect_conformant(P, [&](backend::Comm& c) {
    la::Matrix Al = bc_local_of(bc, c.rank(), A);
    core::Grid2dQr f = core::house_2d(c, la::ConstMatrixView(Al.view()), m, n, opts);
    std::vector<double> out;
    put(out, f.local);
    put(out, static_cast<double>(f.T.size()));
    for (const auto& T : f.T) put(out, T);
    return out;
  });
}

TEST(BackendConformance, Caqr2d) {
  const index_t m = 48, n = 12;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 907);
  core::Caqr2dOptions opts;
  opts.b = 3;
  opts.grid_r = 4;
  opts.grid_c = 1;
  core::BlockCyclic bc{m, n, opts.b, core::ProcGrid2{opts.grid_r, opts.grid_c}};
  expect_conformant(P, [&](backend::Comm& c) {
    la::Matrix Al = bc_local_of(bc, c.rank(), A);
    core::Grid2dQr f = core::caqr_2d(c, la::ConstMatrixView(Al.view()), m, n, opts);
    std::vector<double> out;
    put(out, f.local);
    put(out, static_cast<double>(f.T.size()));
    for (const auto& T : f.T) put(out, T);
    return out;
  });
}

// --- TSQR under fault injection. ---------------------------------------------

namespace {

/// run_collect, fault-aware: a killed rank never reaches the collect
/// rendezvous, so rank 0 records a death marker for it instead of its
/// payload.  `threw` marks runs that ended in a session failure (the
/// machine rethrows the lowest rank's error, which may be the generic abort
/// a survivor saw rather than the fault::RankDeath that caused it).
struct FaultyCollect {
  bool threw = false;
  std::vector<double> data;
};

FaultyCollect run_collect_faulty(backend::Machine& machine, const Body& body) {
  FaultyCollect out;
  try {
    machine.run([&](backend::Comm& c) {
      std::vector<double> mine = body(c);
      if (c.rank() == 0) {
        out.data.push_back(static_cast<double>(mine.size()));
        out.data.insert(out.data.end(), mine.begin(), mine.end());
        for (int src = 1; src < c.size(); ++src) {
          try {
            std::vector<double> theirs = c.recv(src, kCollectTag);
            out.data.push_back(static_cast<double>(theirs.size()));
            out.data.insert(out.data.end(), theirs.begin(), theirs.end());
          } catch (const qr3d::fault::RankDeath&) {
            out.data.push_back(-1.0);  // death marker in the flat stream
          }
        }
      } else {
        c.send(0, std::move(mine), kCollectTag);
      }
    });
  } catch (...) {
    out.threw = true;
  }
  return out;
}

}  // namespace

TEST(BackendConformance, TsqrOutcomeMatchesUnderScriptedKills) {
  // For the SAME scripted kill (rank 2 at logical step s), both backends
  // must agree on the outcome at every s — a clean finish, or a session
  // failure caused by the death of rank 2 — since the logical-step counter
  // makes injection backend-independent; whenever the run completes, the
  // serialized factors (and death markers) must be bitwise identical.  The
  // sweep must see both outcomes.
  const index_t m = 64, n = 8;
  const int P = 8;
  la::Matrix A = la::random_matrix(m, n, 911);
  const Body body = [&](backend::Comm& c) {
    la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
    core::DistributedQr f = core::tsqr(c, la::ConstMatrixView(Al.view()));
    std::vector<double> out;
    put(out, f.V);
    put(out, f.R);
    return out;
  };

  bool saw_death = false, saw_completion = false;
  for (std::uint64_t step = 1; step <= 24; ++step) {
    sim::Machine oracle(P);
    backend::ThreadMachine real(P);
    oracle.set_fault_plan(qr3d::fault::Plan::kill(2, step));
    real.set_fault_plan(qr3d::fault::Plan::kill(2, step));
    const FaultyCollect expected = run_collect_faulty(oracle, body);
    const FaultyCollect actual = run_collect_faulty(real, body);

    ASSERT_EQ(expected.threw, actual.threw) << "outcome diverged at step " << step;
    ASSERT_EQ(oracle.last_run_deaths(), real.last_run_deaths()) << "step " << step;
    if (expected.threw) {
      // The failure is the rank death, not some other error.
      ASSERT_EQ(oracle.last_run_deaths(), std::vector<int>{2}) << "step " << step;
      saw_death = true;
      continue;  // session failure on both: nothing to compare
    }
    saw_completion = true;
    ASSERT_EQ(expected.data.size(), actual.data.size()) << "step " << step;
    for (std::size_t i = 0; i < expected.data.size(); ++i)
      ASSERT_EQ(expected.data[i], actual.data[i])
          << "step " << step << ", first divergence at flat index " << i;
  }
  EXPECT_TRUE(saw_death) << "no step killed a rank the tree still needed";
  EXPECT_TRUE(saw_completion) << "no step let the run complete";
}

// --- The facade: Solver / Factorization / least squares. ---------------------

TEST(BackendConformance, SolverFacadeAndLeastSquares) {
  const index_t m = 40, n = 10, k = 3;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 908);
  la::Matrix B = la::random_matrix(m, k, 909);
  expect_conformant(P, [&](backend::Comm& c) {
    qr3d::DistMatrix Ad = qr3d::DistMatrix::from_global(c, A.view(), qr3d::Dist::CyclicRows);
    qr3d::DistMatrix Bd = qr3d::DistMatrix::from_global(c, B.view(), qr3d::Dist::CyclicRows);
    qr3d::Factorization f = qr3d::Solver().factor(Ad);
    la::Matrix x = f.solve_least_squares(Bd);
    std::vector<double> out;
    put(out, f.r().local());
    put(out, f.v().local());
    if (c.rank() == 0) put(out, x);  // replicated; compare once
    return out;
  });
}

// The 1D apply (Lemma 3's multiplications on T's row-cyclic slices, V and T
// never move) round-trips Q (Q^H X) = X, bitwise alike on both backends: on a
// tall-skinny factor for one right-hand side and for k = 2n, and on a
// squarish one (m/n < P, the 3D recursion's factor) for k = 1 and k = n.
TEST(BackendConformance, TallApplyQRoundTrip) {
  struct Shape {
    index_t m, n;
    int P;
    index_t wide_k;
  };
  for (const Shape sh : {Shape{64, 4, 4, 8}, Shape{40, 10, 5, 10}}) {
    SCOPED_TRACE(std::to_string(sh.m) + "x" + std::to_string(sh.n) + " P=" +
                 std::to_string(sh.P));
    la::Matrix A = la::random_matrix(sh.m, sh.n, 910);
    expect_conformant(sh.P, [&](backend::Comm& c) {
      const qr3d::Factorization f =
          qr3d::Solver().factor(qr3d::DistMatrix::from_global(c, A.view()));
      std::vector<double> out;
      for (const index_t k : {index_t{1}, sh.wide_k}) {
        la::Matrix X = la::random_matrix(sh.m, k, 911 + static_cast<unsigned>(k));
        const qr3d::DistMatrix Xd = qr3d::DistMatrix::from_global(c, X.view());
        const qr3d::DistMatrix Y = f.apply_q(Xd, la::Op::ConjTrans);
        const qr3d::DistMatrix Z = f.apply_q(Y, la::Op::NoTrans);
        EXPECT_LT(la::diff_norm(Z.local().view(), Xd.local().view()),
                  1e-12 * (1.0 + la::frobenius_norm(Xd.local().view())))
            << "k = " << k;
        put(out, Y.local());
        put(out, Z.local());
      }
      return out;
    });
  }
}

// --- Wall-clock reporting sanity on the thread backend. ----------------------

TEST(BackendConformance, ThreadMachineReportsWallTime) {
  backend::ThreadMachine m(4);
  EXPECT_EQ(m.kind(), backend::Kind::Thread);
  m.run([](backend::Comm& c) {
    std::vector<double> data(64, static_cast<double>(c.rank()));
    coll::all_reduce(c, data);
  });
  EXPECT_GT(m.last_wall_seconds(), 0.0);
  // And the factory builds both kinds.
  auto simm = backend::make_machine(backend::Kind::Simulated, 3);
  auto thrm = backend::make_machine(backend::Kind::Thread, 3);
  EXPECT_EQ(simm->kind(), backend::Kind::Simulated);
  EXPECT_EQ(thrm->kind(), backend::Kind::Thread);
  EXPECT_EQ(simm->size(), 3);
  EXPECT_EQ(thrm->size(), 3);
  EXPECT_STREQ(backend::kind_name(simm->kind()), "sim");
  EXPECT_STREQ(backend::kind_name(thrm->kind()), "thread");
  // The facade route (the README's documented usage) selects the same way.
  auto via_opts =
      qr3d::make_machine(qr3d::QrOptions().with_backend(qr3d::Backend::Thread), 3);
  EXPECT_EQ(via_opts->kind(), backend::Kind::Thread);
  EXPECT_EQ(via_opts->size(), 3);
  EXPECT_EQ(qr3d::make_machine(qr3d::QrOptions(), 2)->kind(), backend::Kind::Simulated);
}
