#include "core/solver.hpp"

#include <cmath>

#include "core/api.hpp"
#include "la/flops.hpp"
#include "la/packing.hpp"
#include "serve/plan_cache.hpp"

namespace qr3d {

namespace {

constexpr double kRangeTol = 1e-12;

}  // namespace

QrOptions& QrOptions::with_delta(double d) {
  QR3D_CHECK(d >= 0.5 - kRangeTol && d <= 2.0 / 3.0 + kRangeTol,
             "QrOptions: delta must lie in Theorem 1's range [1/2, 2/3]");
  delta_ = d;
  return *this;
}

QrOptions& QrOptions::with_epsilon(double e) {
  QR3D_CHECK(e >= -kRangeTol && e <= 1.0 + kRangeTol,
             "QrOptions: epsilon must lie in Theorem 2's range [0, 1]");
  epsilon_ = e;
  return *this;
}

void QrOptions::validate(la::index_t m, la::index_t n, int P) const {
  QR3D_CHECK(P >= 1, "QrOptions: need at least one rank");
  QR3D_CHECK(m >= n && n >= 1, "QrOptions: need m >= n >= 1 (overdetermined or square)");
}

// ---------------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------------

Solver::Solver(QrOptions opts, std::shared_ptr<serve::PlanCache> cache)
    : opts_(std::move(opts)),
      cache_(cache ? std::move(cache) : std::make_shared<serve::PlanCache>()) {}

Factorization Solver::factor(const DistMatrix& A) const {
  QR3D_CHECK(A.valid(), "Solver::factor: invalid DistMatrix");
  backend::Comm& comm = A.comm();
  const la::index_t m = A.rows(), n = A.cols();
  const int P = comm.size();
  opts_.validate(m, n, P);
  // The Householder-only contract: a Solver always returns V, T and R.
  // Resolution is a pure model computation (deterministic, charging no
  // simulated cost), so ranks sharing a Solver — or a serving layer sharing
  // its cache — reuse one plan per shape.
  return factor(A, serve::resolve_shape_plan(m, n, P, opts_, *cache_, comm.kind(),
                                             comm.params(), Accuracy::Accurate));
}

Factorization Solver::factor(const DistMatrix& A, const serve::Plan& plan) const {
  QR3D_CHECK(A.valid(), "Solver::factor: invalid DistMatrix");
  backend::Comm& comm = A.comm();
  const la::index_t m = A.rows(), n = A.cols();
  opts_.validate(m, n, comm.size());

  core::CaqrEg3dOptions params;
  params.b = plan.b;
  params.delta = plan.delta;
  params.epsilon = plan.epsilon;
  // The plan *is* the resolved choice.  Tuned (delta, epsilon) may lie
  // anywhere in the tuner's [0, 1] grid (the Theorem 1/2 ranges are an
  // option-setter constraint, not an algorithmic one).

  // The recursion's native input distribution is row-cyclic; bring other
  // layouts there first (collective, so every rank takes the same branch).
  DistMatrix moved;
  if (A.dist() != Dist::CyclicRows) moved = A.redistribute(Dist::CyclicRows);
  const DistMatrix& Ac = moved.valid() ? moved : A;

  core::CyclicQr f = core::caqr_eg_3d(comm, la::ConstMatrixView(Ac.local().view()), m, n, params);
  return Factorization(m, n, DistMatrix::wrap(comm, std::move(f.V), m, n, Dist::CyclicRows),
                       DistMatrix::wrap(comm, std::move(f.T), n, n, Dist::CyclicRows),
                       DistMatrix::wrap(comm, std::move(f.R), n, n, Dist::CyclicRows));
}

// ---------------------------------------------------------------------------
// Factorization
// ---------------------------------------------------------------------------

DistMatrix Factorization::apply_q(const DistMatrix& X, la::Op op) const {
  QR3D_CHECK(X.valid(), "Factorization::apply_q: invalid DistMatrix");
  QR3D_CHECK(X.rows() == m_, "Factorization::apply_q: X must have the factored row count");
  backend::Comm& comm = this->comm();
  QR3D_CHECK(&X.comm() == &comm,
             "Factorization::apply_q: X lives on a different communicator than the factors");
  DistMatrix moved;
  if (X.dist() != Dist::CyclicRows) moved = X.redistribute(Dist::CyclicRows);
  const DistMatrix& Xc = moved.valid() ? moved : X;
  la::Matrix Y =
      core::apply_q_cyclic(comm, v_.local(), t_.local(), m_, n_, Xc.local(), X.cols(), op);
  return DistMatrix::wrap(comm, std::move(Y), m_, X.cols(), Dist::CyclicRows);
}

DistMatrix Factorization::explicit_q() const {
  // Q's first n columns = Q * [I_n; 0]; build the identity block in place.
  DistMatrix E = DistMatrix::zeros(comm(), m_, n_, Dist::CyclicRows);
  for (la::index_t li = 0; li < E.local_rows(); ++li) {
    const la::index_t gi = E.global_row(li);
    if (gi < n_) E.local()(li, gi) = 1.0;
  }
  return apply_q(E, la::Op::NoTrans);
}

const DistMatrix& Factorization::rebuild_kernel() const {
  if (!rebuilt_t_->valid()) {
    la::Matrix Tl = core::rebuild_kernel_cyclic(comm(), v_.local(), m_, n_);
    *rebuilt_t_ = DistMatrix::wrap(comm(), std::move(Tl), n_, n_, Dist::CyclicRows);
  }
  return *rebuilt_t_;
}

la::Matrix Factorization::solve_least_squares(const DistMatrix& B) const {
  QR3D_CHECK(B.valid(), "solve_least_squares: invalid DistMatrix");
  QR3D_CHECK(B.rows() == m_, "solve_least_squares: B must have A's row count");
  backend::Comm& comm = this->comm();
  QR3D_CHECK(&B.comm() == &comm,
             "solve_least_squares: B lives on a different communicator than the factors");
  const int P = comm.size();
  const la::index_t k = B.cols();

  // y = Q^H B, row-cyclic like B.
  DistMatrix y = apply_q(B, la::Op::ConjTrans);

  // The top n rows of a cyclic matrix are the per-rank local-row prefixes,
  // so y_top is a valid CyclicRows(n, k) matrix without any data movement.
  const la::index_t top_rows = mm::CyclicRows(n_, k, P, 0).local_rows(comm.rank());
  DistMatrix y_top = DistMatrix::wrap(
      comm, la::copy<double>(y.local().view().top_rows(top_rows)), n_, k, Dist::CyclicRows);

  // Solve R x = y_top on the root (R is small: n x n), then replicate x.
  la::Matrix R = r_.gather(0);
  la::Matrix x = y_top.gather(0);
  if (comm.rank() == 0) {
    la::trsm(la::Side::Left, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0, R.view(),
             x.view());
    comm.charge_flops(la::flops::trsm(static_cast<double>(n_), static_cast<double>(k)));
  }
  return DistMatrix::replicate_from_root(comm, x, n_, k, 0);
}

// ---------------------------------------------------------------------------
// Free-function conveniences
// ---------------------------------------------------------------------------

std::unique_ptr<backend::Machine> make_machine(const QrOptions& opts, int P,
                                               sim::CostParams params) {
  return backend::make_machine(opts.backend(), P, std::move(params));
}

Factorization factor(const DistMatrix& A, const QrOptions& opts) {
  return Solver(opts).factor(A);
}

la::Matrix solve_least_squares(const DistMatrix& A, const DistMatrix& B, const QrOptions& opts) {
  return Solver(opts).factor(A).solve_least_squares(B);
}

}  // namespace qr3d
