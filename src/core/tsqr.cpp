#include "core/tsqr.hpp"

#include <cmath>
#include <vector>

#include "coll/coll.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/householder.hpp"
#include "la/lu.hpp"
#include "la/packing.hpp"
#include "la/triangular.hpp"

namespace qr3d::core {

namespace {

constexpr int kTagUpsweep = 8101;
constexpr int kTagDownsweep = 8102;

/// One stored internal node of this rank's path through the reduction tree.
struct TreeNode {
  int partner;     // rank whose R-factor was stacked below ours
  la::Matrix V;    // 2n x n basis of the combining QR
  la::Matrix T;    // n x n kernel
};

}  // namespace

DistributedQr tsqr(backend::Comm& comm, la::ConstMatrixView A_local) {
  const int P = comm.size();
  const int me = comm.rank();
  const la::index_t mp = A_local.rows();
  const la::index_t n = A_local.cols();
  QR3D_CHECK(mp >= n, "tsqr: every rank needs at least n rows (m/n >= P)");

  // --- Upsweep: local QR, then binomial reduction of R-factors. ------------
  // F is freed before the tree allocates, and T0 is allocated after F: heap
  // placement moves the leaf's apply_q (forming W below) by up to 1.8x at
  // 16384 x 64, and this order measured fast.
  la::Matrix V0, T0, R;
  {
    la::Matrix F = la::copy<double>(A_local);
    T0 = la::Matrix(n, n);
    la::geqrt(F.view(), T0.view());
    V0 = la::extract_v<double>(F.view());
    R = la::extract_r<double>(F.view());
  }
  comm.charge_flops(la::flops::geqrt(mp, n));

  std::vector<TreeNode> nodes;  // combines at this rank, in upsweep order
  int parent = -1;              // whom we sent our R to (and its tree level)
  for (int mask = 1; mask < P; mask <<= 1) {
    if ((me & mask) != 0) {
      parent = me - mask;
      comm.send(parent, la::pack_upper(R.view()), kTagUpsweep);
      break;
    }
    if (me + mask < P) {
      la::Matrix Rq = la::unpack_upper(n, comm.recv(me + mask, kTagUpsweep));
      la::Matrix stacked(2 * n, n);
      la::assign<double>(stacked.block(0, 0, n, n), R.view());
      la::assign<double>(stacked.block(n, 0, n, n), Rq.view());
      la::Matrix Tl(n, n);
      la::geqrt(stacked.view(), Tl.view());
      comm.charge_flops(la::flops::geqrt(2 * n, n));
      R = la::extract_r<double>(stacked.view());
      nodes.push_back(TreeNode{me + mask, la::extract_v<double>(stacked.view()), std::move(Tl)});
    }
  }

  // --- Downsweep: push identity columns back down the tree. ----------------
  la::Matrix B;
  if (me == 0) {
    B = la::Matrix::identity(n);
  } else {
    B = la::from_vector(n, n, comm.recv(parent, kTagDownsweep));
  }
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    la::Matrix C(2 * n, n);
    la::assign<double>(C.block(0, 0, n, n), B.view());
    la::apply_q<double>(it->V.view(), it->T.view(), la::Op::NoTrans, C.view());
    comm.charge_flops(la::flops::larfb(2 * n, n, n));
    B = la::copy<double>(C.block(0, 0, n, n));
    comm.send(it->partner, la::to_vector(C.block(n, 0, n, n)), kTagDownsweep);
  }

  // W_p = local Q applied to [B_p; 0]: this rank's rows of the tree Q-factor's
  // leading n columns.
  la::Matrix W(mp, n);
  la::assign<double>(W.block(0, 0, n, n), B.view());
  la::apply_q<double>(V0.view(), T0.view(), la::Op::NoTrans, W.view());
  comm.charge_flops(la::flops::larfb(mp, n, n));

  // --- Householder reconstruction ([BDG+15]). ------------------------------
  DistributedQr out;
  std::vector<double> u_flat(static_cast<std::size_t>(n * n));
  if (me == 0) {
    la::LuSignShift lu = la::lu_sign_shift<double>(la::ConstMatrixView(W.block(0, 0, n, n)));
    comm.charge_flops(la::flops::lu(n));

    // T = U S^H L^{-H}: scale U's columns by conj(S), then solve X L^H = US^H.
    la::Matrix Tk = la::copy<double>(lu.U.view());
    for (la::index_t j = 0; j < n; ++j)
      for (la::index_t i = 0; i <= j; ++i) Tk(i, j) *= lu.S[static_cast<std::size_t>(j)];
    la::trsm(la::Side::Right, la::Uplo::Lower, la::Op::ConjTrans, la::Diag::Unit, 1.0,
             lu.L.view(), Tk.view());
    comm.charge_flops(la::flops::trsm(n, n));
    la::make_triangular(la::Uplo::Upper, Tk.view());

    // R := -S^H R (flip row signs).
    for (la::index_t i = 0; i < n; ++i)
      for (la::index_t j = i; j < n; ++j) R(i, j) *= -lu.S[static_cast<std::size_t>(i)];

    // V's top block is L; the rest is W_2 U^{-1}.
    out.V = la::Matrix(mp, n);
    la::assign<double>(out.V.block(0, 0, n, n), lu.L.view());
    if (mp > n) {
      la::MatrixView lower = out.V.block(n, 0, mp - n, n);
      la::assign<double>(lower, W.block(n, 0, mp - n, n));
      la::trsm(la::Side::Right, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0,
               lu.U.view(), lower);
      comm.charge_flops(la::flops::trsm(n, mp - n));
    }
    out.T = std::move(Tk);
    out.R = std::move(R);
    u_flat = la::to_vector(lu.U.view());
  }

  coll::broadcast(comm, 0, u_flat, coll::Alg::Binomial);
  if (me != 0) {
    la::Matrix U = la::from_vector(n, n, u_flat);
    out.V = std::move(W);
    la::trsm(la::Side::Right, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0, U.view(),
             out.V.view());
    comm.charge_flops(la::flops::trsm(n, mp));
  }
  return out;
}

}  // namespace qr3d::core
