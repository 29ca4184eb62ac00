#include "core/api.hpp"

#include "core/dist_matrix.hpp"
#include "la/flops.hpp"
#include "la/packing.hpp"
#include "la/triangular.hpp"
#include "mm/mm_3d.hpp"
#include "mm/redistribute.hpp"

namespace qr3d::core {

CaqrEg3dOptions resolve_algorithm(la::index_t m, la::index_t n, int P, Algorithm alg,
                                  CaqrEg3dOptions params) {
  switch (alg) {
    case Algorithm::BaseCase:
      params.b = n;  // immediate base case: conversion + 1D-CAQR-EG
      break;
    case Algorithm::Auto:
      if (m / std::max<la::index_t>(1, n) >= P) {
        // Section 1: aspect ratio at least P — go straight to the base case.
        params.b = n;
      }
      break;
    case Algorithm::CaqrEg3d:
      break;
  }
  return params;
}

la::Matrix apply_q_cyclic(backend::Comm& comm, const la::Matrix& V_local, const la::Matrix& T_local,
                          la::index_t m, la::index_t n, const la::Matrix& X_local, la::index_t k,
                          la::Op op) {
  const int P = comm.size();
  const mm::CyclicRows lay_x(m, k, P, 0);
  const mm::CyclicRows lay_v(m, n, P, 0);
  const mm::CyclicRows lay_nk(n, k, P, 0);
  const mm::CyclicRows lay_t(n, n, P, 0);
  const mm::CyclicCols lay_vh(n, m, P, 0);
  const mm::CyclicCols lay_th(n, n, P, 0);
  QR3D_CHECK(X_local.rows() == lay_x.local_rows(comm.rank()) && X_local.cols() == k,
             "apply_q_cyclic: X layout mismatch");

  // M1 = V^H X  (n x k).
  auto m1 = mm::mm_3d(comm, n, k, m, lay_vh, la::to_vector_rowmajor(V_local.view()), lay_x,
                      la::to_vector(X_local.view()), lay_nk);
  // M2 = op(T) M1.
  std::vector<double> m2;
  if (op == la::Op::NoTrans) {
    m2 = mm::mm_3d(comm, n, k, n, lay_t, la::to_vector(T_local.view()), lay_nk, m1, lay_nk);
  } else {
    m2 = mm::mm_3d(comm, n, k, n, lay_th, la::to_vector_rowmajor(T_local.view()), lay_nk, m1,
                   lay_nk);
  }
  // Y = X - V M2.
  auto vm2 = mm::mm_3d(comm, m, k, n, lay_v, la::to_vector(V_local.view()), lay_nk, m2, lay_x);
  la::Matrix Y = mm::unpack_rows(lay_x, comm.rank(), vm2);
  la::scale(-1.0, Y.view());
  la::add(1.0, la::ConstMatrixView(X_local.view()), Y.view());
  comm.charge_flops(la::flops::add(X_local.rows(), k));
  return Y;
}

la::Matrix rebuild_kernel_cyclic(backend::Comm& comm, const la::Matrix& V_local, la::index_t m,
                                 la::index_t n) {
  const int P = comm.size();
  const mm::CyclicRows lay_v(m, n, P, 0);
  const mm::CyclicCols lay_vh(n, m, P, 0);
  const mm::CyclicRows lay_g(n, n, P, 0);
  QR3D_CHECK(V_local.rows() == lay_v.local_rows(comm.rank()) && V_local.cols() == n,
             "rebuild_kernel_cyclic: V layout mismatch");

  // G = V^H V (3D multiplication), gathered to rank 0.
  auto g_buf = mm::mm_3d(comm, n, n, m, lay_vh, la::to_vector_rowmajor(V_local.view()), lay_v,
                         la::to_vector(V_local.view()), lay_g);
  la::Matrix G =
      DistMatrix::gather_local(comm, mm::unpack_rows(lay_g, comm.rank(), g_buf).view(), n, n);

  // T = (strict_upper(G) + diag(G)/2)^{-1} on the root, then scatter.
  la::Matrix T_full(n, n);
  if (comm.rank() == 0) {
    la::Matrix Tinv(n, n);
    for (la::index_t j = 0; j < n; ++j) {
      Tinv(j, j) = G(j, j) / 2.0;
      for (la::index_t i = 0; i < j; ++i) Tinv(i, j) = G(i, j);
    }
    T_full = la::invert_triangular<double>(la::Uplo::Upper, la::Diag::NonUnit,
                                           la::ConstMatrixView(Tinv.view()));
    comm.charge_flops(la::flops::trtri(n));
  }
  std::vector<double> flat = la::to_vector(T_full.view());
  coll::broadcast(comm, 0, flat);
  T_full = la::from_vector(n, n, flat);

  // Keep my row-cyclic slice.
  la::Matrix T_local(lay_g.local_rows(comm.rank()), n);
  for (la::index_t li = 0; li < T_local.rows(); ++li)
    for (la::index_t j = 0; j < n; ++j)
      T_local(li, j) = T_full(lay_g.global_row(comm.rank(), li), j);
  return T_local;
}

}  // namespace qr3d::core
