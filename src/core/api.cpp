#include "core/api.hpp"

#include "la/flops.hpp"
#include "la/packing.hpp"
#include "la/triangular.hpp"
#include "coll/coll.hpp"
#include "mm/mm_1d.hpp"
#include "mm/layout.hpp"

namespace qr3d::core {

namespace {

/// Section 1's aspect test: m/n >= P makes the matrix tall-skinny enough for
/// the base case of the factorization.
bool tall_skinny(la::index_t m, la::index_t n, int P) {
  return m / std::max<la::index_t>(1, n) >= P;
}

/// This rank's share of `full` under a row-cyclic layout, packed
/// column-major (the order of Layout::for_each_local).
std::vector<double> pack_rows_of(const mm::CyclicRows& lay, int rank, const la::Matrix& full) {
  std::vector<double> buf;
  buf.reserve(static_cast<std::size_t>(lay.local_count(rank)));
  lay.for_each_local(rank, [&](la::index_t i, la::index_t j) { buf.push_back(full(i, j)); });
  return buf;
}

}  // namespace

CaqrEg3dOptions resolve_algorithm(la::index_t m, la::index_t n, int P, Algorithm alg,
                                  CaqrEg3dOptions params) {
  switch (alg) {
    case Algorithm::BaseCase:
      params.b = n;  // immediate base case: conversion + 1D-CAQR-EG
      break;
    case Algorithm::Auto:
      if (tall_skinny(m, n, P)) {
        // Section 1: aspect ratio at least P — go straight to the base case.
        params.b = n;
      }
      break;
    case Algorithm::CaqrEg3d:
      break;
  }
  return params;
}

// Lemma 3's multiplications.  V and X share one row-cyclic layout, so V
// never moves; neither does T, whose row-cyclic slices multiply M1 = V^H X in
// place:
//   Q X:    all-reduce M1; my rows of M2 = T M1; all-gather M2.
//   Q^H X:  reduce-scatter M1 to my rows; my part of M2 = T^H M1 summed by an
//           all-reduce.
// Then each rank subtracts its rows of V M2.  Every collective carries n x k
// words.
la::Matrix apply_q_cyclic(backend::Comm& comm, const la::Matrix& V_local, const la::Matrix& T_local,
                          la::index_t m, la::index_t n, const la::Matrix& X_local, la::index_t k,
                          la::Op op) {
  const int P = comm.size();
  QR3D_CHECK(X_local.rows() == mm::CyclicRows(m, k, P, 0).local_rows(comm.rank()) &&
                 X_local.cols() == k,
             "apply_q_cyclic: X layout mismatch");
  const mm::CyclicRows lay_nk(n, k, P, 0);
  la::Matrix M1(n, k);
  la::gemm(1.0, la::Op::ConjTrans, la::ConstMatrixView(V_local.view()), la::Op::NoTrans,
           la::ConstMatrixView(X_local.view()), 0.0, M1.view());
  comm.charge_flops(la::flops::gemm(n, k, V_local.rows()));

  la::Matrix M2(n, k);
  if (op == la::Op::NoTrans) {
    std::vector<double> flat = la::to_vector(M1.view());
    coll::all_reduce(comm, flat);
    M1 = la::from_vector(n, k, flat);
    la::Matrix mine(T_local.rows(), k);
    la::gemm(1.0, la::Op::NoTrans, la::ConstMatrixView(T_local.view()), la::Op::NoTrans,
             la::ConstMatrixView(M1.view()), 0.0, mine.view());
    comm.charge_flops(la::flops::gemm(T_local.rows(), k, n));
    std::vector<std::size_t> counts(static_cast<std::size_t>(P));
    for (int q = 0; q < P; ++q) counts[q] = static_cast<std::size_t>(lay_nk.local_count(q));
    const auto blocks = coll::all_gather(comm, la::to_vector(mine.view()), counts);
    for (int q = 0; q < P; ++q) {
      std::size_t at = 0;
      lay_nk.for_each_local(q, [&](la::index_t i, la::index_t j) { M2(i, j) = blocks[q][at++]; });
    }
  } else {
    std::vector<std::vector<double>> parts(static_cast<std::size_t>(P));
    for (int q = 0; q < P; ++q) parts[q] = pack_rows_of(lay_nk, q, M1);
    const la::Matrix m1_mine =
        la::from_vector(T_local.rows(), k, coll::reduce_scatter(comm, std::move(parts)));
    la::gemm(1.0, la::Op::ConjTrans, la::ConstMatrixView(T_local.view()), la::Op::NoTrans,
             la::ConstMatrixView(m1_mine.view()), 0.0, M2.view());
    comm.charge_flops(la::flops::gemm(n, k, T_local.rows()));
    std::vector<double> flat = la::to_vector(M2.view());
    coll::all_reduce(comm, flat);
    M2 = la::from_vector(n, k, flat);
  }

  la::Matrix Y = la::copy(X_local.view());
  la::gemm(-1.0, la::Op::NoTrans, la::ConstMatrixView(V_local.view()), la::Op::NoTrans,
           la::ConstMatrixView(M2.view()), 1.0, Y.view());
  comm.charge_flops(la::flops::gemm(V_local.rows(), k, n));
  return Y;
}

la::Matrix rebuild_kernel_cyclic(backend::Comm& comm, const la::Matrix& V_local, la::index_t m,
                                 la::index_t n) {
  const int P = comm.size();
  const mm::CyclicRows lay_g(n, n, P, 0);
  QR3D_CHECK(V_local.rows() == mm::CyclicRows(m, n, P, 0).local_rows(comm.rank()) &&
                 V_local.cols() == n,
             "rebuild_kernel_cyclic: V layout mismatch");

  // G = V^H V on rank 0: one reduce of local Gram blocks (Lemma 3).  The
  // root inverts G's triangle and broadcasts T, n^2 words either way, so a
  // 3D Gram would save at most 1.3x of the words (1024 x 1024 on 27 ranks)
  // for 4x the messages.
  const la::Matrix G = mm::mm_1d_inner(comm, 0, V_local.view(), V_local.view());

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
