#include "core/caqr_eg_3d.hpp"

#include <algorithm>
#include <iterator>

#include "core/caqr_eg_1d.hpp"
#include "core/params.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/packing.hpp"
#include "mm/layout.hpp"
#include "mm/mm_3d.hpp"
#include "mm/redistribute.hpp"

namespace qr3d::core {

using la::index_t;

namespace detail {

BaseConversionPlan BaseConversionPlan::make(index_t m, index_t n, int P) {
  QR3D_CHECK(m >= n && n >= 1 && P >= 1, "BaseConversionPlan: need m >= n >= 1");
  BaseConversionPlan plan;
  plan.P = P;
  plan.Pprime = static_cast<int>(std::min<index_t>(m, P));

  // P* = min(P, floor(m/n)), decremented until every group holds >= n rows.
  // (The paper asserts floor(m/P*) >= n rows per representative, but the
  // processor dealing can leave a group short by rounding; shrinking P*
  // restores the invariant and changes the costs by at most a constant.)
  for (plan.Pstar = static_cast<int>(std::max<index_t>(1, std::min<index_t>(P, m / n)));;
       --plan.Pstar) {
    plan.group_rows.assign(static_cast<std::size_t>(plan.Pstar), {});
    for (index_t r = 0; r < m; ++r) {
      const int q = static_cast<int>(r % P);
      plan.group_rows[static_cast<std::size_t>(q % plan.Pstar)].push_back(r);
    }
    index_t min_rows = m;
    for (const auto& g : plan.group_rows) min_rows = std::min<index_t>(min_rows, g.size());
    if (min_rows >= n || plan.Pstar == 1) break;
  }
  QR3D_ASSERT(static_cast<index_t>(plan.group_rows[0].size()) >= n,
              "BaseConversionPlan: representative 0 short of rows");
  plan.Pdd = static_cast<int>(std::min<index_t>(plan.Pstar, n));

  // Phase 2: top rows (r < n) move to rep 0; rep 0 hands back an equal
  // number of its rows >= n, lowest-index first, round-robin by rep.
  plan.top_rows.assign(static_cast<std::size_t>(plan.Pstar), {});
  plan.given_rows.assign(static_cast<std::size_t>(plan.Pstar), {});
  for (int g = 1; g < plan.Pstar; ++g)
    for (index_t r : plan.group_rows[static_cast<std::size_t>(g)])
      if (r < n) plan.top_rows[static_cast<std::size_t>(g)].push_back(r);

  std::vector<index_t> candidates;  // rep 0's rows >= n, ascending
  for (index_t r : plan.group_rows[0])
    if (r >= n) candidates.push_back(r);
  std::size_t next = 0;
  for (int g = 1; g < plan.Pstar; ++g) {
    for (std::size_t k = 0; k < plan.top_rows[static_cast<std::size_t>(g)].size(); ++k) {
      QR3D_ASSERT(next < candidates.size(), "BaseConversionPlan: rep 0 cannot rebalance");
      plan.given_rows[static_cast<std::size_t>(g)].push_back(candidates[next++]);
    }
  }

  plan.final_rows.assign(static_cast<std::size_t>(plan.Pstar), {});
  for (index_t r = 0; r < n; ++r) plan.final_rows[0].push_back(r);
  for (std::size_t k = next; k < candidates.size(); ++k) plan.final_rows[0].push_back(candidates[k]);
  for (int g = 1; g < plan.Pstar; ++g) {
    // Both inputs ascend (rows_g from the dealing, given from candidates).
    const auto& rows_g = plan.group_rows[static_cast<std::size_t>(g)];
    const auto& given = plan.given_rows[static_cast<std::size_t>(g)];
    auto& fr = plan.final_rows[static_cast<std::size_t>(g)];
    std::merge(std::lower_bound(rows_g.begin(), rows_g.end(), n), rows_g.end(), given.begin(),
               given.end(), std::back_inserter(fr));
    QR3D_ASSERT(static_cast<index_t>(fr.size()) >= n, "BaseConversionPlan: rep short of rows");
  }
  return plan;
}

}  // namespace detail

namespace {

using Rows = std::vector<index_t>;

/// The ascending global rows relative rank q holds in the row-cyclic layout.
Rows cyclic_rows(const mm::CyclicRows& cyc, int q) {
  Rows rows(static_cast<std::size_t>(cyc.local_rows(q)));
  for (std::size_t li = 0; li < rows.size(); ++li)
    rows[li] = cyc.global_row(q, static_cast<index_t>(li));
  return rows;
}

/// The rows two ascending row lists share.
Rows common_rows(const Rows& a, const Rows& b) {
  Rows out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

/// Local positions of the global rows `which` in a block holding `rows`
/// (both ascending; every row of `which` must be present).
std::vector<index_t> positions(const Rows& rows, const Rows& which) {
  std::vector<index_t> pos(which.size());
  std::size_t k = 0;
  for (std::size_t w = 0; w < which.size(); ++w) {
    while (k < rows.size() && rows[k] < which[w]) ++k;
    QR3D_ASSERT(k < rows.size() && rows[k] == which[w], "base_case: misrouted row");
    pos[w] = static_cast<index_t>(k);
  }
  return pos;
}

/// Copy the global rows `which` from `src` (holding `src_rows`) into `dst`
/// (holding `dst_rows`), one column at a time through precomputed indices.
void copy_rows(la::ConstMatrixView src, const Rows& src_rows, la::MatrixView dst,
               const Rows& dst_rows, const Rows& which) {
  const std::vector<index_t> from = positions(src_rows, which);
  const std::vector<index_t> to = positions(dst_rows, which);
  for (index_t j = 0; j < src.cols(); ++j) {
    const double* s = src.data() + j * src.ld();
    double* d = dst.data() + j * dst.ld();
    for (std::size_t k = 0; k < which.size(); ++k) d[to[k]] = s[from[k]];
  }
}

/// A received block of `rows.size()` packed rows, viewed in place.
la::ConstMatrixView packed(const std::vector<double>& buf, const Rows& rows, index_t cols) {
  const auto r = static_cast<index_t>(rows.size());
  return la::ConstMatrixView(buf.data(), r, cols, std::max<index_t>(1, r));
}

/// The global rows `which` of `src` (holding `src_rows`), packed in order
/// for sending.
std::vector<double> pack_rows(la::ConstMatrixView src, const Rows& src_rows, const Rows& which) {
  const auto r = static_cast<index_t>(which.size());
  std::vector<double> buf(static_cast<std::size_t>(r * src.cols()));
  copy_rows(src, src_rows, la::MatrixView(buf.data(), r, src.cols(), std::max<index_t>(1, r)),
            which, which);
  return buf;
}

/// Scatter an n x cols matrix from rcomm rank 0 into CyclicRows(n, cols, P, 0)
/// local blocks.
la::Matrix scatter_cyclic(backend::Comm& rcomm, const la::Matrix& full_on_root, index_t n,
                          index_t cols) {
  const int P = rcomm.size();
  mm::CyclicRows layout(n, cols, P, 0);
  std::vector<std::size_t> counts(static_cast<std::size_t>(P));
  for (int q = 0; q < P; ++q)
    counts[static_cast<std::size_t>(q)] = static_cast<std::size_t>(layout.local_count(q));
  std::vector<std::vector<double>> blocks;
  if (rcomm.rank() == 0) {
    blocks.resize(static_cast<std::size_t>(P));
    Rows all(static_cast<std::size_t>(n));
    for (index_t r = 0; r < n; ++r) all[static_cast<std::size_t>(r)] = r;
    for (int q = 0; q < P; ++q)
      blocks[static_cast<std::size_t>(q)] =
          pack_rows(full_on_root.view(), all, cyclic_rows(layout, q));
  }
  auto mine = coll::scatter(rcomm, 0, blocks, counts);
  return la::from_vector(layout.local_rows(rcomm.rank()), cols, mine);
}

/// Base case (Section 7.1): layout conversion + 1D-CAQR-EG + reversal.
/// Every row move goes through the plan's ascending row lists: a block's
/// rows are located by index, and copied one column at a time.
CyclicQr base_case(backend::Comm& comm, la::ConstMatrixView A_local, index_t m, index_t n, int shift,
                   index_t bstar) {
  const int P = comm.size();
  // Normalize the shift away: renumber ranks so the owner of row 0 becomes
  // relative rank 0; all layout math below is in relative ranks (r mod P).
  const int rr = ((comm.rank() - shift) % P + P) % P;
  backend::Comm rcomm = comm.split(0, rr);
  QR3D_ASSERT(rcomm.rank() == rr, "base_case: rank renumbering failed");

  const auto plan = detail::BaseConversionPlan::make(m, n, P);
  const mm::CyclicRows cyc(m, n, P, 0);  // layout w.r.t. relative ranks
  auto at = [](const std::vector<Rows>& lists, int g) -> const Rows& {
    return lists[static_cast<std::size_t>(g)];
  };

  // --- Phase 1: gather rows within each group to its representative. -------
  // With singleton groups (P* = P', which holds whenever m/n >= P) every
  // owner is its own representative and already holds its group's rows in
  // order, so the phase and its reversal vanish.
  const bool singleton = plan.Pstar == plan.Pprime;
  const bool owns_rows = rr < plan.Pprime;
  const int g = owns_rows ? rr % plan.Pstar : -1;
  const bool is_rep = owns_rows && rr == g;
  backend::Comm gcomm;
  std::vector<std::size_t> member_counts;
  if (!singleton) {
    gcomm = rcomm.split(g, rr);
    if (owns_rows) {
      member_counts.resize(static_cast<std::size_t>(gcomm.size()));
      for (int i = 0; i < gcomm.size(); ++i)
        member_counts[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(cyc.local_count(g + i * plan.Pstar));
    }
  }

  la::Matrix gathered_rows;
  la::ConstMatrixView grouped = A_local;  // the rep's rows, ordered by plan.group_rows[g]
  if (!singleton && owns_rows) {
    auto blocks = coll::gather(gcomm, 0, la::to_vector(A_local), member_counts);
    if (is_rep) {
      const Rows& rows_g = at(plan.group_rows, g);
      gathered_rows = la::Matrix(static_cast<index_t>(rows_g.size()), n);
      for (int i = 0; i < gcomm.size(); ++i) {
        const Rows member_rows = cyclic_rows(cyc, g + i * plan.Pstar);
        copy_rows(packed(blocks[static_cast<std::size_t>(i)], member_rows, n), member_rows,
                  gathered_rows.view(), rows_g, member_rows);
      }
      grouped = gathered_rows.view();
    }
  }

  // --- Phase 2: move the top n rows to rep 0, rebalancing with a scatter. --
  backend::Comm repcomm = rcomm.split(is_rep ? 0 : -1, rr);
  // Rep h sends its top rows and receives as many rebalancing rows.
  std::vector<std::size_t> moved_counts(static_cast<std::size_t>(plan.Pstar));
  for (int h = 0; h < plan.Pstar; ++h)
    moved_counts[static_cast<std::size_t>(h)] =
        at(plan.top_rows, h).size() * static_cast<std::size_t>(n);

  la::Matrix converted;  // rows ordered by plan.final_rows[g]
  if (is_rep) {
    const Rows& rows_g = at(plan.group_rows, g);
    const Rows& fin = at(plan.final_rows, g);
    auto gathered =
        coll::gather(repcomm, 0, pack_rows(grouped, rows_g, at(plan.top_rows, g)), moved_counts);
    std::vector<std::vector<double>> give_blocks;
    if (g == 0) {
      give_blocks.resize(static_cast<std::size_t>(plan.Pstar));
      for (int h = 1; h < plan.Pstar; ++h)
        give_blocks[static_cast<std::size_t>(h)] =
            pack_rows(grouped, rows_g, at(plan.given_rows, h));
    }
    auto received = coll::scatter(repcomm, 0, give_blocks, moved_counts);

    // Assemble from the rows kept through phase 2, plus (rep 0) every rep's
    // top rows or (rep > 0) the rebalancing rows.
    converted = la::Matrix(static_cast<index_t>(fin.size()), n);
    copy_rows(grouped, rows_g, converted.view(), fin, common_rows(rows_g, fin));
    if (g == 0) {
      for (int h = 1; h < plan.Pstar; ++h) {
        const Rows& tops = at(plan.top_rows, h);
        copy_rows(packed(gathered[static_cast<std::size_t>(h)], tops, n), tops, converted.view(),
                  fin, tops);
      }
    } else {
      const Rows& given = at(plan.given_rows, g);
      copy_rows(packed(received, given, n), given, converted.view(), fin, given);
    }
  }

  // --- Inner 1D-CAQR-EG over the representatives. ---------------------------
  DistributedQr r1d;
  if (is_rep) {
    CaqrEg1dOptions inner;
    inner.b = bstar;
    r1d = caqr_eg_1d(repcomm, converted.view(), inner);
  }

  // --- Reverse phase 2 for V. ----------------------------------------------
  la::Matrix v_grouped;  // V rows ordered by plan.group_rows[g]
  if (is_rep) {
    const Rows& rows_g = at(plan.group_rows, g);
    const Rows& fin = at(plan.final_rows, g);
    const la::ConstMatrixView V = r1d.V.view();
    std::vector<std::vector<double>> back_blocks;
    if (g == 0) {
      back_blocks.resize(static_cast<std::size_t>(plan.Pstar));
      for (int h = 1; h < plan.Pstar; ++h)
        back_blocks[static_cast<std::size_t>(h)] = pack_rows(V, fin, at(plan.top_rows, h));
    }
    auto top_back = coll::scatter(repcomm, 0, back_blocks, moved_counts);
    auto given_back =
        coll::gather(repcomm, 0, pack_rows(V, fin, at(plan.given_rows, g)), moved_counts);

    v_grouped = la::Matrix(static_cast<index_t>(rows_g.size()), n);
    copy_rows(V, fin, v_grouped.view(), rows_g, common_rows(rows_g, fin));
    if (g == 0) {
      for (int h = 1; h < plan.Pstar; ++h) {
        const Rows& given = at(plan.given_rows, h);
        copy_rows(packed(given_back[static_cast<std::size_t>(h)], given, n), given,
                  v_grouped.view(), rows_g, given);
      }
    } else {
      const Rows& tops = at(plan.top_rows, g);
      copy_rows(packed(top_back, tops, n), tops, v_grouped.view(), rows_g, tops);
    }
  }

  // --- Reverse phase 1: scatter V rows back to the group members. ----------
  CyclicQr out;
  if (singleton || !owns_rows) {
    out.V = is_rep ? std::move(v_grouped) : la::Matrix(0, n);
  } else {
    std::vector<std::vector<double>> blocks;
    if (is_rep) {
      blocks.resize(static_cast<std::size_t>(gcomm.size()));
      for (int i = 0; i < gcomm.size(); ++i)
        blocks[static_cast<std::size_t>(i)] = pack_rows(
            v_grouped.view(), at(plan.group_rows, g), cyclic_rows(cyc, g + i * plan.Pstar));
    }
    auto mine = coll::scatter(gcomm, 0, blocks, member_counts);
    out.V = la::from_vector(cyc.local_rows(rr), n, mine);
  }

  // --- T and R: scatter from rep 0 (= rcomm rank 0) to row-cyclic. ---------
  out.T = scatter_cyclic(rcomm, r1d.T, n, n);
  out.R = scatter_cyclic(rcomm, r1d.R, n, n);
  return out;
}

/// The qr-eg recursion (Section 7.2).  `shift` tracks how the current
/// submatrix's rows map to ranks: global row r lives on (r + shift) mod P.
CyclicQr recurse(backend::Comm& comm, const CaqrEg3dOptions& opts, la::ConstMatrixView A_local,
                 index_t m, index_t n, int shift, index_t b, index_t bstar) {
  const int P = comm.size();
  if (n <= b) {
    return base_case(comm, A_local, m, n, shift, bstar);
  }
  const int me = comm.rank();
  const index_t n1 = n / 2;
  const index_t n2 = n - n1;
  const index_t mp = A_local.rows();

  // Line 5: left recursion on the first n1 columns (same layout).
  CyclicQr left = recurse(comm, opts, A_local.left_cols(n1), m, n1, shift, b, bstar);

  const mm::CyclicRows lay_m_n1(m, n1, P, shift);
  const mm::CyclicRows lay_m_n2(m, n2, P, shift);
  const mm::CyclicRows lay_n1_n1(n1, n1, P, shift);
  const mm::CyclicRows lay_n1_n2(n1, n2, P, shift);
  const mm::CyclicCols lay_vlh(n1, m, P, shift);  // V_L^H

  // Line 6: M1 = V_L^H * [A12; A22]  (I = n1, J = n2, K = m).
  auto m1_buf = mm::mm_3d(comm, n1, n2, m, lay_vlh, la::to_vector_rowmajor(left.V.view()), lay_m_n2,
                          la::to_vector(A_local.right_cols(n2)), lay_n1_n2, opts.alltoall_alg);

  // Line 7: M2 = T_L^H * M1  (I = n1, J = n2, K = n1).
  const mm::CyclicCols lay_tlh(n1, n1, P, shift);
  auto m2_buf = mm::mm_3d(comm, n1, n2, n1, lay_tlh, la::to_vector_rowmajor(left.T.view()), lay_n1_n2, m1_buf,
                          lay_n1_n2, opts.alltoall_alg);

  // Line 8: [B12; B22] = [A12; A22] - V_L * M2  (I = m, J = n2, K = n1).
  auto vm2_buf = mm::mm_3d(comm, m, n2, n1, lay_m_n1, la::to_vector(left.V.view()), lay_n1_n2,
                           m2_buf, lay_m_n2, opts.alltoall_alg);
  la::Matrix B = mm::unpack_rows(lay_m_n2, me, vm2_buf);
  la::scale(-1.0, B.view());
  la::add(1.0, A_local.right_cols(n2), B.view());
  comm.charge_flops(la::flops::add(mp, n2));

  // Line 9: right recursion on B22 = B's rows n1..m, which is row-cyclic
  // with shift advanced by n1.
  const index_t rows_above = mm::CyclicRows(n1, 1, P, shift).local_rows(me);
  CyclicQr right = recurse(comm, opts,
                           la::ConstMatrixView(B.view()).block(rows_above, 0, mp - rows_above, n2),
                           m - n1, n2, shift + static_cast<int>(n1), b, bstar);

  // Line 10: V = [V_L, [0; V_R]] — purely local thanks to the shift match.
  CyclicQr out;
  out.V = la::Matrix(mp, n);
  la::assign<double>(out.V.block(0, 0, mp, n1), left.V.view());
  la::assign<double>(out.V.block(rows_above, n1, mp - rows_above, n2), right.V.view());

  // Line 11: M3 = V_L^H [0; V_R] = (V_L's rows >= n1)^H * V_R
  // (I = n1, J = n2, K = m - n1), all under shift + n1.
  const mm::CyclicCols lay_vlbh(n1, m - n1, P, shift + static_cast<int>(n1));
  const mm::CyclicRows lay_vr(m - n1, n2, P, shift + static_cast<int>(n1));
  auto m3_buf = mm::mm_3d(
      comm, n1, n2, m - n1, lay_vlbh,
      la::to_vector_rowmajor(la::ConstMatrixView(left.V.view()).block(rows_above, 0, mp - rows_above, n1)),
      lay_vr, la::to_vector(right.V.view()), lay_n1_n2, opts.alltoall_alg);

  // Line 12: M4 = M3 * T_R  (I = n1, J = n2, K = n2).
  const mm::CyclicRows lay_tr(n2, n2, P, shift + static_cast<int>(n1));
  auto m4_buf = mm::mm_3d(comm, n1, n2, n2, lay_n1_n2, m3_buf, lay_tr,
                          la::to_vector(right.T.view()), lay_n1_n2, opts.alltoall_alg);

  // Line 13: T12 = -T_L * M4  (I = n1, J = n2, K = n1).
  auto t12_buf = mm::mm_3d(comm, n1, n2, n1, lay_n1_n1, la::to_vector(left.T.view()), lay_n1_n2,
                           m4_buf, lay_n1_n2, opts.alltoall_alg);

  // Assemble T = [[T_L, -T_L M4], [0, T_R]] and R = [[R_L, B12], [0, R_R]]
  // locally: rows < n1 of T/R live where T_L/R_L rows live; rows >= n1 where
  // T_R/R_R rows live (the shifts line up by construction).
  const mm::CyclicRows lay_t(n, n, P, shift);
  const index_t t_rows = lay_t.local_rows(me);
  const index_t t_above = mm::CyclicRows(n1, 1, P, shift).local_rows(me);
  la::Matrix T12 = mm::unpack_rows(lay_n1_n2, me, t12_buf);
  la::scale(-1.0, T12.view());

  out.T = la::Matrix(t_rows, n);
  la::assign<double>(out.T.block(0, 0, t_above, n1), left.T.view());
  la::assign<double>(out.T.block(0, n1, t_above, n2), la::ConstMatrixView(T12.view()));
  la::assign<double>(out.T.block(t_above, n1, t_rows - t_above, n2), right.T.view());

  out.R = la::Matrix(t_rows, n);
  la::assign<double>(out.R.block(0, 0, t_above, n1), left.R.view());
  la::assign<double>(out.R.block(0, n1, t_above, n2),
                     la::ConstMatrixView(B.view()).top_rows(t_above));
  la::assign<double>(out.R.block(t_above, n1, t_rows - t_above, n2), right.R.view());
  return out;
}

}  // namespace

CyclicQr caqr_eg_3d(backend::Comm& comm, la::ConstMatrixView A_local, index_t m, index_t n,
                    CaqrEg3dOptions opts) {
  const int P = comm.size();
  QR3D_CHECK(m >= n && n >= 1, "caqr_eg_3d: need m >= n >= 1");
  QR3D_CHECK(A_local.cols() == n, "caqr_eg_3d: local column count");
  QR3D_CHECK(A_local.rows() == mm::CyclicRows(m, n, P, 0).local_rows(comm.rank()),
             "caqr_eg_3d: local row count must match the row-cyclic layout");

  const index_t b = opts.b > 0 ? std::min(opts.b, n) : block_size_3d(m, n, P, opts.delta);
  const index_t bstar =
      opts.b_star > 0 ? std::min(opts.b_star, b) : base_block_size_3d(b, P, opts.epsilon);
  return recurse(comm, opts, A_local, m, n, /*shift=*/0, b, bstar);
}

}  // namespace qr3d::core
