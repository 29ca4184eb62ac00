// Data distributions (layouts) of dense matrices over P ranks.
//
// A Layout is a pure function from a global element (i, j) to its owner,
// together with an enumeration of each rank's elements in the *canonical
// global order* (column-major: sorted by (j, i)).  Distributed matrices are
// carried as flat local buffers in exactly that enumeration order, so two
// ranks can redistribute data without shipping indices: the k-th element rank
// p sends to rank q under (from, to) is the k-th element rank q expects from
// p — both sides enumerate the same canonical order (mm/redistribute.hpp).
//
// Layouts implemented here:
//   * CyclicRows    — row-cyclic with a shift: owner(i, .) = (i+shift) mod P.
//                     The input/output layout of 3D-CAQR-EG (Section 7); the
//                     shift arises in its right recursion (rows n1..m of a
//                     shift-s cyclic matrix are shift-(s+n1) cyclic).
//   * CyclicCols    — column-cyclic; represents the "row-cyclic, transposed"
//                     left factors of Section 7.2's dmm calls.
//   * BlockRows     — contiguous row blocks [starts[p], starts[p+1]).
//   * Dmm{A,B,C}    — the 3D-mm distribution of Lemma 4 / Appendix B.1: the
//                     (q, s) block of A is partitioned entrywise across the
//                     R-fiber, etc.
//   * Replicated0   — whole matrix on one designated rank.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "la/matrix.hpp"

namespace qr3d::mm {

using la::index_t;

/// Balanced partition of [0, n) into `parts` consecutive ranges whose sizes
/// differ by at most one (larger parts first).
struct BalancedPartition {
  index_t n = 0;
  int parts = 1;

  index_t start(int p) const {
    const index_t base = n / parts;
    const index_t rem = n % parts;
    return p * base + std::min<index_t>(p, rem);
  }
  index_t size(int p) const { return start(p + 1) - start(p); }
  int part_of(index_t i) const {
    const index_t base = n / parts;
    const index_t rem = n % parts;
    const index_t big = rem * (base + 1);
    if (base == 0) return static_cast<int>(i);  // parts > n: one element each
    return i < big ? static_cast<int>(i / (base + 1))
                   : static_cast<int>(rem + (i - big) / base);
  }
};

class Layout {
 public:
  using Visitor = std::function<void(index_t i, index_t j)>;

  Layout(index_t rows, index_t cols, int P) : rows_(rows), cols_(cols), P_(P) {}
  virtual ~Layout() = default;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  int ranks() const { return P_; }

  /// Owner rank of global element (i, j).
  virtual int owner(index_t i, index_t j) const = 0;

  /// Visit rank's elements in canonical global (column-major) order.
  virtual void for_each_local(int rank, const Visitor& visit) const = 0;

  /// Number of elements rank owns.
  virtual index_t local_count(int rank) const {
    index_t n = 0;
    for_each_local(rank, [&](index_t, index_t) { ++n; });
    return n;
  }

 protected:
  index_t rows_;
  index_t cols_;
  int P_;
};

/// Row-cyclic with shift: row i lives on rank (i + shift) mod P.
class CyclicRows final : public Layout {
 public:
  CyclicRows(index_t rows, index_t cols, int P, int shift = 0)
      : Layout(rows, cols, P), shift_(((shift % P) + P) % P) {}

  int shift() const { return shift_; }

  int owner(index_t i, index_t) const override {
    return static_cast<int>((i + shift_) % P_);
  }
  void for_each_local(int rank, const Visitor& visit) const override {
    const index_t first = first_row(rank);
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = first; i < rows_; i += P_) visit(i, j);
  }
  index_t local_count(int rank) const override { return local_rows(rank) * cols_; }

  /// Smallest global row on `rank` (>= rows() when rank owns none).
  index_t first_row(int rank) const { return ((rank - shift_) % P_ + P_) % P_; }
  index_t local_rows(int rank) const {
    const index_t first = first_row(rank);
    return first >= rows_ ? 0 : (rows_ - first - 1) / P_ + 1;
  }
  index_t global_row(int rank, index_t local) const { return first_row(rank) + local * P_; }

 private:
  int shift_;
};

/// Column-cyclic with shift: column j lives on rank (j + shift) mod P.  Used
/// for left factors stored row-cyclically and multiplied as their conjugate
/// transpose (the caller materializes the conjugated local buffer).
class CyclicCols final : public Layout {
 public:
  CyclicCols(index_t rows, index_t cols, int P, int shift = 0)
      : Layout(rows, cols, P), shift_(((shift % P) + P) % P) {}

  int owner(index_t, index_t j) const override {
    return static_cast<int>((j + shift_) % P_);
  }
  void for_each_local(int rank, const Visitor& visit) const override {
    for (index_t j = first_col(rank); j < cols_; j += P_)
      for (index_t i = 0; i < rows_; ++i) visit(i, j);
  }
  index_t local_count(int rank) const override { return local_cols(rank) * rows_; }

  index_t first_col(int rank) const { return ((rank - shift_) % P_ + P_) % P_; }
  index_t local_cols(int rank) const {
    const index_t first = first_col(rank);
    return first >= cols_ ? 0 : (cols_ - first - 1) / P_ + 1;
  }

 private:
  int shift_;
};

/// Contiguous row blocks: rank p owns rows [starts[p], starts[p+1]).
class BlockRows final : public Layout {
 public:
  BlockRows(index_t cols, std::vector<index_t> starts)
      : Layout(starts.empty() ? 0 : starts.back(), cols,
               static_cast<int>(starts.size()) - 1),
        starts_(std::move(starts)) {
    QR3D_CHECK(starts_.size() >= 2, "BlockRows: need P+1 starts");
    for (std::size_t p = 0; p + 1 < starts_.size(); ++p)
      QR3D_CHECK(starts_[p] <= starts_[p + 1], "BlockRows: starts must be nondecreasing");
  }

  /// Balanced m rows over P ranks (larger blocks first).
  static BlockRows balanced(index_t m, index_t cols, int P) {
    BalancedPartition part{m, P};
    std::vector<index_t> starts(static_cast<std::size_t>(P) + 1);
    for (int p = 0; p <= P; ++p) starts[static_cast<std::size_t>(p)] = part.start(p);
    return BlockRows(cols, std::move(starts));
  }

  int owner(index_t i, index_t) const override {
    int lo = 0, hi = P_;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (i >= starts_[static_cast<std::size_t>(mid)]) lo = mid; else hi = mid;
    }
    return lo;
  }
  void for_each_local(int rank, const Visitor& visit) const override {
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = row_start(rank); i < row_end(rank); ++i) visit(i, j);
  }
  index_t local_count(int rank) const override {
    return (row_end(rank) - row_start(rank)) * cols_;
  }

  index_t row_start(int rank) const { return starts_[static_cast<std::size_t>(rank)]; }
  index_t row_end(int rank) const { return starts_[static_cast<std::size_t>(rank) + 1]; }

 private:
  std::vector<index_t> starts_;
};

/// Entire matrix on a single rank.
class Replicated0 final : public Layout {
 public:
  Replicated0(index_t rows, index_t cols, int P, int home) : Layout(rows, cols, P), home_(home) {}

  int owner(index_t, index_t) const override { return home_; }
  void for_each_local(int rank, const Visitor& visit) const override {
    if (rank != home_) return;
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = 0; i < rows_; ++i) visit(i, j);
  }
  index_t local_count(int rank) const override { return rank == home_ ? rows_ * cols_ : 0; }

 private:
  int home_;
};

/// 3D processor grid of Lemma 4.  Grid coordinate (q, r, s) maps to world
/// rank q + Q*(r + R*s); ranks >= Q*R*S are idle.
struct Grid3 {
  int Q = 1, R = 1, S = 1;

  int size() const { return Q * R * S; }
  int rank_of(int q, int r, int s) const { return q + Q * (r + R * s); }
  int q_of(int rank) const { return rank % Q; }
  int r_of(int rank) const { return (rank / Q) % R; }
  int s_of(int rank) const { return rank / (Q * R); }

  /// Choose a grid for multiplying (I x K) by (K x J) on P ranks following
  /// Lemma 4: aim for Q ~ I/rho, R ~ J/rho, S ~ K/rho with
  /// rho = (IJK/P)^(1/3), i.e. near-cubical sub-bricks.  Implemented by
  /// assigning P's prime factors greedily to the dimension with the largest
  /// per-processor extent; degenerates to 2D/1D grids when a dimension is
  /// small, with leftover ranks idle.
  static Grid3 choose(index_t I, index_t J, index_t K, int P);
};

/// Which operand of C = A*B a Dmm layout distributes.
enum class DmmOperand { A, B, C };

/// The Lemma 4 / Appendix B.1 distribution: for A, block (q, s) = A(Iq, Ks)
/// is flattened in canonical order and split R ways (balanced) across the
/// processors (q, ., s); symmetrically for B (split Q ways across (., r, s))
/// and C (split S ways across (q, r, .)).
class DmmLayout final : public Layout {
 public:
  DmmLayout(DmmOperand op, index_t I, index_t J, index_t K, Grid3 g, int P);

  int owner(index_t i, index_t j) const override;
  void for_each_local(int rank, const Visitor& visit) const override;
  index_t local_count(int rank) const override;

  const Grid3& grid() const { return grid_; }

 private:
  // Partitions along the element-row and element-column dimensions of the
  // stored matrix (A: I x K, B: K x J, C: I x J), the fiber the flattened
  // block is split across, and that fiber's length.
  DmmOperand op_;
  Grid3 grid_;
  BalancedPartition row_part_;
  BalancedPartition col_part_;
  int split_ways_;

  // Decompose a rank into (row-block, col-block, chunk) coordinates.
  bool decode(int rank, int& rb, int& cb, int& chunk) const;
};

}  // namespace qr3d::mm
