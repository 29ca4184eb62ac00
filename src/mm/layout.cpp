#include "mm/layout.hpp"

#include <algorithm>
#include <cmath>

namespace qr3d::mm {

Grid3 Grid3::choose(index_t I, index_t J, index_t K, int P) {
  QR3D_CHECK(I >= 1 && J >= 1 && K >= 1 && P >= 1, "Grid3: bad dimensions");
  Grid3 g;
  // Prime factors of P, largest first so big factors land on big extents.
  std::vector<int> factors;
  int rest = P;
  for (int f = 2; f * f <= rest; ++f)
    while (rest % f == 0) {
      factors.push_back(f);
      rest /= f;
    }
  if (rest > 1) factors.push_back(rest);
  std::sort(factors.rbegin(), factors.rend());

  for (int f : factors) {
    // Per-processor extents if factor f were applied to each dimension.
    const double eq = static_cast<double>(I) / g.Q;
    const double er = static_cast<double>(J) / g.R;
    const double es = static_cast<double>(K) / g.S;
    // Apply to the largest extent still divisible without dropping below 1
    // element per processor along that dimension.
    struct Cand {
      double extent;
      int* dim;
      index_t limit;
    } cands[] = {{eq, &g.Q, I}, {er, &g.R, J}, {es, &g.S, K}};
    std::sort(std::begin(cands), std::end(cands),
              [](const Cand& a, const Cand& b) { return a.extent > b.extent; });
    for (auto& c : cands) {
      if (static_cast<index_t>(*c.dim) * f <= c.limit) {
        *c.dim *= f;
        break;
      }
    }
    // If no dimension can absorb f, the remaining ranks stay idle.
  }
  return g;
}

DmmLayout::DmmLayout(DmmOperand op, index_t I, index_t J, index_t K, Grid3 g, int P)
    : Layout(op == DmmOperand::A ? I : (op == DmmOperand::B ? K : I),
             op == DmmOperand::A ? K : J, P),
      op_(op), grid_(g) {
  QR3D_CHECK(g.size() <= P, "DmmLayout: grid larger than communicator");
  switch (op) {
    case DmmOperand::A:  // I x K blocks (q, s), split across R
      row_part_ = {I, g.Q};
      col_part_ = {K, g.S};
      split_ways_ = g.R;
      break;
    case DmmOperand::B:  // K x J blocks (s, r), split across Q
      row_part_ = {K, g.S};
      col_part_ = {J, g.R};
      split_ways_ = g.Q;
      break;
    case DmmOperand::C:  // I x J blocks (q, r), split across S
      row_part_ = {I, g.Q};
      col_part_ = {J, g.R};
      split_ways_ = g.S;
      break;
  }
}

bool DmmLayout::decode(int rank, int& rb, int& cb, int& chunk) const {
  if (rank >= grid_.size()) return false;  // idle rank
  const int q = grid_.q_of(rank);
  const int r = grid_.r_of(rank);
  const int s = grid_.s_of(rank);
  switch (op_) {
    case DmmOperand::A: rb = q; cb = s; chunk = r; break;
    case DmmOperand::B: rb = s; cb = r; chunk = q; break;
    case DmmOperand::C: rb = q; cb = r; chunk = s; break;
  }
  return true;
}

int DmmLayout::owner(index_t i, index_t j) const {
  const int rb = row_part_.part_of(i);
  const int cb = col_part_.part_of(j);
  // Position of (i, j) within its block, flattened in canonical order
  // (column-major within the block), then split `split_ways_` ways.
  const index_t bi = i - row_part_.start(rb);
  const index_t bj = j - col_part_.start(cb);
  const index_t pos = bj * row_part_.size(rb) + bi;
  BalancedPartition split{row_part_.size(rb) * col_part_.size(cb), split_ways_};
  const int chunk = split.part_of(pos);
  switch (op_) {
    case DmmOperand::A: return grid_.rank_of(rb, chunk, cb);
    case DmmOperand::B: return grid_.rank_of(chunk, cb, rb);
    case DmmOperand::C: return grid_.rank_of(rb, cb, chunk);
  }
  return -1;
}

void DmmLayout::for_each_local(int rank, const Visitor& visit) const {
  int rb = 0, cb = 0, chunk = 0;
  if (!decode(rank, rb, cb, chunk)) return;
  const index_t nrows = row_part_.size(rb);
  const index_t i0 = row_part_.start(rb);
  const index_t j0 = col_part_.start(cb);
  BalancedPartition split{nrows * col_part_.size(cb), split_ways_};
  const index_t lo = split.start(chunk);
  const index_t hi = split.start(chunk + 1);
  for (index_t pos = lo; pos < hi; ++pos) {
    visit(i0 + pos % nrows, j0 + pos / nrows);
  }
}

index_t DmmLayout::local_count(int rank) const {
  int rb = 0, cb = 0, chunk = 0;
  if (!decode(rank, rb, cb, chunk)) return 0;
  BalancedPartition split{row_part_.size(rb) * col_part_.size(cb), split_ways_};
  return split.size(chunk);
}

}  // namespace qr3d::mm
