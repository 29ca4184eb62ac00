#include "cost/model.hpp"

#include <algorithm>
#include <cmath>

namespace qr3d::cost {

double lg(int P) {
  int l = 0;
  while ((1 << l) < P) ++l;
  return std::max(1, l);
}

namespace {

double ratio(double m, double n, int P) { return std::max(1.0, n * P / m); }

}  // namespace

// --- Table 1. ----------------------------------------------------------------

Costs scatter(double B, int P) { return {0.0, (P - 1.0) * B, lg(P)}; }
Costs gather(double B, int P) { return {0.0, (P - 1.0) * B, lg(P)}; }
Costs broadcast(double B, int P) {
  return {0.0, std::min(B * lg(P), B + P), lg(P)};
}
Costs reduce(double B, int P) {
  const double w = std::min(B * lg(P), B + P);
  return {w, w, lg(P)};
}
Costs all_gather(double B, int P) { return {0.0, (P - 1.0) * B, lg(P)}; }
Costs all_reduce(double B, int P) {
  const double w = std::min(B * lg(P), B + P);
  return {w, w, lg(P)};
}
Costs reduce_scatter(double B, int P) {
  return {(P - 1.0) * B, (P - 1.0) * B, lg(P)};
}
Costs all_to_all(double B, double Bstar, int P) {
  return {0.0, std::min(B * P * lg(P), (Bstar + static_cast<double>(P) * P) * lg(P)), lg(P)};
}

// --- Matrix multiplication. ----------------------------------------------------

Costs mm_1d(double I, double J, double K, int P) {
  // Lemma 3: local work + one reduce/broadcast of the two smaller dims.
  const double maxdim = std::max({I, J, K});
  return {2.0 * I * J * K / P, I * J * K / maxdim, lg(P)};
}

Costs mm_3d(double I, double J, double K, int P) {
  // Lemma 4.
  return {2.0 * I * J * K / P, std::pow(I * J * K / P, 2.0 / 3.0), lg(P)};
}

// --- QR algorithms. ------------------------------------------------------------

Costs tsqr(double m, double n, int P) {
  const double L = lg(P);
  return {2.0 * m * n * n / P + n * n * n * L, n * n * L, L};
}

Costs cholesky_qr2(double m, double n, int P) {
  const Costs ar = all_reduce(n * (n + 1.0) / 2.0, P);
  // Two passes of gram gemm (2mn^2/P) + all-reduce + Cholesky (n^3/3) +
  // trsm (mn^2/P), then the replicated R2*R1 trmm (n^3).
  return {2.0 * (3.0 * m * n * n / P + n * n * n / 3.0 + ar.flops) + n * n * n,
          2.0 * ar.words, 2.0 * ar.msgs};
}

Costs caqr_eg_1d_b(double m, double n, int P, double b) {
  // Eq. (11).
  const double L = lg(P);
  return {2.0 * m * n * n / P + n * b * b * L, n * n + n * b * L, (n / b) * L};
}

Costs caqr_eg_1d(double m, double n, int P, double epsilon) {
  const double b = std::max(1.0, n / std::pow(lg(P), epsilon));
  return caqr_eg_1d_b(m, n, P, b);
}

Costs caqr_eg_3d_b(double m, double n, int P, double b, double bstar) {
  // Eq. (13).
  const double L = lg(P);
  Costs c;
  c.flops = 2.0 * m * n * n / P + n * bstar * bstar * L;
  const double levels = std::max(1.0, std::log2(std::max(2.0, n / b)));
  c.words = m * n / P + n * b + n * bstar * L + std::pow(m * n * n / P, 2.0 / 3.0) +
            ((m * n / P + n) * levels + n * static_cast<double>(P) * P / b) * L;
  c.msgs = (n / bstar) * L;
  return c;
}

Costs caqr_eg_3d(double m, double n, int P, double delta, double epsilon) {
  const double b = std::max(1.0, n / std::pow(ratio(m, n, P), delta));
  const double bstar = std::max(1.0, b / std::pow(lg(P), epsilon));
  return caqr_eg_3d_b(m, n, P, b, bstar);
}

// --- Table rows. ----------------------------------------------------------------

Costs table2_house_2d(double m, double n, int P) {
  return {2.0 * m * n * n / P, n * n / std::sqrt(ratio(m, n, P)), n * lg(P)};
}

Costs table2_caqr(double m, double n, int P) {
  const double r = std::sqrt(ratio(m, n, P));
  return {2.0 * m * n * n / P, n * n / r, r * lg(P) * lg(P)};
}

Costs table2_caqr_eg_3d(double m, double n, int P, double delta) {
  const double r = std::pow(ratio(m, n, P), delta);
  return {2.0 * m * n * n / P, n * n / r, r * lg(P) * lg(P)};
}

Costs table3_house_1d(double m, double n, int P) {
  const double L = lg(P);
  return {2.0 * m * n * n / P, n * n * L, n * L};
}

Costs table3_tsqr(double m, double n, int P) { return tsqr(m, n, P); }

Costs table3_caqr_eg_1d(double m, double n, int P, double epsilon) {
  const double L = lg(P);
  return {2.0 * m * n * n / P + n * n * n * std::pow(L, 1.0 - 2.0 * epsilon),
          n * n * std::pow(L, 1.0 - epsilon), std::pow(L, 1.0 + epsilon)};
}

// --- Lower bounds. ----------------------------------------------------------------

Costs lower_bound_tall_skinny(double m, double n, int P) {
  return {2.0 * m * n * n / P, n * n, lg(P)};
}

Costs lower_bound_squareish(double m, double n, int P) {
  const double r = ratio(m, n, P);
  return {2.0 * m * n * n / P, n * n / std::pow(r, 2.0 / 3.0), std::sqrt(r)};
}

}  // namespace qr3d::cost
