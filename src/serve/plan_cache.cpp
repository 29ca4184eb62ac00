#include "serve/plan_cache.hpp"

#include "core/cholesky_qr2.hpp"
#include "core/solver.hpp"
#include "cost/model.hpp"

namespace qr3d::serve {

void PlanCache::touch(std::map<PlanKey, Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru);
}

void PlanCache::enforce_capacity() {
  if (capacity_ == 0) return;  // unbounded
  while (plans_.size() > capacity_) {
    plans_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

Plan PlanCache::lookup_or_compute(const PlanKey& key, const std::function<Plan()>& compute) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++hits_;
    touch(it);
    return it->second.plan;
  }
  // Computing inside the lock keeps "tune each key exactly once" true under
  // concurrent lookups; tuning is a pure model computation (no simulated
  // cost is charged), so holding the mutex is harmless.
  Plan plan = compute();
  lru_.push_front(key);
  plans_.emplace(key, Entry{plan, lru_.begin()});
  ++misses_;
  enforce_capacity();
  return plan;
}

bool PlanCache::contains(const PlanKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.find(key) != plans_.end();
}

std::uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

std::size_t PlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void PlanCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  enforce_capacity();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

namespace {

/// The recursion parameters a plan for `qr` starts from: its fields through
/// the Section 1 dispatch.  The only reader of qr's recursion fields, so
/// the plan key and the resolver see the same request.
core::CaqrEg3dOptions requested_params(la::index_t m, la::index_t n, int P, const QrOptions& qr) {
  core::CaqrEg3dOptions params;
  params.delta = qr.delta();
  params.epsilon = qr.epsilon();
  return core::resolve_algorithm(m, n, P, qr.algorithm(), params);
}

}  // namespace

PlanKey make_plan_key(la::index_t m, la::index_t n, int P, const QrOptions& qr,
                      backend::Kind backend, const sim::CostParams& machine,
                      core::Accuracy accuracy) {
  PlanKey key;
  key.m = m;
  key.n = n;
  key.P = P;
  key.backend = backend;
  key.alpha = machine.alpha;
  key.beta = machine.beta;
  key.gamma = machine.gamma;
  key.accuracy = accuracy;
  const core::CaqrEg3dOptions params = requested_params(m, n, P, qr);
  key.b = params.b;
  key.delta = params.delta;
  key.epsilon = params.epsilon;
  key.tune = qr.tune_for_machine();
  // The tuner replaces epsilon (and, for the full recursion, delta), so
  // tuned requests differing only there resolve to one plan.
  if (key.tune && P > 1) {
    key.epsilon = 0.0;
    if (params.b == 0) key.delta = 0.0;
  }
  return key;
}

Plan resolve_shape_plan(la::index_t m, la::index_t n, int P, const QrOptions& qr,
                        PlanCache& cache, backend::Kind kind, const sim::CostParams& machine,
                        core::Accuracy accuracy, double float_flop_scale) {
  const PlanKey key = make_plan_key(m, n, P, qr, kind, machine, accuracy);
  return cache.lookup_or_compute(key, [&]() {
    const core::CaqrEg3dOptions params = requested_params(m, n, P, qr);
    Plan plan;
    plan.delta = params.delta;
    plan.epsilon = params.epsilon;
    plan.b = params.b;
    const double md = static_cast<double>(m), nd = static_cast<double>(n);
    if (P <= 1) {
      // Single-rank group: a local serial QR, no communication to tune.
      plan.predicted = cost::Costs{2.0 * md * nd * nd, 0.0, 0.0};
    } else if (params.b == 0) {
      // Full 3D recursion: grid-search (delta, epsilon) when tuning, else
      // predict at the resolved defaults.
      if (qr.tune_for_machine()) {
        const cost::Tuned3d t = cost::tune_3d(md, nd, P, machine);
        plan.delta = t.delta;
        plan.epsilon = t.epsilon;
        plan.predicted = t.predicted;
      } else {
        plan.predicted = cost::caqr_eg_3d(md, nd, P, plan.delta, plan.epsilon);
      }
    } else {
      // Tall-skinny dispatch (immediate conversion + 1D-CAQR-EG): delta is
      // moot but Theorem 2's epsilon still trades words against messages.
      if (qr.tune_for_machine()) {
        const cost::Tuned1d t = cost::tune_1d(md, nd, P, machine);
        plan.epsilon = t.epsilon;
        plan.predicted = t.predicted;
      } else {
        plan.predicted = cost::caqr_eg_1d(md, nd, P, plan.epsilon);
      }
    }
    // Accuracy-contract dispatch: fast/balanced jobs take the CholeskyQR2
    // fast path when the model says it wins at this shape under the key's
    // machine parameters (tall-skinny shapes — squarish ones, and P = 1
    // where the local serial QR is cheaper, lose the comparison and stay on
    // Householder).  The Householder fields above are NOT cleared: they are
    // the fallback plan the session retries with when the condition guard
    // trips or the Gram goes non-SPD.
    if (accuracy != core::Accuracy::Accurate && m >= n) {
      cost::Costs cq = cost::cholesky_qr2(md, nd, P);
      const bool use_float = accuracy == core::Accuracy::Fast;
      if (use_float && float_flop_scale < 1.0) {
        // Float first pass: its local work (gram + Cholesky + solve) runs at
        // the float rate.  Expressed as "effective double flops" so
        // Costs::time under the double-calibrated gamma stays comparable.
        const double pass1 = 3.0 * md * nd * nd / P + nd * nd * nd / 3.0;
        cq.flops -= pass1 * (1.0 - float_flop_scale);
      }
      if (cq.time(machine) < plan.predicted.time(machine)) {
        plan.algorithm = PlanAlgorithm::CholeskyQr2;
        plan.use_float = use_float;
        plan.max_condition =
            use_float ? core::kFastMaxCondition : core::kBalancedMaxCondition;
        plan.predicted = cq;
      }
    }
    return plan;
  });
}

}  // namespace qr3d::serve
