// Per-shape plan cache and the plan resolver for the serving layer and
// qr3d::Solver.
//
// resolve_shape_plan is the single place that turns (shape, P, QrOptions,
// machine parameters, accuracy contract) into an execution Plan: the
// Section 1 aspect-ratio dispatch (core::resolve_algorithm), (delta,
// epsilon) tuning over the closed-form cost model (cost/tuner.hpp: the 3D
// grid search, or Theorem 2's epsilon alone for tall-skinny shapes), and the
// CholeskyQR2 dispatch of the fast/balanced contracts.  Tuning is cheap next
// to one factorization but not next to *thousands*: a serving process
// seeing the same shapes over and over should tune each shape exactly once.
//
// PlanCache memoizes resolved plans keyed by (m, n, P, backend, machine
// parameters, accuracy contract, the recursion parameters the options
// request); the machine parameters are part of the key so a re-profiled
// machine (serve::profile_machine) transparently re-tunes instead of
// serving stale plans.  Inputs are always factored row-cyclically, so the
// input layout is not part of the key.  It is shared
// infrastructure: qr3d::Solver::factor resolves its (accurate-contract)
// plans through one (each Solver owns a private cache unless given a shared
// one), and serve::BatchSolver shares a single cache between its
// driver-side plan resolution and its internal Solver.
//
// Capacity: a long-running service sees an unbounded stream of distinct
// keys (every new shape, group size, or re-profiled machine parameter set
// is one), so memoizing forever is a slow memory leak.  The cache is LRU-
// bounded: every lookup freshens its key, and a miss past `capacity()`
// evicts the least-recently-used plan (counted in `evictions()`).  An
// evicted key simply re-resolves on its next lookup — a re-miss, never an
// error.  The default capacity is generous (kDefaultCapacity plans of a few
// hundred bytes each); 0 means unbounded.
//
// Thread safety: all methods are safe to call concurrently (one mutex); a
// miss runs the resolver inside the lock so concurrent lookups of the same
// key tune exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <tuple>

#include "backend/comm.hpp"
#include "core/api.hpp"
#include "cost/tuner.hpp"
#include "la/matrix.hpp"

namespace qr3d {
class QrOptions;
}  // namespace qr3d

namespace qr3d::serve {

/// Cache key: problem shape + executing backend + machine parameters +
/// accuracy contract (fast and accurate jobs of the same shape resolve to
/// different algorithms, so they must not share a cache line) + the
/// recursion parameters the options request after the Section 1 dispatch
/// (callers with different options sharing one cache each get their own
/// plan).  With tuning, the parameters the tuner chooses are zeroed.
struct PlanKey {
  la::index_t m = 0;  ///< problem rows
  la::index_t n = 0;  ///< problem columns
  int P = 0;          ///< ranks of the (sub-)communicator the plan targets
  backend::Kind backend = backend::Kind::Simulated;  ///< executing backend
  double alpha = 0.0;  ///< machine seconds per message
  double beta = 0.0;   ///< machine seconds per word
  double gamma = 0.0;  ///< machine seconds per flop
  core::Accuracy accuracy = core::Accuracy::Balanced;  ///< accuracy/speed contract
  la::index_t b = 0;     ///< 0: 3D recursion; n: base case
  double delta = 0.0;    ///< requested delta (0 when the tuner picks it)
  double epsilon = 0.0;  ///< requested epsilon (0 when the tuner picks it)
  bool tune = false;     ///< QrOptions::tune_for_machine()

  /// Lexicographic order over every field (std::map key requirement).
  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    auto tie = [](const PlanKey& k) {
      return std::tuple(k.m, k.n, k.P, static_cast<int>(k.backend), k.alpha, k.beta, k.gamma,
                        static_cast<int>(k.accuracy), k.b, k.delta, k.epsilon,
                        k.tune);
    };
    return tie(a) < tie(b);
  }
};

/// Which algorithm a resolved plan executes.
enum class PlanAlgorithm {
  Householder,  ///< TSQR / 1D / 3D-CAQR-EG via Solver::factor
  CholeskyQr2,  ///< the gemm-dominant fast path (core/cholesky_qr2.hpp)
};

/// A tuned execution plan: the recursion parameters Solver::factor needs,
/// plus the model-predicted costs the tuner chose them by.  For CholeskyQR2
/// plans the recursion parameters are unused; `use_float` selects the mixed-
/// precision first pass and the Householder fields double as the fallback
/// plan when the condition guard trips in-session.
struct Plan {
  double delta = 2.0 / 3.0;  ///< Theorem 1 bandwidth/latency tradeoff
  double epsilon = 1.0;      ///< Theorem 2 base-case tradeoff
  la::index_t b = 0;      ///< 0: 3D recursion (b from delta); n: base case
  cost::Costs predicted;  ///< model costs under the key's machine parameters
  PlanAlgorithm algorithm = PlanAlgorithm::Householder;  ///< dispatch choice
  bool use_float = false;  ///< CholeskyQR2 only: float first pass (fast mode)
  /// CholeskyQR2 only: the condition guard the session enforces
  /// (core::kFastMaxCondition / kBalancedMaxCondition; 0 = no guard).
  double max_condition = 0.0;
};

class PlanCache {
 public:
  /// Default LRU capacity: generous for any realistic shape mix, bounded
  /// for a service that never restarts.
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// `capacity` = maximum cached plans before LRU eviction (0 = unbounded).
  explicit PlanCache(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  /// The cached plan for `key`, or `compute()` stored and returned on a
  /// miss.  In the library only resolve_shape_plan calls it.
  Plan lookup_or_compute(const PlanKey& key, const std::function<Plan()>& compute);

  /// True if `key` is cached; does not resolve and does not touch the
  /// counters.
  bool contains(const PlanKey& key) const;

  /// Lookups served from the cache so far.
  std::uint64_t hits() const;
  /// Lookups that had to resolve the plan so far.
  std::uint64_t misses() const;
  /// Plans dropped by LRU eviction so far.
  std::uint64_t evictions() const;
  /// Number of cached plans (<= capacity() when bounded).
  std::size_t size() const;
  /// Maximum cached plans before eviction (0 = unbounded).
  std::size_t capacity() const;
  /// Change the capacity; shrinking evicts (and counts) LRU plans at once.
  void set_capacity(std::size_t capacity);
  /// Drop every plan and zero the counters (evictions included).
  void clear();

 private:
  /// Entry: the plan plus its position in the recency list.
  struct Entry {
    Plan plan;
    std::list<PlanKey>::iterator lru;
  };

  /// Move `it`'s key to the most-recent end; requires mu_ held.
  void touch(std::map<PlanKey, Entry>::iterator it);
  /// Evict LRU plans until size() <= capacity_; requires mu_ held.
  void enforce_capacity();

  mutable std::mutex mu_;
  std::map<PlanKey, Entry> plans_;
  std::list<PlanKey> lru_;  ///< front = most recently used
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The key resolve_shape_plan caches an (m, n) plan for options `qr` on a
/// P-rank (sub-)communicator under.  `accuracy` defaults to Balanced —
/// callers pass the contract so modes resolve (and cache) independently.
PlanKey make_plan_key(la::index_t m, la::index_t n, int P, const QrOptions& qr,
                      backend::Kind backend, const sim::CostParams& machine,
                      core::Accuracy accuracy = core::Accuracy::Balanced);

/// Resolve the execution plan for an (m, n) problem on a P-rank
/// (sub-)communicator through `cache`: algorithm dispatch plus machine
/// tuning when `qr.tune_for_machine()` — and the plan's `predicted` costs
/// are always filled (from the tuner, or from the closed-form model at the
/// resolved parameters), so callers can compare shapes and group sizes by
/// predicted time.  The only resolver: qr3d::Solver::factor calls it with
/// the Accurate contract, the serving layer with each job's contract.
///
/// `accuracy` is the job's accuracy/speed contract: under Fast or Balanced
/// the plan dispatches to CholeskyQR2 (PlanAlgorithm::CholeskyQr2, with the
/// matching condition guard, and under Fast a float first pass) whenever the
/// model predicts it beats the Householder plan at this shape — the tuned
/// Householder fields stay filled as the in-session fallback.  Accurate
/// never dispatches CholeskyQR2.  `float_flop_scale` discounts the float
/// first pass of Fast plans (gamma_float / gamma from a measured
/// MachineProfile; 1 = float no faster than double).
Plan resolve_shape_plan(la::index_t m, la::index_t n, int P, const QrOptions& qr,
                        PlanCache& cache, backend::Kind kind, const sim::CostParams& machine,
                        core::Accuracy accuracy = core::Accuracy::Balanced,
                        double float_flop_scale = 1.0);

}  // namespace qr3d::serve
