// qr3d::serve::Scheduler — traffic shaping for the serving layer.
//
// The async executor used to drain its submission queue FIFO and unbounded,
// which is exactly the multi-tenant failure mode: a latency-sensitive small
// job queues behind a giant batch, and under sustained overload the queue
// (and the process) grows without limit.  This header is the policy half of
// the fix; serve::BatchSolver is the mechanism half (per-round dispatch):
//
//   * Priority classes — every job carries a Priority (High / Normal / Low)
//     chosen at submit time (SubmitOptions).  The scheduler always serves
//     the best-ranked class first.
//   * Deadlines (EDF) — within a class, jobs with deadlines run earliest-
//     deadline-first; jobs without deadlines run after every deadlined
//     peer of their class, FIFO.  Deadlines are scheduling hints, not
//     guarantees: a late job still runs (and is counted as a deadline
//     miss), it is never dropped.
//   * Anti-starvation aging — strict priority classes starve the low class
//     under sustained high-priority load, so a job's *effective* class
//     improves by one step per `age_promote_after` spent waiting.  A Low
//     job that has waited two aging periods competes as High; ties inside
//     a class break by deadline, then by submission order, so the starved
//     job (lowest sequence number) wins the pop.
//   * Bounded admission — the queue depth is capped by the owner
//     (ServeOptions::with_max_queue_depth); a submission beyond the cap
//     fails fast with AdmissionError in its JobHandle instead of growing
//     the queue.  Fault-recovery requeues bypass admission (the job was
//     already admitted) and keep their original sequence number, priority
//     and submit time, so recovery does not reset a job's place in line.
//
// The pop is an O(depth) scan (argmin over the effective scheduling key at
// `now`).  That is deliberate: aging makes the key time-dependent, so a
// static heap would go stale, and admission control bounds the depth the
// scan can reach.
//
// Thread safety: NONE — the scheduler is a plain container.  BatchSolver
// guards every call with its own mutex; standalone users (tests) must do
// the same.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "la/matrix.hpp"
#include "serve/plan_cache.hpp"

namespace qr3d::serve {

/// Priority class of a served job.  Lower value = served first.
enum class Priority : int {
  High = 0,    ///< latency-sensitive: jumps every queued Normal/Low job
  Normal = 1,  ///< the default
  Low = 2,     ///< batch/background work: yields to everything else
};

/// Human-readable class name ("high" / "normal" / "low").
const char* priority_name(Priority p);

/// Number of priority classes (for per-class reporting arrays).
inline constexpr int kPriorityClasses = 3;

/// Thrown (stored in the rejected job's JobHandle) when a submission would
/// push the queue past ServeOptions::with_max_queue_depth.  Fail-fast
/// backpressure: the caller learns immediately instead of the queue growing
/// without bound — retry later, shed load, or route elsewhere.
class AdmissionError : public std::runtime_error {
 public:
  AdmissionError(std::size_t queue_depth, std::size_t max_queue_depth);
  /// With a retry hint: `retry_after_seconds` estimates when the queue will
  /// have drained enough to admit a resubmission — depth at rejection times
  /// the model-predicted per-job execution time of the last dispatched
  /// round (0 when the solver has not dispatched anything yet, so no
  /// prediction exists).  A *hint*, not a guarantee: it assumes the backlog
  /// drains at the predicted rate with no further arrivals.
  AdmissionError(std::size_t queue_depth, std::size_t max_queue_depth,
                 double retry_after_seconds);
  /// Queue depth observed at the rejected submission.
  std::size_t queue_depth() const { return queue_depth_; }
  /// The configured admission cap.
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  /// Estimated seconds until a resubmission would be admitted (0 = unknown).
  double retry_after_seconds() const { return retry_after_seconds_; }

 private:
  std::size_t queue_depth_;
  std::size_t max_queue_depth_;
  double retry_after_seconds_ = 0.0;
};

/// Per-job scheduling directives, passed to BatchSolver::submit.  The
/// default is a Normal-priority job with no deadline — exactly the
/// pre-scheduler behavior.
struct SubmitOptions {
  Priority priority = Priority::Normal;  ///< priority class
  /// Relative deadline (from submit time) for EDF ordering within the
  /// class; nullopt = no deadline (runs after every deadlined peer).
  std::optional<std::chrono::steady_clock::duration> deadline;
  /// Per-job accuracy/speed contract; nullopt inherits the solver-wide
  /// QrOptions::accuracy().  Fast/Balanced let the plan resolution dispatch
  /// tall-skinny least-squares jobs to CholeskyQR2 (condition-guarded, with
  /// an automatic in-session TSQR fallback counted in
  /// JobStats::cholesky_fallbacks); Accurate forces the Householder path.
  std::optional<core::Accuracy> accuracy;

  /// Set the priority class.
  SubmitOptions& with_priority(Priority p) {
    priority = p;
    return *this;
  }
  /// Set a relative deadline (EDF within the priority class).
  SubmitOptions& with_deadline(std::chrono::steady_clock::duration d) {
    deadline = d;
    return *this;
  }
  /// Set the per-job accuracy/speed contract (fast | balanced | accurate).
  SubmitOptions& with_accuracy(core::Accuracy a) {
    accuracy = a;
    return *this;
  }
};

/// Why a job was sent back to the queue for another machine attempt.
enum class RetryCause : int {
  RankDeath = 0,  ///< its session lost ranks (fault::RankDeath)
  Timeout = 1,    ///< its session blew the watchdog deadline (fail-slow)
};

/// One requeue of a job: why it went back, and the deterministic backoff
/// delay it waited before becoming dispatchable again (0 when backoff is
/// disabled — ServeOptions::with_retry_backoff).
struct RetryRecord {
  RetryCause cause = RetryCause::RankDeath;
  double backoff_seconds = 0.0;
};

/// Per-job measurements, valid once the job has resolved successfully.
struct JobStats {
  double wall_seconds = 0.0;   ///< time inside the machine for this job
  double queue_seconds = 0.0;  ///< submit() to first machine dispatch
  double exec_seconds = 0.0;   ///< first machine dispatch to resolution
  /// submit() to resolution — queue_seconds + exec_seconds, kept whole for
  /// compatibility with pre-split callers.
  double latency_seconds = 0.0;
  /// Model-predicted seconds for the job's plan at its group size under the
  /// machine's fitted (alpha, beta, gamma); 0 until dispatched.  The ratio
  /// wall_seconds / predicted_seconds is the job's cost-model drift — the
  /// signal BatchSolver's drift detector aggregates (see
  /// ServeOptions::with_reprofile_on_drift).
  double predicted_seconds = 0.0;
  bool plan_cache_hit = false;  ///< shape plan came from the cache
  int group_ranks = 0;          ///< ranks of the group the job ran on
  int attempts = 0;             ///< machine attempts (> 1 after a requeue)
  bool recovered = false;       ///< solved after a fault/timeout requeue
  /// One record per requeue, in order: why the job went back (rank death vs
  /// session timeout) and the backoff delay it waited.  Size == attempts - 1
  /// for a job that eventually resolved through the self-healing path.
  std::vector<RetryRecord> retries;
  Priority priority = Priority::Normal;  ///< class the job was submitted at
  /// 1-based machine round (BatchSolver::Stats::sessions value) that last
  /// dispatched the job; 0 if it never entered the machine.  Tests pin
  /// scheduling order with this.
  std::uint64_t round = 0;
  bool deadline_missed = false;  ///< resolved after its deadline passed
  /// Contract the job resolved under (submit-time override or the solver
  /// default).
  core::Accuracy accuracy = core::Accuracy::Balanced;
  /// Times the CholeskyQR2 fast path was abandoned for this job — a tripped
  /// condition guard or a non-SPD Gram — and the session fell back to the
  /// Householder path in place.  Always 0 under Accuracy::Accurate.
  int cholesky_fallbacks = 0;
};

namespace detail {

/// Shared driver-side job record.  Success fields (x, stats) are written by
/// the machine's group-root rank *before* the release-store of `done`;
/// readers load `done` with acquire first (JobHandle::ready), so the record
/// is safe to read from any thread once a handle reports ready.
struct Job {
  la::Matrix A, b;
  Plan plan;
  int group_ranks = 0;
  la::Matrix x;
  std::exception_ptr error;
  std::atomic<bool> done{false};
  JobStats stats;
  std::chrono::steady_clock::time_point submitted_at;
  // Scheduling state (written at submit, read by the scheduler/dispatcher).
  Priority priority = Priority::Normal;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;  ///< absolute, if has_deadline
  std::uint64_t seq = 0;  ///< submission sequence number (FIFO tiebreak)
  /// Resolved accuracy contract (submit-time override or solver default).
  core::Accuracy accuracy = core::Accuracy::Balanced;
  // Dispatch state (only the dispatching thread writes these).
  bool dispatched = false;  ///< entered the machine at least once
  std::chrono::steady_clock::time_point dispatched_at;  ///< first machine dispatch
  int attempts = 0;         ///< machine attempts so far
  std::exception_ptr original_error;  ///< first recoverable session error
  /// Retry backoff: the job is not dispatchable before this instant
  /// (default epoch = immediately).  Set on requeue from the deterministic
  /// backoff schedule; the scheduler's pop skips not-yet-ready jobs.
  std::chrono::steady_clock::time_point ready_at{};
};

}  // namespace detail

/// The ready queue: EDF within priority classes, aging against starvation,
/// depth bounded by the owner.  See the header comment for the policy and
/// the thread-safety contract (externally synchronized).
class Scheduler {
 public:
  /// `age_promote_after` is the waiting time that improves a job's
  /// effective class by one step (zero disables aging).
  explicit Scheduler(std::chrono::steady_clock::duration age_promote_after =
                         std::chrono::steady_clock::duration::zero())
      : age_promote_after_(age_promote_after) {}

  /// Enqueue a job.  Admission (depth) is the caller's responsibility —
  /// fault-recovery requeues use this same entry point and must bypass it.
  void push(std::shared_ptr<detail::Job> job);

  /// Remove and return the best-ranked job at `now` — minimal
  /// (effective class, deadline, seq) — or nullptr when no job is ready.
  /// Jobs whose retry backoff has not elapsed (ready_at > now) are skipped
  /// unless `include_delayed` (the shutdown drain ignores backoff: a job
  /// waiting out a delay must still resolve before the solver dies).
  std::shared_ptr<detail::Job> pop(std::chrono::steady_clock::time_point now,
                                   bool include_delayed = false);

  /// Remove and return up to `max_jobs` further jobs with shape (m, n), in
  /// scheduling order at `now`.  The dispatcher uses this to fill the idle
  /// rank groups of the round it is about to run: same-shape jobs share the
  /// popped job's plan, so they ride along for free whatever their class.
  /// Backoff-delayed jobs are skipped unless `include_delayed`.
  std::vector<std::shared_ptr<detail::Job>> pop_same_shape(
      la::index_t m, la::index_t n, std::size_t max_jobs,
      std::chrono::steady_clock::time_point now, bool include_delayed = false);

  /// Is any queued job dispatchable at `now` (retry backoff elapsed)?
  bool has_ready(std::chrono::steady_clock::time_point now) const;

  /// Earliest instant at which some queued job is (or becomes) dispatchable
  /// — the executor's sleep target when the whole queue is backing off.
  /// nullopt when the queue is empty.
  std::optional<std::chrono::steady_clock::time_point> next_ready_at() const;

  /// Remove and return everything (abort/shutdown drain), in push order.
  std::vector<std::shared_ptr<detail::Job>> drain();

  /// Copy of every queued job, in push order (flush-barrier snapshots).
  std::vector<std::shared_ptr<detail::Job>> snapshot() const;

  /// Queued jobs with shape (m, n) (sizing hint for adaptive grouping).
  std::size_t count_shape(la::index_t m, la::index_t n) const;

  std::size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  /// The effective (aged) class of `job` at `now`: its submitted class,
  /// improved one step per age_promote_after waited, floored at the best
  /// class.  Exposed for tests.
  int effective_class(const detail::Job& job,
                      std::chrono::steady_clock::time_point now) const;

 private:
  /// Strict-weak "a runs before b" at `now`.
  bool before(const detail::Job& a, const detail::Job& b,
              std::chrono::steady_clock::time_point now) const;

  std::chrono::steady_clock::duration age_promote_after_;
  /// Unordered (push order); pop scans — see header comment for why.
  std::vector<std::shared_ptr<detail::Job>> queue_;
};

}  // namespace qr3d::serve
