#include "serve/batch_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>

#include "core/cholesky_qr2.hpp"
#include "fault/plan.hpp"
#include "health/timeout.hpp"
#include "la/error.hpp"

namespace qr3d::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The error queued/unstarted jobs resolve with when the solver aborts.
std::exception_ptr abort_error() {
  return std::make_exception_ptr(
      std::runtime_error("qr3d::serve: BatchSolver aborted with jobs pending"));
}

/// Completed-job drift samples required since the last profile before the
/// drift trigger (with_reprofile_on_drift) may fire — a couple of outliers
/// must not thrash the profiler.
constexpr std::uint64_t kDriftMinSamples = 8;

/// The serving trace's lane for per-round events (sessions, timeouts,
/// re-profiles); a job's lane is its sequence number.
constexpr int kDispatcherLane = -1;

}  // namespace

ServeOptions& ServeOptions::with_ranks(int P) {
  QR3D_CHECK(P >= 1, "ServeOptions: need at least one rank");
  ranks_ = P;
  return *this;
}

ServeOptions& ServeOptions::with_group_ranks(int g) {
  QR3D_CHECK(g >= 0, "ServeOptions: group_ranks must be >= 0 (0 = adaptive)");
  group_ranks_ = g;
  return *this;
}

ServeOptions& ServeOptions::with_reprofile_on_drift(double factor) {
  QR3D_CHECK(factor == 0.0 || factor > 1.0,
             "ServeOptions: reprofile_on_drift factor must be > 1 (0 disables)");
  reprofile_on_drift_ = factor;
  return *this;
}

ServeOptions& ServeOptions::with_max_attempts(int attempts) {
  QR3D_CHECK(attempts >= 1, "ServeOptions: max_attempts must be >= 1");
  max_attempts_ = attempts;
  return *this;
}

ServeOptions& ServeOptions::with_age_promote_after(std::chrono::steady_clock::duration d) {
  QR3D_CHECK(d >= std::chrono::steady_clock::duration::zero(),
             "ServeOptions: age_promote_after must be >= 0 (0 disables aging)");
  age_promote_after_ = d;
  return *this;
}

ServeOptions& ServeOptions::with_session_timeout_factor(double factor) {
  QR3D_CHECK(factor == 0.0 || factor >= 1.0,
             "ServeOptions: session_timeout_factor must be 0 (off) or >= 1");
  session_timeout_factor_ = factor;
  return *this;
}

ServeOptions& ServeOptions::with_session_timeout_floor(double seconds) {
  QR3D_CHECK(seconds >= 0.0, "ServeOptions: session_timeout_floor must be >= 0");
  session_timeout_floor_ = seconds;
  return *this;
}

ServeOptions& ServeOptions::with_quarantine_probation(int sessions) {
  QR3D_CHECK(sessions >= 0,
             "ServeOptions: quarantine_probation must be >= 0 (0 disables quarantine)");
  quarantine_probation_ = sessions;
  return *this;
}

ServeOptions& ServeOptions::with_retry_backoff(double base_seconds, double cap_seconds,
                                               std::uint64_t seed) {
  QR3D_CHECK(base_seconds >= 0.0 && cap_seconds >= 0.0,
             "ServeOptions: retry backoff base and cap must be >= 0");
  retry_backoff_base_ = base_seconds;
  retry_backoff_cap_ = cap_seconds;
  retry_backoff_seed_ = seed;
  return *this;
}

// ---------------------------------------------------------------------------
// Adaptive group sizing
// ---------------------------------------------------------------------------

std::vector<int> group_size_candidates(int P) {
  std::vector<int> gs;
  for (int g = 1; g < P; g *= 2) gs.push_back(g);
  gs.push_back(P);
  return gs;
}

GroupChoice choose_group_ranks(la::index_t m, la::index_t n, int jobs, int P,
                               const QrOptions& qr, PlanCache& cache, backend::Kind kind,
                               const sim::CostParams& machine, core::Accuracy accuracy,
                               double float_flop_scale) {
  QR3D_CHECK(jobs >= 1, "choose_group_ranks: need at least one job");
  QR3D_CHECK(P >= 1, "choose_group_ranks: need at least one rank");
  GroupChoice best;
  bool have_best = false;
  for (int g : group_size_candidates(P)) {
    const Plan plan = resolve_shape_plan(m, n, g, qr, cache, kind, machine, accuracy,
                                         float_flop_scale);
    const double t_job = plan.predicted.time(machine);
    const int groups = P / g;
    const double rounds = std::ceil(static_cast<double>(jobs) / static_cast<double>(groups));
    const double makespan = rounds * t_job;
    // Strictly better makespan wins; a makespan within 1% of the incumbent
    // (the model is asymptotic — hair-thin differences are noise) goes to
    // the larger group for its lower per-job latency.
    const bool better = !have_best || makespan < 0.99 * best.makespan_seconds ||
                        (makespan <= 1.01 * best.makespan_seconds && t_job < best.job_seconds);
    if (better) {
      best.group_ranks = g;
      best.job_seconds = t_job;
      best.makespan_seconds = makespan;
      have_best = true;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Failure classification
// ---------------------------------------------------------------------------

RoundVerdict classify(const SessionOutcome& outcome, const std::vector<int>& attempts,
                      int max_attempts, bool aborting) {
  QR3D_ASSERT(attempts.size() == outcome.unfinished.size(),
              "classify: need one attempt count per unfinished job");
  RoundVerdict verdict;
  verdict.error = outcome.error;
  bool rank_death = !outcome.deaths.empty();
  if (outcome.error) {
    try {
      std::rethrow_exception(outcome.error);
    } catch (const fault::RankDeath&) {
      rank_death = true;
    } catch (...) {
    }
  } else if (!outcome.unfinished.empty() && !outcome.timed_out) {
    QR3D_ASSERT(rank_death, "BatchSolver: machine session ended cleanly with an unfinished job");
    // Ranks died but no survivor tripped over them (they held no job the
    // survivors needed): the unfinished jobs were simply lost with their
    // group — make up the death error the survivors never saw.
    const int dead = outcome.deaths.front();
    verdict.error = std::make_exception_ptr(fault::RankDeath(
        dead, "qr3d::serve: rank " + std::to_string(dead) + " died; its group's jobs did not finish"));
  }
  const bool recoverable = rank_death || outcome.timed_out;
  if (outcome.timed_out) {
    verdict.cause = RetryCause::Timeout;
    const int suspect = outcome.stalls.empty() ? -1 : outcome.stalls.front();
    verdict.error = std::make_exception_ptr(health::SessionTimeout(
        outcome.deadline_seconds, suspect,
        "qr3d::serve: session " + std::to_string(outcome.round) + " exceeded its deadline of " +
            std::to_string(outcome.deadline_seconds) +
            " s (fail-slow watchdog; see ServeOptions::with_session_timeout_factor)"));
  }
  for (const int a : attempts) {
    if (!recoverable) {
      verdict.jobs.push_back(Disposition::Resolve);
    } else if (aborting) {
      // abort() has drained the queue already: a requeue landing now would
      // strand the job forever (nothing dispatches after an abort).
      verdict.jobs.push_back(Disposition::Abort);
    } else if (a >= max_attempts) {
      verdict.jobs.push_back(Disposition::Exhaust);
    } else {
      verdict.jobs.push_back(Disposition::Requeue);
    }
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

bool JobHandle::ready() const {
  QR3D_CHECK(valid(), "JobHandle: default-constructed handle");
  return job_->done.load(std::memory_order_acquire);
}

void JobHandle::wait() const {
  QR3D_CHECK(valid(), "JobHandle: default-constructed handle");
  if (job_->done.load(std::memory_order_acquire)) return;
  owner_->await(job_, std::nullopt, nullptr);
}

const la::Matrix& JobHandle::get() const {
  wait();
  if (job_->error) std::rethrow_exception(job_->error);
  return job_->x;
}

const JobStats& JobHandle::stats() const {
  QR3D_CHECK(valid(), "JobHandle: default-constructed handle");
  QR3D_CHECK(job_->done.load(std::memory_order_acquire),
             "JobHandle::stats: job has not resolved yet (wait first)");
  if (job_->error) std::rethrow_exception(job_->error);
  return job_->stats;
}

// ---------------------------------------------------------------------------
// BatchSolver
// ---------------------------------------------------------------------------

BatchSolver::BatchSolver(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(std::make_shared<PlanCache>(opts_.plan_cache_capacity())),
      solver_(opts_.qr(), cache_),
      sched_(opts_.age_promote_after()),
      backoff_(opts_.retry_backoff_base(), opts_.retry_backoff_cap(),
               opts_.retry_backoff_seed()),
      rank_health_(opts_.quarantine_probation()) {
  // Resolve every metric handle once: interning takes the registry mutex,
  // after which the serving hot path mutates lock-free atomics (still under
  // mu_ for cross-counter snapshot consistency — see the header).
  m_.submitted = &registry_.counter("serve.jobs_submitted");
  m_.completed = &registry_.counter("serve.jobs_completed");
  m_.failed = &registry_.counter("serve.jobs_failed");
  m_.rejected = &registry_.counter("serve.jobs_rejected");
  m_.deadline_misses = &registry_.counter("serve.deadline_misses");
  m_.flushes = &registry_.counter("serve.flushes");
  m_.sessions = &registry_.counter("serve.sessions");
  m_.reprofiles = &registry_.counter("serve.reprofiles");
  m_.plan_hits = &registry_.counter("serve.plan_cache_hits");
  m_.plan_misses = &registry_.counter("serve.plan_cache_misses");
  m_.attempts = &registry_.counter("serve.attempts");
  m_.recovered = &registry_.counter("serve.recovered");
  m_.cholesky_jobs = &registry_.counter("serve.jobs_choleskyqr2");
  m_.cholesky_fallbacks = &registry_.counter("serve.cholesky_fallbacks");
  m_.timeouts = &registry_.counter("health.session_timeouts");
  m_.requeues_timeout = &registry_.counter("health.requeues_timeout");
  m_.requeues_rank_death = &registry_.counter("health.requeues_rank_death");
  m_.quarantined = &registry_.counter("health.ranks_quarantined");
  m_.reinstated = &registry_.counter("health.ranks_reinstated");
  m_.quarantined_now = &registry_.gauge("health.quarantined_now");
  m_.retry_after = &registry_.gauge("serve.retry_after_seconds");
  m_.backoff_delay = &registry_.histogram("health.backoff_seconds");
  m_.serve_seconds = &registry_.gauge("serve.serve_seconds");
  m_.latency = &registry_.histogram("serve.latency_seconds");
  m_.queue_wait = &registry_.histogram("serve.queue_seconds");
  m_.exec = &registry_.histogram("serve.exec_seconds");
  m_.drift = &registry_.histogram("serve.drift_ratio");
  m_.drift_since_profile = &registry_.histogram("serve.drift_ratio_since_profile");

  // Construct, optionally profile, and (re)construct: tuning consults the
  // machine's params(), so the fitted profile must be baked into the machine
  // the jobs run on — that is the profile -> tune -> serve loop.
  machine_ = make_machine(opts_.qr(), opts_.ranks(), opts_.params());
  if (opts_.profile()) {
    profile_ = profile_machine(*machine_, opts_.profile_options());
    machine_ = make_machine(opts_.qr(), opts_.ranks(), profile_->fitted);
  }
  if (opts_.trace()) machine_->set_trace_sink(opts_.trace());
  executor_ = std::thread([this]() {
    executor_loop();
    executor_exited_.store(true, std::memory_order_release);
  });
}

BatchSolver::~BatchSolver() { shutdown(); }

JobHandle BatchSolver::submit(la::Matrix A, la::Matrix b) {
  return submit(std::move(A), std::move(b), SubmitOptions{});
}

JobHandle BatchSolver::submit(la::Matrix A, la::Matrix b, const SubmitOptions& sopts) {
  auto job = std::make_shared<detail::Job>();
  job->A = std::move(A);
  job->b = std::move(b);
  job->submitted_at = Clock::now();
  job->priority = sopts.priority;
  job->stats.priority = sopts.priority;
  // The accuracy contract resolves at submit time: per-job override, else
  // the solver-wide QrOptions default.  Plan resolution keys on it.
  job->accuracy = sopts.accuracy.value_or(opts_.qr().accuracy());
  job->stats.accuracy = job->accuracy;
  if (sopts.deadline) {
    job->has_deadline = true;
    job->deadline = job->submitted_at + *sopts.deadline;
  }
  bool rejected = false;
  std::size_t depth = 0;
  double retry_after = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    QR3D_CHECK(!stop_, "BatchSolver: submit after shutdown/abort");
    m_.submitted->inc();
    job->seq = next_seq_++;
    depth = sched_.size();
    if (opts_.max_queue_depth() > 0 && depth >= opts_.max_queue_depth()) {
      // Fail-fast admission: the handle resolves with AdmissionError right
      // here (outside the lock, below) instead of the queue growing — the
      // caller can never hang on a rejected job.  The error carries a
      // retry-after hint: how long the backlog should take to drain at the
      // model-predicted per-job rate (0 until a round has been dispatched
      // and a prediction exists).
      rejected = true;
      m_.rejected->inc();
      retry_after = static_cast<double>(depth) * last_predicted_job_seconds_;
      m_.retry_after->set(retry_after);
    } else {
      sched_.push(job);
    }
  }
  trace(rejected ? "admission_reject" : "submit", static_cast<int>(job->seq), job->seq,
        job->submitted_at);
  if (rejected) {
    resolve_job(job, std::make_exception_ptr(
                         AdmissionError(depth, opts_.max_queue_depth(), retry_after)));
  } else {
    queue_cv_.notify_one();
  }
  return JobHandle(this, std::move(job));
}

void BatchSolver::resolve_job(const std::shared_ptr<detail::Job>& job, std::exception_ptr error) {
  if (error) job->error = error;
  const auto now = Clock::now();
  const double latency = std::chrono::duration<double>(now - job->submitted_at).count();
  job->stats.latency_seconds = latency;
  if (job->dispatched) {
    // queue_seconds was stamped at the first machine dispatch; the rest of
    // the latency (machine rounds, requeue waits) is execution.
    job->stats.exec_seconds = std::max(0.0, latency - job->stats.queue_seconds);
  } else {
    // Never entered the machine (validation reject, admission reject,
    // abort): the whole latency was spent queued.
    job->stats.queue_seconds = latency;
  }
  if (job->has_deadline && now > job->deadline) job->stats.deadline_missed = true;
  job->done.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job->error) {
      m_.failed->inc();
    } else {
      m_.completed->inc();
      if (job->stats.recovered) m_.recovered->inc();
    }
    if (job->stats.deadline_missed) m_.deadline_misses->inc();
    m_.latency->record(latency);
    m_.queue_wait->record(job->stats.queue_seconds);
    m_.exec->record(job->stats.exec_seconds);
    // Drift detector: one sample per successfully completed job that has
    // both a measured in-machine time and a model prediction.  The ratio is
    // accumulated twice — since construction (surfaced in Stats) and since
    // the last profile (the with_reprofile_on_drift trigger).
    if (!job->error && job->stats.wall_seconds > 0.0 && job->stats.predicted_seconds > 0.0) {
      const double ratio = job->stats.wall_seconds / job->stats.predicted_seconds;
      m_.drift->record(ratio);
      m_.drift_since_profile->record(ratio);
    }
  }
  done_cv_.notify_all();
  // The job's terminal span: exec (dispatch -> resolution) once it entered
  // the machine, queued (submit -> resolution) when it never did.
  const int lane = static_cast<int>(job->seq);
  if (job->dispatched) {
    trace(job->error ? "exec (failed)" : "exec", lane, job->seq, job->dispatched_at, now);
  } else {
    trace(job->error ? "queued (failed)" : "queued", lane, job->seq, job->submitted_at, now);
  }
}

bool BatchSolver::validate_job(const std::shared_ptr<detail::Job>& job) {
  try {
    QR3D_CHECK(!job->A.empty(), "BatchSolver: job matrix A is empty");
    QR3D_CHECK(!job->b.empty(), "BatchSolver: job right-hand side b is empty");
    QR3D_CHECK(job->b.rows() == job->A.rows(), "BatchSolver: b must have A's row count");
    // Shape/threshold validation; the rank count a job sees is its group
    // size, but validate() only needs P >= 1, which holds for any group.
    opts_.qr().validate(job->A.rows(), job->A.cols(), opts_.ranks());
    return true;
  } catch (...) {
    resolve_job(job, std::current_exception());
    return false;
  }
}

void BatchSolver::maybe_reprofile() {
  const double f = opts_.reprofile_on_drift();
  if (f <= 0.0) return;
  {
    // The drift *signal*: the median measured/predicted ratio of jobs
    // completed since the last profile.  Only a sustained departure from
    // [1/f, f] re-fits — p50, not max, so one noisy job cannot thrash the
    // profiler.
    std::lock_guard<std::mutex> lock(mu_);
    if (m_.drift_since_profile->count() < kDriftMinSamples) return;
    const double med = m_.drift_since_profile->quantile(0.5);
    if (med <= f && med >= 1.0 / f) return;
  }
  try {
    MachineProfile fresh = profile_machine(*machine_, opts_.profile_options());
    auto machine = make_machine(opts_.qr(), opts_.ranks(), fresh.fitted);
    if (opts_.trace()) machine->set_trace_sink(opts_.trace());
    std::lock_guard<std::mutex> lock(mu_);
    machine_ = std::move(machine);
    profile_ = fresh;
    // New parameters mean new plan keys: clear the sized-shape set so every
    // shape re-sizes and re-tunes against the fresh fit (counted as misses).
    sized_shapes_.clear();
    // The drift trigger compares against the *new* fit from here on.
    m_.drift_since_profile->reset();
    m_.reprofiles->inc();
  } catch (...) {
    // Profiling interrupted (e.g. an abort() racing the micro-benchmarks):
    // keep the previous profile and machine; the next drain retries.
    return;
  }
  trace("reprofile", kDispatcherLane, 0, Clock::now());
}

std::vector<int> BatchSolver::usable_ranks_locked() const {
  const int P = opts_.ranks();
  std::vector<char> dead(static_cast<std::size_t>(P), 0);
  for (int r : dead_ranks_) dead[static_cast<std::size_t>(r)] = 1;
  std::vector<int> alive, usable;
  for (int r = 0; r < P; ++r) {
    if (dead[static_cast<std::size_t>(r)]) continue;
    alive.push_back(r);
    if (!rank_health_.is_quarantined(r)) usable.push_back(r);
  }
  // Capacity wins: quarantining every survivor would halt serving, so a
  // quarantine that empties the usable set is ignored for this session (the
  // suspects still serve their probation and reinstate on clean sessions).
  return usable.empty() ? alive : usable;
}

void BatchSolver::run_session(int g, const std::vector<std::shared_ptr<detail::Job>>& jobs) {
  // The machine view shrinks as ranks die or get quarantined: sessions group
  // only usable ranks (the rest split out with color -1 and idle), and the
  // group size clamps to what is left.
  std::vector<int> alive;
  {
    std::lock_guard<std::mutex> lock(mu_);
    alive = usable_ranks_locked();
  }
  QR3D_ASSERT(!alive.empty(), "BatchSolver: no surviving ranks to run a session on");
  const int ga = std::min(g, static_cast<int>(alive.size()));
  const int groups = static_cast<int>(alive.size()) / ga;
  // Every surviving rank joins its group's sub-communicator (ranks beyond
  // groups*ga idle out) and the groups round-robin the job list.  The
  // group's rank 0 stamps per-job wall times, writes the results, and
  // resolves the job — distinct jobs are written by distinct group roots, so
  // no record is shared, and resolve_job publishes each record with a
  // release store.
  machine_->run([&](backend::Comm& c) {
    const auto it = std::find(alive.begin(), alive.end(), c.rank());
    const int idx = it == alive.end() ? -1 : static_cast<int>(it - alive.begin());
    const int group = idx < 0 ? -1 : idx / ga;
    const bool active = group >= 0 && group < groups;
    backend::Comm gc = c.split(active ? group : -1, c.rank());
    if (!gc.valid()) return;
    for (std::size_t i = static_cast<std::size_t>(group); i < jobs.size();
         i += static_cast<std::size_t>(groups)) {
      auto& job = jobs[i];
      const auto t0 = Clock::now();
      DistMatrix Ad = DistMatrix::from_global(gc, job->A.view());
      DistMatrix bd = DistMatrix::from_global(gc, job->b.view());
      la::Matrix x;
      bool solved = false;
      if (job->plan.algorithm == PlanAlgorithm::CholeskyQr2) {
        // The accuracy-contract fast path: x = R^{-1} (Q^T b) over two
        // condition-guarded CholeskyQR passes on the local row blocks.
        // CholeskyQrUnstable is deterministic — the guard and the Cholesky
        // both act on the replicated Gram, so every rank of the group
        // throws together — which is what makes the in-place Householder
        // retry below collective-safe.
        core::CholeskyQr2Options cq;
        cq.factor_in_float = job->plan.use_float;
        cq.max_condition = job->plan.max_condition;
        try {
          x = core::cholesky_qr2_least_squares(gc, la::ConstMatrixView(Ad.local().view()),
                                               la::ConstMatrixView(bd.local().view()), cq);
          solved = true;
        } catch (const core::CholeskyQrUnstable&) {
          // Too ill-conditioned for the contract's working precision: fall
          // back to the tuned Householder fields of the same plan, in the
          // same session.  Only the group root writes the job record.
          if (gc.rank() == 0) {
            ++job->stats.cholesky_fallbacks;
            std::lock_guard<std::mutex> lock(mu_);
            m_.cholesky_fallbacks->inc();
          }
        }
      }
      if (!solved) {
        Factorization f = solver_.factor(Ad, job->plan);
        x = f.solve_least_squares(bd);
      }
      if (gc.rank() == 0) {
        job->x = std::move(x);
        job->stats.wall_seconds = seconds_since(t0);
        job->stats.group_ranks = gc.size();
        resolve_job(job, nullptr);
      }
    }
  });
}

BatchSolver::RoundPlan BatchSolver::plan_round(bool include_delayed) {
  RoundPlan round;
  // --- Pop the best-ranked READY job (the scheduling decision) -------------
  std::shared_ptr<detail::Job> top;
  std::size_t shape_hint = 0;
  // Mixed-precision discount for fast-contract plans: how much cheaper a
  // float flop is than a double one on THIS machine (measured gamma_float /
  // gamma; 1 when unprofiled or float is no faster).
  double float_scale = 1.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (aborting_) return round;  // abort() drains and resolves the queue
    top = sched_.pop(Clock::now(), include_delayed);
    if (!top) return round;
    // Popped jobs move to in_flight_ under the SAME lock: a flush barrier
    // snapshot (queue + in_flight_) must never catch a job in neither.
    in_flight_.push_back(top);
    // Sizing hint: how many same-shape jobs the batch could pipeline.
    shape_hint = sched_.count_shape(top->A.rows(), top->A.cols()) + 1;
    if (profile_ && profile_->gamma_float > 0.0 && profile_->fitted.gamma > 0.0)
      float_scale = std::min(1.0, profile_->gamma_float / profile_->fitted.gamma);
  }
  if (!validate_job(top)) return round;

  // --- Size the group and resolve the plan for the popped job's shape -----
  const la::index_t m = top->A.rows(), n = top->A.cols();
  const sim::CostParams mp = machine_->params();
  const backend::Kind kind = machine_->kind();
  const int P = opts_.ranks();
  const core::Accuracy acc = top->accuracy;
  int g = opts_.group_ranks();
  Plan plan;
  try {
    if (g > 0) {
      g = std::min(g, P);
    } else {
      g = choose_group_ranks(m, n, static_cast<int>(shape_hint), P, opts_.qr(), *cache_, kind, mp,
                             acc, float_scale)
              .group_ranks;
    }
    plan = resolve_shape_plan(m, n, g, opts_.qr(), *cache_, kind, mp, acc, float_scale);
  } catch (...) {
    // Sizing/tuning failed for this shape (a degenerate fitted profile,
    // say): isolate the failure to this job, keep serving the queue.
    resolve_job(top, std::current_exception());
    return round;
  }

  // --- Fill the idle groups with same-shape riders -------------------------
  // The machine view shrinks as ranks die; the group size clamps to the
  // survivors and the round carries one job per group.  Riders share the
  // popped job's plan, so they pipeline for free whatever their class —
  // preemption granularity stays one round either way.
  std::vector<std::shared_ptr<detail::Job>> riders;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int alive = std::max(1, static_cast<int>(usable_ranks_locked().size()));
    round.group_ranks = std::min(g, alive);
    round.groups = std::max(1, alive / round.group_ranks);
    riders = sched_.pop_same_shape(m, n, static_cast<std::size_t>(round.groups - 1),
                                   Clock::now(), include_delayed);
    for (auto& r : riders) in_flight_.push_back(r);
  }
  std::vector<std::shared_ptr<detail::Job>> jobs{top};
  for (auto& r : riders) {
    if (validate_job(r)) jobs.push_back(r);  // invalid riders resolve here
  }

  // Riders keep their own accuracy contract: one whose contract differs
  // from the popped job's resolves its own plan (cached — same shape and
  // group size, a different accuracy key).  A resolution failure downgrades
  // the rider to the popped job's Householder fields instead of failing it.
  std::vector<Plan> job_plans(jobs.size(), plan);
  for (std::size_t j = 1; j < jobs.size(); ++j) {
    if (jobs[j]->accuracy == acc) continue;
    try {
      job_plans[j] = resolve_shape_plan(m, n, g, opts_.qr(), *cache_, kind, mp,
                                        jobs[j]->accuracy, float_scale);
    } catch (...) {
      job_plans[j].algorithm = PlanAlgorithm::Householder;
      job_plans[j].use_float = false;
      job_plans[j].max_condition = 0.0;
    }
  }

  // --- Accounting (before the run: resolution implies visibility) ---------
  round.job_seconds = plan.predicted.time(mp);
  bool first_sizing = false, abort_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (aborting_) {
      abort_now = true;
    } else {
      // The admission retry-after hint and the session deadline both lean on
      // the model: remember this round's per-job prediction, and read the
      // observed drift p95 (how much slower than predicted real jobs run, at
      // the tail) so the deadline scales with the model's demonstrated error
      // bars instead of trusting the raw prediction.
      last_predicted_job_seconds_ = round.job_seconds;
      if (m_.drift->count() >= kDriftMinSamples)
        round.drift_scale = std::max(1.0, m_.drift->quantile(0.95));
      const auto shape = std::make_pair(m, n);
      if (std::find(sized_shapes_.begin(), sized_shapes_.end(), shape) == sized_shapes_.end()) {
        sized_shapes_.push_back(shape);
        first_sizing = true;
      }
      // Hit/miss counters are per job on its FIRST dispatch only — a
      // fault-recovery requeue re-enters the round but not the counters.
      std::uint64_t fresh = 0;
      for (const auto& job : jobs)
        if (!job->dispatched) ++fresh;
      const std::uint64_t miss = first_sizing ? 1 : 0;
      m_.plan_misses->inc(miss);
      m_.plan_hits->inc(fresh >= miss ? fresh - miss : 0);
      m_.sessions->inc();
      m_.attempts->inc(jobs.size());
      std::uint64_t cq_jobs = 0;
      for (const auto& jp : job_plans)
        if (jp.algorithm == PlanAlgorithm::CholeskyQr2) ++cq_jobs;
      m_.cholesky_jobs->inc(cq_jobs);
      round.round = m_.sessions->value();
    }
  }
  if (abort_now) {
    resolve_unfinished(jobs, abort_error());
    return round;
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    auto& job = jobs[j];
    job->plan = job_plans[j];
    job->group_ranks = g;
    job->stats.group_ranks = g;
    // Stamped every dispatch (the clamped group or a fresh profile can
    // change the prediction between attempts): what the cost model expects
    // this job to take, the denominator of its drift ratio.
    job->stats.predicted_seconds = job_plans[j].predicted.time(mp);
    if (!job->dispatched) {
      job->dispatched = true;
      job->dispatched_at = Clock::now();
      job->stats.queue_seconds = seconds_since(job->submitted_at);
      job->stats.plan_cache_hit = !(first_sizing && j == 0);
      // Close the job's queued span: submit -> first machine dispatch.
      trace("queued", static_cast<int>(job->seq), job->seq, job->submitted_at,
            job->dispatched_at);
    }
    ++job->attempts;
    job->stats.attempts = job->attempts;
    job->stats.recovered = job->attempts > 1;
    job->stats.priority = job->priority;
    job->stats.round = round.round;
  }
  round.jobs = std::move(jobs);
  return round;
}

SessionOutcome BatchSolver::run_round(const RoundPlan& round) {
  SessionOutcome out;
  out.round = round.round;
  // --- Arm the session deadline (fail-slow watchdog) -----------------------
  // The deadline is what the cost model says this session should take —
  // predicted per-job seconds times the jobs each group runs in series —
  // scaled by the observed drift p95 (the model's own demonstrated error
  // bars) and the user's factor, floored absolutely.  A backend that
  // enforces deadlines itself (the simulator, on its virtual clock) just
  // takes the number; otherwise a watchdog thread fires request_abort() at
  // the wall deadline.  The callback returns whether a live run took the
  // abort: the executor commits to a session slightly before run() begins,
  // and request_abort() while idle is deliberately dropped — so the
  // watchdog retries until the abort lands or disarm().
  bool machine_enforces = false;
  bool watchdog_armed = false;
  if (opts_.session_timeout_factor() > 0.0) {
    const double jobs_per_group = std::ceil(static_cast<double>(round.jobs.size()) /
                                            static_cast<double>(round.groups));
    out.deadline_seconds = std::max(opts_.session_timeout_floor(),
                                    round.job_seconds * jobs_per_group * round.drift_scale *
                                        opts_.session_timeout_factor());
    machine_enforces = machine_->set_session_deadline(out.deadline_seconds);
    if (!machine_enforces) {
      watchdog_.arm(out.deadline_seconds, [this]() { return machine_->request_abort(); });
      watchdog_armed = true;
    }
  }

  // --- Run exactly this round as one machine session -----------------------
  // A machine-level failure (an in-machine throw aborts every rank of the
  // session) leaves the jobs the session did not finish unresolved — jobs
  // that completed before the abort keep their solutions — and the machine
  // resets cleanly for the next round (see ThreadMachine).
  const auto t0 = Clock::now();
  try {
    run_session(round.group_ranks, round.jobs);
  } catch (...) {
    out.error = std::current_exception();
  }
  // Did the deadline fire?  The watchdog knows whether its abort landed
  // (disarm waits out an in-flight callback, so this cannot race the next
  // round); a self-enforcing backend reports it directly.  classify() keys
  // on THIS, never on the exception type — the lowest-ranked rethrow can
  // surface a generic abort error even when the root cause was the deadline.
  if (watchdog_armed) out.timed_out = watchdog_.disarm();
  if (machine_enforces) out.timed_out = machine_->last_run_timed_out();
  // The machine-session span on the dispatcher lane: job exec spans and the
  // machine's own per-rank op events nest under it in wall time.
  const auto t1 = Clock::now();
  trace("session", kDispatcherLane, round.round, t0, t1, round.group_ranks,
        static_cast<double>(round.jobs.size()));
  if (out.timed_out) trace("session_timeout", kDispatcherLane, round.round, t1);
  out.deaths = machine_->last_run_deaths();
  out.stalls = machine_->last_run_stalls();
  for (const auto& job : round.jobs) {
    if (!job->done.load(std::memory_order_acquire)) out.unfinished.push_back(job);
  }
  return out;
}

void BatchSolver::settle_round(const SessionOutcome& out, bool for_barriers) {
  std::vector<int> attempts;
  for (const auto& job : out.unfinished) attempts.push_back(job->attempts);
  RoundVerdict verdict;
  // Each unfinished job that fails, and the error it fails with.
  std::vector<std::pair<std::shared_ptr<detail::Job>, std::exception_ptr>> failed;
  std::vector<std::uint64_t> requeued;
  std::exception_ptr session_error;  // the first failure that is not an abort
  {
    std::lock_guard<std::mutex> lock(mu_);
    verdict = classify(out, attempts, opts_.max_attempts(), aborting_);
    m_.serve_seconds->add(machine_->last_wall_seconds());
    for (int r : out.deaths) {
      if (std::find(dead_ranks_.begin(), dead_ranks_.end(), r) == dead_ranks_.end())
        dead_ranks_.push_back(r);
    }
    // Health bookkeeping: a timed-out session quarantines the ranks whose
    // stall implicates them (probation starts, or restarts for a repeat
    // offender); a clean session credits every quarantined rank one step and
    // reinstates those that served their probation.
    if (out.timed_out) {
      m_.timeouts->inc();
      for (int r : out.stalls) {
        if (rank_health_.quarantine(r)) m_.quarantined->inc();
      }
    } else if (!out.error && out.deaths.empty()) {
      m_.reinstated->inc(rank_health_.record_clean_session().size());
    }
    m_.quarantined_now->set(static_cast<double>(rank_health_.quarantined_count()));
    for (std::size_t i = 0; i < out.unfinished.size(); ++i) {
      const auto& job = out.unfinished[i];
      const Disposition d = verdict.jobs[i];
      // A recoverable failure's error is kept as the job's first-failure
      // cause: what it resolves with once attempts run out.
      if (d != Disposition::Resolve && !job->original_error) job->original_error = verdict.error;
      if (d == Disposition::Resolve) {
        failed.emplace_back(job, verdict.error);
        if (!session_error) session_error = verdict.error;
      } else if (d == Disposition::Exhaust) {
        // The ORIGINAL cause (fault::RankDeath or health::SessionTimeout —
        // not a wrapper, not the latest one) lands in the handle.
        failed.emplace_back(job, job->original_error);
        if (!session_error) session_error = job->original_error;
      } else if (d == Disposition::Abort) {
        failed.emplace_back(job, abort_error());
      } else {
        // Requeue on the survivors with the job's original seq, priority
        // and submit time — recovery does not reset its place in line (and
        // aging keeps crediting the full wait).  Atomic with the in_flight_
        // erase so a flush barrier snapshot never misses the job; bypasses
        // admission (the job was already admitted).  The deterministic
        // backoff delays the next attempt: attempt k waits jittered
        // min(cap, base * 2^(k-1)) seconds keyed on (seed, seq, attempt), so
        // a fixed seed reproduces the schedule exactly.
        const double delay = backoff_.delay(job->attempts, job->seq);
        job->ready_at = delay > 0.0
                            ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(delay))
                            : Clock::time_point{};
        job->stats.retries.push_back(RetryRecord{verdict.cause, delay});
        if (delay > 0.0) m_.backoff_delay->record(delay);
        (verdict.cause == RetryCause::Timeout ? m_.requeues_timeout : m_.requeues_rank_death)
            ->inc();
        in_flight_.erase(std::remove(in_flight_.begin(), in_flight_.end(), job), in_flight_.end());
        sched_.push(job);
        requeued.push_back(job->seq);
      }
    }
    // The round's session error goes to the barriers the drain runs for:
    // blocking flush() rethrows the first one.
    if (for_barriers && session_error) {
      for (Barrier* b : barriers_)
        if (!b->error) b->error = session_error;
    }
  }
  // Fault-recovery edges: one cause-tagged instant per job sent back.
  const auto now = Clock::now();
  for (const std::uint64_t seq : requeued) {
    trace(verdict.cause == RetryCause::Timeout ? "requeue (timeout)" : "requeue (rank_death)",
          static_cast<int>(seq), seq, now);
  }
  for (const auto& [job, error] : failed) resolve_job(job, error);
}

void BatchSolver::resolve_unfinished(const std::vector<std::shared_ptr<detail::Job>>& jobs,
                                     std::exception_ptr error) {
  for (auto& job : jobs) {
    if (!job->done.load(std::memory_order_acquire)) resolve_job(job, error);
  }
}

void BatchSolver::trace(const char* name, int lane, std::uint64_t id, Clock::time_point t0,
                        std::optional<Clock::time_point> t1, int peer, double words) const {
  const auto& sink = opts_.trace();
  if (!sink) return;
  obs::TraceEvent ev;
  ev.kind = t1 ? obs::TraceEvent::Kind::Span : obs::TraceEvent::Kind::Instant;
  ev.track = 1;
  ev.rank = lane;
  ev.peer = peer;
  ev.words = words;
  ev.id = id;
  ev.name = name;
  ev.t0 = obs::trace_seconds(t0);
  ev.t1 = t1 ? obs::trace_seconds(*t1) : ev.t0;
  sink->record(std::move(ev));
}

BatchSolver::Drain BatchSolver::drain_gate_locked() const {
  if (sched_.empty() || aborting_) return Drain::Closed;
  if (opts_.async() || stop_) return Drain::Open;
  for (const Barrier* b : barriers_) {
    for (const auto& job : b->jobs)
      if (!job->done.load(std::memory_order_acquire)) return Drain::ForBarriers;
  }
  return Drain::Closed;
}

void BatchSolver::executor_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  bool draining = false;
  for (;;) {
    const Drain gate = drain_gate_locked();
    if (gate == Drain::Closed) {
      draining = false;
      if (stop_) return;  // shutdown drained the queue, or abort() owns it
      queue_cv_.wait(lock);
      continue;
    }
    // Backoff gate: when every queued job is still waiting out its retry
    // delay, sleep until the earliest ready_at (or a submission, a barrier,
    // stop) instead of busy-popping an all-delayed queue — the same drain
    // continues.  The shutdown drain ignores delays: a backing-off job must
    // still resolve before the executor dies.
    if (!stop_ && !sched_.has_ready(Clock::now())) {
      queue_cv_.wait_until(lock, *sched_.next_ready_at());
      continue;
    }
    const bool include_delayed = stop_;
    const bool starts_drain = !std::exchange(draining, true);
    lock.unlock();
    if (starts_drain) {
      // A drain (idle -> busy) re-profiles first when drift calls for it,
      // and counts as one flush before any of its jobs can resolve, so a
      // reader that observed a resolved handle also observes its dispatch.
      maybe_reprofile();
      std::lock_guard<std::mutex> count(mu_);
      m_.flushes->inc();
    }
    // One round per iteration: every iteration re-pops, so a high-priority
    // submission landing mid-drain runs next round — that is the
    // preemption granularity.  The catch is defensive: the executor must
    // survive anything, so an unexpected throw resolves the round's jobs
    // instead of terminating the process.
    try {
      const RoundPlan round = plan_round(include_delayed);
      if (!round.jobs.empty()) settle_round(run_round(round), gate == Drain::ForBarriers);
    } catch (...) {
      std::vector<std::shared_ptr<detail::Job>> stranded;
      {
        std::lock_guard<std::mutex> g(mu_);
        stranded = in_flight_;
      }
      resolve_unfinished(stranded, std::current_exception());
    }
    lock.lock();
    // Retire the round: its jobs have resolved or gone back to the queue,
    // so barriers waiting on them may return.
    in_flight_.clear();
    done_cv_.notify_all();
  }
}

bool BatchSolver::await(const std::shared_ptr<detail::Job>& job,
                        std::optional<Clock::time_point> deadline, std::exception_ptr* error) {
  std::unique_lock<std::mutex> lock(mu_);
  // A per-job barrier, never a count ("completed + failed >= submitted at
  // entry"): under priority scheduling jobs resolve out of submission
  // order, so later high-priority completions could satisfy a count while
  // an earlier low-priority job still waits.
  Barrier barrier;
  if (job) {
    barrier.jobs.push_back(job);
  } else {
    barrier.jobs = sched_.snapshot();
    barrier.jobs.insert(barrier.jobs.end(), in_flight_.begin(), in_flight_.end());
  }
  barriers_.push_back(&barrier);
  queue_cv_.notify_one();  // the drain gate may have opened
  // Settled: resolved AND retired with its round, so the round's accounting
  // is visible (and, in blocking mode, the machine idle) on return.
  const auto settled = [&]() {
    return std::all_of(barrier.jobs.begin(), barrier.jobs.end(), [&](const auto& j) {
      return j->done.load(std::memory_order_acquire) &&
             std::find(in_flight_.begin(), in_flight_.end(), j) == in_flight_.end();
    });
  };
  bool completed = true;
  if (deadline) {
    completed = done_cv_.wait_until(lock, *deadline, settled);
  } else {
    done_cv_.wait(lock, settled);
  }
  barriers_.erase(std::find(barriers_.begin(), barriers_.end(), &barrier));
  queue_cv_.notify_one();  // ... and may have closed
  if (error) *error = barrier.error;
  return completed;
}

void BatchSolver::flush() {
  std::exception_ptr error;
  await(nullptr, std::nullopt, &error);
  if (error) std::rethrow_exception(error);
}

bool BatchSolver::flush_for(double timeout_seconds) {
  QR3D_CHECK(timeout_seconds >= 0.0, "BatchSolver::flush_for: timeout must be >= 0");
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_seconds));
  return await(nullptr, deadline, nullptr);
}

void BatchSolver::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;  // closes submissions; the executor drains, then exits
  }
  queue_cv_.notify_one();
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (executor_.joinable()) executor_.join();
}

void BatchSolver::abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    aborting_ = true;
    // Interrupt the session in flight, if any (best effort; a backend that
    // cannot abort finishes the session normally and the executor then
    // observes stop_).
    machine_->request_abort();
  }
  queue_cv_.notify_one();
  std::vector<std::shared_ptr<detail::Job>> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued = sched_.drain();
  }
  resolve_unfinished(queued, abort_error());
  // One request is not enough: the executor commits to a session
  // (sessions/attempts counters) slightly before the machine run begins,
  // and request_abort() on a machine with no active run is deliberately
  // dropped — a single request landing in that window would leave a stalled
  // session un-aborted and the join below hung forever.  Retry until a live
  // run takes the abort or the executor exits on its own; aborting_ keeps
  // new sessions from starting in between.
  for (;;) {
    if (executor_exited_.load(std::memory_order_acquire)) break;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (machine_->request_abort()) break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (executor_.joinable()) executor_.join();
}
std::vector<la::Matrix> BatchSolver::solve_all(
    std::vector<std::pair<la::Matrix, la::Matrix>> problems) {
  std::vector<JobHandle> handles;
  handles.reserve(problems.size());
  for (auto& [A, b] : problems) handles.push_back(submit(std::move(A), std::move(b)));
  flush();
  std::vector<la::Matrix> xs;
  xs.reserve(handles.size());
  for (const auto& h : handles) xs.push_back(h.get());  // rethrows job errors
  return xs;
}

BatchSolver::Stats BatchSolver::stats() const {
  // Copied under mu_ — the same lock every mutation holds — so cross-counter
  // invariants (completed + failed <= submitted, recovered <= completed, ...)
  // are never observed torn.  See the Stats doc comment; pinned by the
  // stats-consistency test under TSan.
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.jobs_submitted = m_.submitted->value();
  s.jobs_completed = m_.completed->value();
  s.jobs_failed = m_.failed->value();
  s.jobs_rejected = m_.rejected->value();
  s.deadline_misses = m_.deadline_misses->value();
  s.flushes = m_.flushes->value();
  s.sessions = m_.sessions->value();
  s.reprofiles = m_.reprofiles->value();
  s.plan_cache_hits = m_.plan_hits->value();
  s.plan_cache_misses = m_.plan_misses->value();
  s.plan_cache_evictions = cache_->evictions();
  s.attempts = m_.attempts->value();
  s.recovered = m_.recovered->value();
  s.jobs_choleskyqr2 = m_.cholesky_jobs->value();
  s.cholesky_fallbacks = m_.cholesky_fallbacks->value();
  s.session_timeouts = m_.timeouts->value();
  s.requeues_timeout = m_.requeues_timeout->value();
  s.requeues_rank_death = m_.requeues_rank_death->value();
  s.ranks_quarantined = m_.quarantined->value();
  s.ranks_reinstated = m_.reinstated->value();
  s.quarantined_now = static_cast<std::uint64_t>(m_.quarantined_now->value());
  s.retry_after_seconds = m_.retry_after->value();
  s.serve_seconds = m_.serve_seconds->value();
  s.drift_samples = m_.drift->count();
  s.drift_p50 = m_.drift->quantile(0.5);
  s.drift_p95 = m_.drift->quantile(0.95);
  return s;
}

std::optional<MachineProfile> BatchSolver::profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

sim::CostParams BatchSolver::machine_params() const {
  std::lock_guard<std::mutex> lock(mu_);
  return machine_->params();
}

}  // namespace qr3d::serve
