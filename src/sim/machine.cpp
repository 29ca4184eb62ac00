#include "sim/machine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "health/timeout.hpp"
#include "la/error.hpp"
#include "sim/comm.hpp"

namespace qr3d::sim {

namespace detail {

void Mailbox::push(Envelope e) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    q_.push_back(std::move(e));
  }
  cv_.notify_all();
}

Envelope Mailbox::pop_match(int src_global, std::uint64_t context, int tag,
                            const std::function<bool()>& aborted,
                            const std::function<bool()>& src_dead) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (it->src_global == src_global && it->context == context && it->tag == tag) {
        Envelope e = std::move(*it);
        q_.erase(it);
        return e;
      }
    }
    // Death before abort: a peer's death often *causes* the abort (another
    // survivor threw RankDeath first), and the death flag is visible whenever
    // the abort it caused is — checking in this order keeps the surfaced
    // error deterministically RankDeath instead of racing on which flag the
    // waiter observes first.
    if (src_dead())
      throw fault::RankDeath(src_global, "qr3d::sim: rank " + std::to_string(src_global) +
                                             " died before sending the awaited message");
    if (aborted()) throw std::runtime_error("qr3d::sim: machine aborted while waiting for message");
    cv_.wait(lock);
  }
}

void Mailbox::notify_abort() {
  // Taking the mutex serializes with a receiver that has just evaluated its
  // wait predicate but not yet gone to sleep — notifying without it can be
  // lost, leaving the receiver blocked forever after an abort.
  std::lock_guard<std::mutex> lock(mu_);
  cv_.notify_all();
}

void Mailbox::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  q_.clear();
}

}  // namespace detail

Machine::Machine(int P, CostParams params)
    : P_(P), params_(std::move(params)), mailboxes_(static_cast<std::size_t>(P)),
      clocks_(static_cast<std::size_t>(P)), totals_(static_cast<std::size_t>(P)) {
  QR3D_CHECK(P >= 1, "machine needs at least one processor");
  // Virtual-deadline stall semantics: an injected Stall under an armed
  // session deadline does not block wall time at all — the stalling rank's
  // cost clock jumps to EXACTLY the deadline (a stalled rank makes no
  // progress, so the watchdog fires precisely when the deadline passes on
  // the predicted timeline) and throws the typed timeout.  Without a
  // deadline the hook returns and the injector wall-blocks until abort, the
  // pre-watchdog behavior.
  injector_.set_stall_hook([this](int rank) {
    const double deadline = session_deadline_;
    if (deadline <= 0.0) return;
    CostClock& clock = clocks_[static_cast<std::size_t>(rank)];
    clock.time = std::max(clock.time, deadline);
    timed_out_.store(true, std::memory_order_release);
    throw health::SessionTimeout(
        deadline, rank,
        "qr3d::sim: rank " + std::to_string(rank) +
            " stalled past the session deadline of " + std::to_string(deadline) +
            " simulated seconds (fail-slow converted to fail-stop)");
  });
}

void Machine::check_deadline(const CostClock& clock, int rank) {
  const double deadline = session_deadline_;
  if (deadline <= 0.0 || clock.time <= deadline) return;
  timed_out_.store(true, std::memory_order_release);
  throw health::SessionTimeout(
      deadline, rank,
      "qr3d::sim: rank " + std::to_string(rank) + " crossed the session deadline of " +
          std::to_string(deadline) + " simulated seconds at predicted time " +
          std::to_string(clock.time));
}

void Machine::run(const std::function<void(backend::Comm&)>& body) {
  for (auto& mb : mailboxes_) mb.clear();
  for (auto& c : clocks_) c = CostClock{};
  for (auto& t : totals_) t = CostTotals{};
  aborted_ = false;
  timed_out_.store(false, std::memory_order_relaxed);
  next_context_ = 1;
  injector_.reset_run();
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    run_active_ = true;  // after the resets: an abort landing now sticks
  }

  auto world = std::make_shared<detail::GroupShared>();
  world->context = 0;
  world->members.resize(static_cast<std::size_t>(P_));
  for (int p = 0; p < P_; ++p) world->members[static_cast<std::size_t>(p)] = p;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(P_));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(P_));
  for (int p = 0; p < P_; ++p) {
    threads.emplace_back([this, p, &body, &world, &errors]() {
      backend::Comm comm(std::make_shared<SimComm>(this, world, p,
                                                   &clocks_[static_cast<std::size_t>(p)],
                                                   &totals_[static_cast<std::size_t>(p)]));
      try {
        body(comm);
      } catch (const fault::detail::InjectedKill&) {
        // An injected death is not an error of the run: mark the rank dead
        // and wake every blocked receiver so survivors detect it and either
        // handle it or fail with fault::RankDeath.
        injector_.mark_dead(p);
        if (obs::TraceSink* ts = trace_.get()) {
          obs::TraceEvent ev;
          ev.kind = obs::TraceEvent::Kind::Instant;
          ev.rank = p;
          ev.name = "rank_death";
          ev.t0 = ev.t1 = trace_base_ + clocks_[static_cast<std::size_t>(p)].time;
          ts->record(std::move(ev));
        }
        for (auto& mb : mailboxes_) mb.notify_abort();
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
        aborted_ = true;
        for (auto& mb : mailboxes_) mb.notify_abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    run_active_ = false;
  }
  wall_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // Advance the trace-time base past this session so the next run's
  // predicted timeline starts where this one ended.
  if (trace_) trace_base_ += critical_path().time;

  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

bool Machine::request_abort() {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (!run_active_) return false;
  aborted_ = true;
  // Wake every blocked receiver; injected stalls poll aborted_ directly.
  for (auto& mb : mailboxes_) mb.notify_abort();
  return true;
}

CostClock Machine::critical_path() const {
  CostClock c;
  for (const auto& rc : clocks_) c.merge(rc);
  return c;
}

const CostClock& Machine::rank_clock(int p) const {
  QR3D_CHECK(p >= 0 && p < P_, "rank out of range");
  return clocks_[static_cast<std::size_t>(p)];
}

CostTotals Machine::totals() const {
  CostTotals t;
  for (const auto& rt : totals_) t += rt;
  return t;
}

}  // namespace qr3d::sim
