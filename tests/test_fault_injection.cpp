// The fault subsystem, simulator-first: deterministic kill/stall plans
// (fault::Plan + backend::Machine::set_fault_plan), death detection at the
// next communication op (fault::RankDeath), and the serving layer's
// self-healing requeue (serve::BatchSolver attempts/recovered).  The thread
// backend runs the same scenarios — this suite is in the TSan CI job, so the
// dead-rank wakeups and requeue handoffs are data-race claims too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qr3d.hpp"

namespace backend = qr3d::backend;
namespace fault = qr3d::fault;
namespace la = qr3d::la;
namespace serve = qr3d::serve;
namespace sim = qr3d::sim;
using la::index_t;

namespace {

struct Planted {
  la::Matrix A, b, x_true;
};

Planted planted_problem(index_t m, index_t n, std::uint64_t seed) {
  Planted p;
  p.A = la::random_matrix(m, n, seed);
  p.x_true = la::random_matrix(n, 1, seed + 1);
  p.b = la::multiply<double>(la::Op::NoTrans, p.A.view(), la::Op::NoTrans, p.x_true.view());
  return p;
}

double solution_error(const la::Matrix& x, const la::Matrix& x_true) {
  la::Matrix dx = la::copy<double>(x.view());
  la::add(-1.0, la::ConstMatrixView(x_true.view()), dx.view());
  return la::frobenius_norm(dx.view()) / (1.0 + la::frobenius_norm(x_true.view()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Injection semantics on the simulator (the oracle)
// ---------------------------------------------------------------------------

TEST(FaultInjection, KilledRankIsDetectedByItsReceiver) {
  sim::Machine machine(4);
  machine.set_fault_plan(fault::Plan::kill(1, 1));  // rank 1 dies at its first op
  EXPECT_THROW(machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {1.0}, 5);  // never happens: the op kills it
    if (c.rank() == 0) (void)c.recv(1, 5);   // detects the death
  }),
               fault::RankDeath);
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});
}

TEST(FaultInjection, DeathIsDetectedNotRetroactive) {
  // Messages sent before the death are still delivered in order; only the
  // message that never comes surfaces RankDeath.
  sim::Machine machine(2);
  machine.set_fault_plan(fault::Plan::kill(1, 2));  // first op survives
  int phase = 0;
  machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) {
      c.send(0, {42.0}, 5);  // step 1: delivered
      c.send(0, {43.0}, 5);  // step 2: the kill fires instead
    }
    if (c.rank() == 0) {
      std::vector<double> first = c.recv(1, 5);
      EXPECT_EQ(first[0], 42.0);
      phase = 1;
      try {
        (void)c.recv(1, 5);
        ADD_FAILURE() << "second recv should observe the death";
      } catch (const fault::RankDeath& rd) {
        EXPECT_EQ(rd.rank(), 1);
        phase = 2;
      }
    }
  });
  // Survivor handled the death => the run completes NORMALLY.
  EXPECT_EQ(phase, 2);
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});
}

TEST(FaultInjection, OneShotEventsStayConsumedAcrossRuns) {
  sim::Machine machine(2);
  machine.set_fault_plan(fault::Plan::kill(1, 1));
  auto body = [&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {7.0}, 3);
    if (c.rank() == 0) {
      EXPECT_EQ(c.recv(1, 3)[0], 7.0);
    }
  };
  EXPECT_THROW(machine.run(body), fault::RankDeath);
  // The event fired; the retry (same machine, same plan) runs clean — this
  // is what makes the serving layer's requeue succeed.
  machine.run(body);
  EXPECT_TRUE(machine.last_run_deaths().empty());
}

TEST(FaultInjection, EveryRunEventsRearm) {
  sim::Machine machine(2);
  fault::Plan plan;
  plan.events.push_back(fault::Event{1, 1, fault::Action::Kill, /*every_run=*/true});
  machine.set_fault_plan(std::move(plan));
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(machine.run([&](backend::Comm& c) {
      if (c.rank() == 1) c.send(0, {1.0}, 3);
      if (c.rank() == 0) (void)c.recv(1, 3);
    }),
                 fault::RankDeath)
        << "round " << round;
    EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});
  }
  // Installing an empty plan disarms.
  machine.set_fault_plan(fault::Plan{});
  machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {1.0}, 3);
    if (c.rank() == 0) (void)c.recv(1, 3);
  });
  EXPECT_TRUE(machine.last_run_deaths().empty());
}

TEST(FaultInjection, DeathDuringSplitSurfacesRankDeath) {
  sim::Machine machine(4);
  // Rank 2's first comm op is the send below, before its split: it dies and
  // never reaches the rendezvous, which must not hang the others.
  machine.set_fault_plan(fault::Plan::kill(2, 1));
  EXPECT_THROW(machine.run([&](backend::Comm& c) {
    if (c.rank() == 2) c.send(3, {1.0}, 9);
    backend::Comm half = c.split(c.rank() % 2, c.rank());
    (void)half;
  }),
               fault::RankDeath);
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{2});
}

TEST(FaultInjection, RandomKillPlansAreSeedDeterministic) {
  const fault::Plan a = fault::Plan::random_kills(8, 3, 20, 42);
  const fault::Plan b = fault::Plan::random_kills(8, 3, 20, 42);
  ASSERT_EQ(a.events.size(), 3u);
  std::vector<int> ranks;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].rank, b.events[i].rank);
    EXPECT_EQ(a.events[i].step, b.events[i].step);
    EXPECT_GE(a.events[i].rank, 0);
    EXPECT_LT(a.events[i].rank, 8);
    EXPECT_GE(a.events[i].step, 1u);
    EXPECT_LE(a.events[i].step, 20u);
    ranks.push_back(a.events[i].rank);
  }
  std::sort(ranks.begin(), ranks.end());
  EXPECT_TRUE(std::adjacent_find(ranks.begin(), ranks.end()) == ranks.end())
      << "kills must target distinct ranks";
  const fault::Plan c = fault::Plan::random_kills(8, 3, 20, 43);
  bool differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    if (c.events[i].rank != a.events[i].rank || c.events[i].step != a.events[i].step)
      differs = true;
  }
  EXPECT_TRUE(differs) << "different seeds should give different plans";
}

TEST(FaultInjection, PlanValidation) {
  sim::Machine machine(2);
  EXPECT_THROW(machine.set_fault_plan(fault::Plan::kill(2, 1)), std::invalid_argument);
  EXPECT_THROW(machine.set_fault_plan(fault::Plan::kill(-1, 1)), std::invalid_argument);
  fault::Plan zero_step;
  zero_step.events.push_back(fault::Event{0, 0, fault::Action::Kill, false});
  EXPECT_THROW(machine.set_fault_plan(std::move(zero_step)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The thread backend conforms to the oracle's fault semantics
// ---------------------------------------------------------------------------

TEST(FaultInjectionThread, KilledRankIsDetectedAndMachineStaysUsable) {
  backend::ThreadMachine machine(4);
  machine.set_fault_plan(fault::Plan::kill(1, 1));
  EXPECT_THROW(machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {1.0}, 5);
    if (c.rank() == 0) (void)c.recv(1, 5);
  }),
               fault::RankDeath);
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});

  // One-shot event consumed: the same machine serves the next run cleanly.
  machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {8.0}, 5);
    if (c.rank() == 0) {
      EXPECT_EQ(c.recv(1, 5)[0], 8.0);
    }
  });
  EXPECT_TRUE(machine.last_run_deaths().empty());
}

TEST(FaultInjectionThread, SurvivorHandlingDeathCompletesTheRun) {
  backend::ThreadMachine machine(2);
  machine.set_fault_plan(fault::Plan::kill(1, 2));
  machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) {
      c.send(0, {42.0}, 5);
      c.send(0, {43.0}, 5);  // the kill fires here
    }
    if (c.rank() == 0) {
      EXPECT_EQ(c.recv(1, 5)[0], 42.0);  // pre-death message still delivered
      EXPECT_THROW((void)c.recv(1, 5), fault::RankDeath);
    }
  });
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});
}

// ---------------------------------------------------------------------------
// Self-healing serving
// ---------------------------------------------------------------------------

TEST(SelfHealingServe, SingleKillRequeuesAndCompletesAllJobs_Sim) {
  const int P = 4;
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(fault::Plan::kill(3, 9));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 6; ++j) {
    problems.push_back(planted_problem(48, 8, 500 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.flush();

  for (int j = 0; j < 6; ++j) {
    EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                             problems[static_cast<std::size_t>(j)].x_true),
              1e-10)
        << "job " << j;
    EXPECT_GE(handles[static_cast<std::size_t>(j)].stats().attempts, 1);
  }
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_completed, 6u);
  EXPECT_EQ(st.jobs_failed, 0u);
  // Rank 3 died mid-session: at least one job was requeued and recovered.
  EXPECT_GE(st.recovered, 1u);
  EXPECT_GT(st.attempts, 6u);
  bool any_recovered = false;
  for (const auto& h : handles) {
    if (h.stats().recovered) {
      any_recovered = true;
      EXPECT_GE(h.stats().attempts, 2);
    }
  }
  EXPECT_TRUE(any_recovered);
}

TEST(SelfHealingServe, SingleKillRequeuesAndCompletesAllJobs_Thread) {
  const int P = 4;
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2);
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(fault::Plan::kill(3, 9));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 6; ++j) {
    problems.push_back(planted_problem(48, 8, 700 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.flush();

  for (int j = 0; j < 6; ++j) {
    EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                             problems[static_cast<std::size_t>(j)].x_true),
              1e-10)
        << "job " << j;
  }
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_completed, 6u);
  EXPECT_EQ(st.jobs_failed, 0u);
  EXPECT_GE(st.recovered, 1u);
}

namespace {

/// The sweep's step classes for `victim`: the first, ~1/4, 1/2, ~3/4 and
/// last comm op it issues in one clean session of the sweep's four jobs
/// under `opts`.  Every session runs one job per group, so sessions issue
/// equal op counts and a traced clean run's count divides evenly.  Deriving
/// the steps keeps every class inside a session when the algorithms change
/// how many messages they send.
std::vector<std::uint64_t> step_classes(serve::ServeOptions opts, int victim) {
  auto trace = std::make_shared<qr3d::obs::TraceBuffer>();
  opts.with_trace(trace);
  serve::BatchSolver srv(opts);
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 4; ++j) {
    const Planted p = planted_problem(40, 8, 900 + 2 * static_cast<std::uint64_t>(j));
    handles.push_back(srv.submit(p.A, p.b));
  }
  srv.flush();
  std::uint64_t ops = 0;
  for (const auto& e : trace->events())
    if (e.track == 0 && e.rank == victim &&
        (e.kind == qr3d::obs::TraceEvent::Kind::Send ||
         e.kind == qr3d::obs::TraceEvent::Kind::Recv))
      ++ops;
  EXPECT_GE(srv.stats().sessions, 1u);
  const std::uint64_t sessions = std::max<std::uint64_t>(1, srv.stats().sessions);
  EXPECT_EQ(ops % sessions, 0u) << "sessions issued unequal op counts";
  const std::uint64_t last = ops / sessions;
  EXPECT_GE(last, 4u) << "too few comm ops per session for a sweep";
  return {1, std::max<std::uint64_t>(1, last / 4), last / 2, 3 * last / 4, last};
}

}  // namespace

TEST(SelfHealingServe, DeterministicFaultSweepCompletesEveryJob) {
  // The sweep the CI smoke pins: kill each rank at each step class on the
  // sim backend; whatever the timing, the BatchSolver must complete 100% of
  // the jobs (recovered or first-try — never failed, never hung).
  const int P = 4;
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  for (int victim = 0; victim < P; ++victim) {
    for (std::uint64_t step : step_classes(opts, victim)) {
      serve::BatchSolver srv(opts);
      srv.machine().set_fault_plan(fault::Plan::kill(victim, step));

      std::vector<Planted> problems;
      std::vector<serve::JobHandle> handles;
      for (int j = 0; j < 4; ++j) {
        problems.push_back(planted_problem(40, 8, 900 + 2 * static_cast<std::uint64_t>(j)));
        handles.push_back(srv.submit(problems.back().A, problems.back().b));
      }
      srv.flush();
      for (int j = 0; j < 4; ++j) {
        EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                                 problems[static_cast<std::size_t>(j)].x_true),
                  1e-10)
            << "victim " << victim << " step " << step << " job " << j;
      }
      const auto st = srv.stats();
      EXPECT_EQ(st.jobs_completed, 4u) << "victim " << victim << " step " << step;
      EXPECT_EQ(st.jobs_failed, 0u) << "victim " << victim << " step " << step;
      // Every scripted kill fires, also where it lands after the round's
      // jobs resolved and nothing is requeued.
      EXPECT_GE(st.rank_deaths, 1u) << "victim " << victim << " step " << step;
    }
  }
}

TEST(SelfHealingServe, TraceRecordsDeathAndRequeue) {
  // The observability contract for fault recovery: a traced serving run that
  // suffers a rank death records a "rank_death" instant on the machine track
  // (the victim's rank, at its death time) and a cause-tagged
  // "requeue (rank_death)" instant per job sent back to the queue on the
  // serving track — and both survive into the
  // Chrome trace export the kill-sweep smoke ships as a CI artifact.
  const int P = 4;
  auto trace = std::make_shared<qr3d::obs::TraceBuffer>();
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2).with_trace(trace).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(fault::Plan::kill(3, 9));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 6; ++j) {
    problems.push_back(planted_problem(48, 8, 600 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.flush();
  const auto st = srv.stats();
  ASSERT_EQ(st.jobs_completed, 6u);
  ASSERT_EQ(st.jobs_failed, 0u);
  ASSERT_GE(st.recovered, 1u);

  int deaths = 0, requeues = 0;
  for (const auto& e : trace->events()) {
    if (e.kind != qr3d::obs::TraceEvent::Kind::Instant) continue;
    if (e.name == "rank_death") {
      ++deaths;
      EXPECT_EQ(e.track, 0);  // machine track
      EXPECT_EQ(e.rank, 3);   // the planned victim
    } else if (e.name == "requeue (rank_death)") {
      ++requeues;
      EXPECT_EQ(e.track, 1);  // serving track
    }
  }
  EXPECT_GE(deaths, 1);
  EXPECT_GE(requeues, 1);

  const std::string json = qr3d::obs::chrome_trace_json(trace->events());
  EXPECT_NE(json.find("rank_death"), std::string::npos);
  EXPECT_NE(json.find("requeue"), std::string::npos);
}

TEST(SelfHealingServe, ExhaustedRetriesRethrowOriginalRankDeath) {
  // max_attempts = 1: the first rank death resolves the unfinished jobs with
  // the ORIGINAL machine-session exception — a fault::RankDeath, not some
  // serving-layer wrapper — which get() rethrows.
  const int P = 2;
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2).with_max_attempts(1).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  fault::Plan plan;
  plan.events.push_back(fault::Event{1, 5, fault::Action::Kill, /*every_run=*/true});
  srv.machine().set_fault_plan(std::move(plan));

  Planted p = planted_problem(32, 8, 1111);
  serve::JobHandle h = srv.submit(p.A, p.b);
  EXPECT_THROW(srv.flush(), fault::RankDeath);  // blocking flush rethrows
  EXPECT_TRUE(h.ready());
  EXPECT_THROW(h.get(), fault::RankDeath);
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_failed, 1u);
  EXPECT_EQ(st.recovered, 0u);

  // The solver itself keeps serving: disarm and submit again.
  srv.machine().set_fault_plan(fault::Plan{});
  Planted q = planted_problem(32, 8, 2222);
  serve::JobHandle h2 = srv.submit(q.A, q.b);
  srv.flush();
  EXPECT_LT(solution_error(h2.get(), q.x_true), 1e-10);
}

// ---------------------------------------------------------------------------
// Chaos: mixed random kills and stalls (src/health/ + self-healing together)
// ---------------------------------------------------------------------------

namespace {

namespace health = qr3d::health;

/// Bitwise equality: a recovered job must reproduce the clean run exactly
/// (the retry runs at the same group size, so the arithmetic is identical).
void expect_bitwise_equal(const la::Matrix& a, const la::Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      ASSERT_EQ(a(i, j), b(i, j)) << what << " differs at (" << i << ", " << j << ")";
}

/// Serving options for the chaos sweep: fixed group size (bitwise retries),
/// enough attempts to outlast one kill + one stall, the fail-slow watchdog
/// armed, and tiny declared params so the deadline floor governs (0.05
/// virtual seconds on the simulator, 0.2 wall seconds on threads).
serve::ServeOptions chaos_opts(qr3d::Backend be) {
  serve::ServeOptions opts;
  opts.with_ranks(4)
      .with_group_ranks(2)
      .with_max_attempts(4)
      .with_session_timeout_factor(3.0)
      .with_qr(qr3d::QrOptions().with_tune_for_machine().with_backend(be))
      .with_params(sim::CostParams{1e-7, 1e-9, 1e-10});
  opts.with_session_timeout_floor(be == qr3d::Backend::Thread ? 0.2 : 0.05);
  return opts;
}

}  // namespace

TEST(FaultPlan, RandomFaultsPreserveTheKillDraw) {
  // Adding stalls to a chaos plan must not reshuffle the kill draw: the
  // kill prefix of random_faults is bit-identical to random_kills under the
  // same seed, so a kills-only baseline stays comparable.
  for (std::uint64_t seed : {7u, 42u, 1234u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto kills = fault::Plan::random_kills(8, 3, 20, seed);
    const auto none = fault::Plan::random_faults(8, 3, 0, 20, seed);
    const auto mixed = fault::Plan::random_faults(8, 3, 2, 20, seed);
    ASSERT_EQ(none.events.size(), kills.events.size());
    ASSERT_EQ(mixed.events.size(), kills.events.size() + 2);
    for (std::size_t i = 0; i < kills.events.size(); ++i) {
      for (const auto* p : {&none.events[i], &mixed.events[i]}) {
        EXPECT_EQ(p->rank, kills.events[i].rank) << "event " << i;
        EXPECT_EQ(p->step, kills.events[i].step) << "event " << i;
        EXPECT_EQ(p->action, fault::Action::Kill) << "event " << i;
      }
    }
    for (std::size_t i = kills.events.size(); i < mixed.events.size(); ++i)
      EXPECT_EQ(mixed.events[i].action, fault::Action::Stall) << "event " << i;
  }
}


TEST(SelfHealingServe, StallSweepCompletesEveryJob) {
  // The stall-side counterpart of DeterministicFaultSweepCompletesEveryJob
  // (the CI smoke runs both): stall each rank at each step class; with the
  // watchdog armed the BatchSolver must complete 100% of the jobs.
  const int P = 4;
  for (int victim = 0; victim < P; ++victim) {
    for (std::uint64_t step : step_classes(chaos_opts(qr3d::Backend::Simulated), victim)) {
      SCOPED_TRACE("victim=" + std::to_string(victim) + " step=" + std::to_string(step));
      serve::BatchSolver srv(chaos_opts(qr3d::Backend::Simulated));
      srv.machine().set_fault_plan(fault::Plan::stall(victim, step));

      std::vector<Planted> problems;
      std::vector<serve::JobHandle> handles;
      for (int j = 0; j < 4; ++j) {
        problems.push_back(planted_problem(40, 8, 900 + 2 * static_cast<std::uint64_t>(j)));
        handles.push_back(srv.submit(problems.back().A, problems.back().b));
      }
      srv.flush();
      for (int j = 0; j < 4; ++j) {
        EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                                 problems[static_cast<std::size_t>(j)].x_true),
                  1e-10)
            << "job " << j;
      }
      const auto st = srv.stats();
      EXPECT_EQ(st.jobs_completed, 4u);
      EXPECT_EQ(st.jobs_failed, 0u);
      EXPECT_GE(st.session_timeouts, 1u);
    }
  }
}

TEST(SelfHealingServe, ChaosSweepMixedKillsAndStalls) {
  // Seeded chaos on both backends: one random kill AND one random stall per
  // run.  Whatever the interleaving, every job must either complete bitwise
  // identical to a clean run or fail with the original typed error — never
  // hang, never surface a wrapper.  The seed is in the trace so a failure
  // reproduces exactly.
  const index_t m = 40, n = 8;
  const int kJobs = 4;
  std::vector<Planted> problems;
  for (int j = 0; j < kJobs; ++j)
    problems.push_back(planted_problem(m, n, 3000 + 2 * static_cast<std::uint64_t>(j)));

  for (qr3d::Backend be : {qr3d::Backend::Simulated, qr3d::Backend::Thread}) {
    // Clean reference run per backend (identical options, no faults).
    std::vector<la::Matrix> clean;
    {
      serve::BatchSolver srv(chaos_opts(be));
      std::vector<serve::JobHandle> hs;
      for (const auto& p : problems) hs.push_back(srv.submit(p.A, p.b));
      srv.flush();
      for (auto& h : hs) clean.push_back(h.get());
    }

    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(be == qr3d::Backend::Simulated ? "sim" : "thread") +
                   " seed=" + std::to_string(seed));
      serve::BatchSolver srv(chaos_opts(be));
      srv.machine().set_fault_plan(fault::Plan::random_faults(4, 1, 1, 12, seed));

      std::vector<serve::JobHandle> hs;
      for (const auto& p : problems) hs.push_back(srv.submit(p.A, p.b));
      srv.flush();

      for (int j = 0; j < kJobs; ++j) {
        const auto& h = hs[static_cast<std::size_t>(j)];
        ASSERT_TRUE(h.ready()) << "job " << j << " left unresolved";
        try {
          expect_bitwise_equal(h.get(), clean[static_cast<std::size_t>(j)], "chaos");
        } catch (const fault::RankDeath&) {
          // Typed original error: acceptable only if retries were exhausted.
        } catch (const health::SessionTimeout&) {
          // Likewise for the fail-slow path.
        }
      }
      const auto st = srv.stats();
      EXPECT_EQ(st.jobs_completed + st.jobs_failed, static_cast<std::uint64_t>(kJobs));
      // One kill + one stall against four attempts: nothing should exhaust.
      EXPECT_EQ(st.jobs_failed, 0u);
    }
  }
}
