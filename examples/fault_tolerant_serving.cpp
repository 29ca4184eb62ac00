// Fault-tolerant serving: deterministic fault injection and self-healing
// requeue in one program.
//
// Two escalating demonstrations of the fault subsystem (src/fault/):
//
//   1. A scripted kill (fault::Plan::kill) takes a rank down mid-session;
//      the BatchSolver detects the death (fault::RankDeath), excludes the
//      dead rank from every later session, requeues the unfinished jobs on
//      the survivors, and completes 100% of the batch — JobStats::attempts
//      and ::recovered record which jobs needed the second try.
//   2. With retries disabled (with_max_attempts(1)), the same death
//      resolves the affected handles with the ORIGINAL fault::RankDeath —
//      get() rethrows exactly what the machine threw.
//
// The same snippets appear in docs/SERVING.md ("Fault tolerance") — keep
// them in sync.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <vector>

#include "qr3d.hpp"

namespace fault = qr3d::fault;
namespace la = qr3d::la;
namespace serve = qr3d::serve;

namespace {

struct Planted {
  la::Matrix A, b, x_true;
};

Planted planted_problem(la::index_t m, la::index_t n, std::uint64_t seed) {
  Planted p;
  p.A = la::random_matrix(m, n, seed);
  p.x_true = la::random_matrix(n, 1, seed + 1);
  p.b = la::multiply<double>(la::Op::NoTrans, p.A.view(), la::Op::NoTrans, p.x_true.view());
  return p;
}

double error_vs(const la::Matrix& x, const la::Matrix& x_true) {
  la::Matrix dx = la::copy<double>(x.view());
  la::add(-1.0, la::ConstMatrixView(x_true.view()), dx.view());
  return la::frobenius_norm(dx.view());
}

}  // namespace

int main() {
  // --- 1. Self-healing: a rank dies, the batch still completes. ------------
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(4).with_group_ranks(2));
  // Script the failure while the machine is idle: kill rank 3 at its 5th
  // communication op — mid-job, deterministically, on the thread backend.
  // (A round here holds one 64x12 job per 2-rank group, and rank 3 issues at
  // most six comm ops per session, so a later step would never fire.)
  srv.machine().set_fault_plan(fault::Plan::kill(3, 5));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 6; ++j) {
    problems.push_back(planted_problem(64, 12, 100 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.flush();

  double worst = 0.0;
  int recovered_jobs = 0;
  for (int j = 0; j < 6; ++j) {
    const serve::JobHandle& h = handles[static_cast<std::size_t>(j)];
    worst = std::max(worst, error_vs(h.get(), problems[static_cast<std::size_t>(j)].x_true));
    if (h.stats().recovered) ++recovered_jobs;
  }
  const auto st = srv.stats();
  std::printf("rank 3 killed mid-batch: %llu/%llu jobs completed, %d requeued and recovered\n",
              static_cast<unsigned long long>(st.jobs_completed),
              static_cast<unsigned long long>(st.jobs_submitted), recovered_jobs);
  std::printf("attempts=%llu (> jobs: the survivors reran the unfinished ones), worst error %.2e\n",
              static_cast<unsigned long long>(st.attempts), worst);

  // --- 2. Retry exhaustion: the original RankDeath reaches the caller. -----
  serve::BatchSolver strict(
      serve::ServeOptions().with_ranks(2).with_group_ranks(2).with_max_attempts(1));
  fault::Plan always;
  always.events.push_back(fault::Event{1, 5, fault::Action::Kill, /*every_run=*/true});
  strict.machine().set_fault_plan(std::move(always));
  Planted doomed = planted_problem(48, 8, 900);
  serve::JobHandle h = strict.submit(doomed.A, doomed.b);
  bool rethrew = false;
  try {
    strict.flush();
  } catch (const fault::RankDeath& rd) {
    rethrew = true;
    std::printf("with_max_attempts(1): flush rethrew the original death of rank %d\n", rd.rank());
  }

  return (worst < 1e-8 && recovered_jobs > 0 && rethrew) ? 0 : 1;
}
