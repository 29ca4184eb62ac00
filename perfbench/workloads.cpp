// Workloads, generated inputs, and the two operation loops (served and
// direct) shared by the end-to-end and the traced runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

using qr3d::backend::Comm;

/// Jobs outstanding in serve_small's closed loop: 2 x ranks.
constexpr std::size_t kServeInflight = 2 * kRanks;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"serve_small", true, {96, 24}},
      {"factor_tall", false, {65536, 64}},
  };
  return all;
}

/// Distinct inputs generated: enough that ops do not all hit one warm
/// matrix, few enough that the one-core references stay cheap.
std::size_t pool_size(const Shape& s) {
  const double words = static_cast<double>(s.m) * static_cast<double>(s.n);
  return words >= 1e6 ? 2 : words >= 1e5 ? 4 : 16;
}

/// splitmix64: the seed expander for inputs and the closed loop's picks.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stats once the executor has finished its bookkeeping: a job resolves
/// inside its machine session, and the session's time is added to
/// serve_seconds only after the session returns, so a snapshot taken right
/// after the last job resolved can miss it.  Waits (up to a second) until
/// two snapshots 10 ms apart agree.
serve::BatchSolver::Stats settled_stats(const serve::BatchSolver& srv) {
  serve::BatchSolver::Stats prev = srv.stats();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const serve::BatchSolver::Stats cur = srv.stats();
    if (cur.serve_seconds == prev.serve_seconds && cur.sessions == prev.sessions) return cur;
    prev = cur;
  }
  return prev;
}

/// One-core least squares: geqrt, apply Q^H, triangular solve.
la::Matrix serial_least_squares(const la::Matrix& A, const la::Matrix& b) {
  const la::index_t n = A.cols();
  la::Matrix F = A;
  la::Matrix T(n, n);
  la::geqrt<double>(F.view(), T.view());
  const la::Matrix V = la::extract_v<double>(F.view());
  la::Matrix c = b;
  la::apply_q<double>(V.view(), T.view(), la::Op::ConjTrans, c.view());
  const la::Matrix R = la::extract_r<double>(F.view());
  la::Matrix x(n, b.cols());
  for (la::index_t j = 0; j < b.cols(); ++j)
    for (la::index_t i = 0; i < n; ++i) x(i, j) = c(i, j);
  la::trsm<double>(la::Side::Left, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0,
                   R.view(), x.view());
  return x;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

bool answer_ok(const la::Matrix& x, const la::Matrix& x_ref) {
  if (x.rows() != x_ref.rows() || x.cols() != x_ref.cols()) return false;
  const double err = la::diff_norm(x.view(), x_ref.view());
  const double ref = la::frobenius_norm(x_ref.view());
  return std::isfinite(err) && err <= kTolerance * ref;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  std::vector<double> times;
  for (std::size_t i = 0; i < pool_size(w.shape); ++i) {
    const std::uint64_t key = mix(seed ^ mix(i));
    Problem p;
    p.A = la::random_matrix(w.shape.m, w.shape.n, key);
    p.b = la::random_matrix(w.shape.m, 1, mix(key));
    const double t0 = now();
    p.x_ref = serial_least_squares(p.A, p.b);
    times.push_back(now() - t0);
    in.pool.push_back(std::move(p));
  }
  in.serial_seconds = median(times);
  return in;
}

serve::ServeOptions serve_options() {
  return serve::ServeOptions{}.with_ranks(kRanks).with_async();
}

bool served_once(serve::BatchSolver& srv, const Problem& p) {
  try {
    return answer_ok(srv.submit(p.A, p.b).get(), p.x_ref);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: job failed: %s\n", e.what());
    return false;
  }
}

qr3d::QrOptions direct_qr_options() {
  return qr3d::QrOptions().with_backend(qr3d::Backend::Thread);
}

std::unique_ptr<qr3d::backend::Machine> make_thread_machine() {
  return qr3d::make_machine(direct_qr_options(), kRanks);
}

std::size_t Phase::measured_ops() const {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [](const Op& o) { return o.measured; }));
}

// --- Served loop ---------------------------------------------------------------

Phase run_served(const Inputs& in, serve::BatchSolver& srv, const RunOptions& ro) {
  Phase ph;
  struct Pending {
    serve::JobHandle h;
    std::size_t op;
    const la::Matrix* x_ref;
  };
  std::vector<Pending> pending;
  ph.window_start = now() + ro.warmup_seconds;
  const double stop = ph.window_start + ro.seconds;
  std::uint64_t pick = ro.seed ^ 0x636c6f736564ULL;
  const std::size_t inflight = ro.inflight ? ro.inflight : kServeInflight;
  ph.stats_before = settled_stats(srv);

  const auto submit = [&] {
    Op op;
    op.id = ph.ops.size();
    const Problem& p = in.pool[static_cast<std::size_t>((pick = mix(pick)) % in.pool.size())];
    la::Matrix A = p.A, b = p.b;  // the job owns its inputs, as a caller's would
    op.start = now();
    op.measured = op.start >= ph.window_start;
    serve::JobHandle h = srv.submit(std::move(A), std::move(b));
    op.submit_seconds = now() - op.start;
    pending.push_back({std::move(h), ph.ops.size(), &p.x_ref});
    ph.ops.push_back(std::move(op));
  };
  // Stamp every resolved job with completion time `t` and check its answer.
  const auto finish = [&](double t) {
    std::erase_if(pending, [&](Pending& pd) {
      if (!pd.h.ready()) return false;
      Op& op = ph.ops[pd.op];
      op.end = t;
      try {
        op.ok = answer_ok(pd.h.get(), *pd.x_ref);
        op.job = pd.h.stats();
      } catch (...) {
        op.ok = false;
      }
      return true;
    });
  };

  for (;;) {
    while (pending.size() < inflight && now() < stop) submit();
    if (pending.empty()) break;
    pending.front().h.wait();
    finish(now());
  }

  ph.window_end = ph.window_start;
  for (const Op& op : ph.ops)
    if (op.measured) ph.window_end = std::max(ph.window_end, op.end);
  ph.stats = settled_stats(srv);

  if (ro.tracer) {
    for (const Op& op : ph.ops) {
      if (!op.measured || !op.ok) continue;
      Tracer& tr = *ro.tracer;
      const int root = tr.add("bench.op", op.start, op.end, op.id, -1);
      tr.add("serve.submit", op.start, op.start + op.submit_seconds, op.id, root);
      const double q1 = op.start + op.job.queue_seconds;
      const double e1 = q1 + op.job.exec_seconds;
      tr.add("serve.queue", op.start, q1, op.id, root);
      const int exec = tr.add("serve.exec", q1, e1, op.id, root);
      tr.add("backend.job", e1 - op.job.wall_seconds, e1, op.id, exec);
    }
  }
  return ph;
}

// --- Direct loop ---------------------------------------------------------------

Phase run_direct(const Inputs& in, qr3d::backend::Machine& machine, const qr3d::Solver& solver,
                 const RunOptions& ro) {
  Phase ph;
  const double begin = now();
  ph.window_start = begin + ro.warmup_seconds;
  const double stop = ph.window_start + ro.seconds;
  const int P = machine.size();
  bool any_measured = false;
  for (std::size_t i = 0;; ++i) {
    const double t = now();
    // Past the window, stop -- but only once an op started inside it, so an
    // op longer than the warm-up cannot leave the phase without samples.
    if (t >= stop && any_measured && ph.ops.size() >= ro.min_ops) break;
    Op op;
    op.id = ph.ops.size();
    op.measured = t >= ph.window_start;
    any_measured = any_measured || op.measured;
    const Problem& p = in.pool[i % in.pool.size()];
    op.rank_t.assign(static_cast<std::size_t>(4 * P), 0.0);
    la::Matrix x;
    op.start = now();
    try {
      machine.run([&](Comm& c) {
        double* st = &op.rank_t[static_cast<std::size_t>(4 * c.rank())];
        st[0] = now();
        const qr3d::DistMatrix A = qr3d::DistMatrix::from_global(c, p.A.view());
        const qr3d::DistMatrix B = qr3d::DistMatrix::from_global(c, p.b.view());
        st[1] = now();
        const qr3d::Factorization f = solver.factor(A);
        st[2] = now();
        la::Matrix xs = f.solve_least_squares(B);
        st[3] = now();
        if (c.rank() == 0) x = std::move(xs);
      });
      op.end = now();
      op.ok = answer_ok(x, p.x_ref);
    } catch (...) {
      op.end = now();
      op.ok = false;
    }
    ph.ops.push_back(std::move(op));
  }
  // The window runs from the first measured op's start to the last one's
  // end: the op that straddles the warm-up boundary belongs to neither.
  ph.window_start = std::numeric_limits<double>::infinity();
  ph.window_end = 0.0;
  for (const Op& op : ph.ops) {
    if (!op.measured) continue;
    ph.window_start = std::min(ph.window_start, op.start);
    ph.window_end = std::max(ph.window_end, op.end);
  }

  if (ro.tracer) {
    static const char* kCalls[] = {"core.from_global", "core.factor", "core.solve"};
    for (const Op& op : ph.ops) {
      if (!op.measured || !op.ok) continue;
      Tracer& tr = *ro.tracer;
      const int root = tr.add("bench.op", op.start, op.end, op.id, -1);
      const int run = tr.add("backend.run", op.start, op.end, op.id, root);
      for (int r = 0; r < P; ++r) {
        const double* st = &op.rank_t[static_cast<std::size_t>(4 * r)];
        for (int k = 0; k < 3; ++k) tr.add(kCalls[k], st[k], st[k + 1], op.id, run, r);
      }
    }
  }
  return ph;
}

// --- Statistics and spans --------------------------------------------------------

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double tail_q(std::size_t n) {
  if (n < 20) return 0.5;
  return std::min(kMaxTailQ, 1.0 - 10.0 / static_cast<double>(n));
}

double self_ms_per_op(const Tracer& t, const std::string& layer, std::size_t ops) {
  if (ops == 0) return 0.0;
  std::vector<std::vector<int>> children(t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i)
    if (t.spans[i].parent >= 0)
      children[static_cast<std::size_t>(t.spans[i].parent)].push_back(static_cast<int>(i));
  double total = 0.0;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    if (s.name.compare(0, layer.size() + 1, layer + ".") != 0) continue;
    // Union of the children's intervals clipped to this span.
    std::vector<std::pair<double, double>> iv;
    for (int c : children[i]) {
      const Span& k = t.spans[static_cast<std::size_t>(c)];
      const double a = std::max(k.t0, s.t0), b = std::min(k.t1, s.t1);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    total += std::max(0.0, (s.t1 - s.t0) - covered);
  }
  return 1e3 * total / static_cast<double>(ops);
}

}  // namespace perfbench
