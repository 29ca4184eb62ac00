// The traced run: per-layer metrics.
//
// Every workload reports the same per-layer metrics, each measured at the
// workload's own shape:
//   * its own operation twice — untraced, then with benchmark spans and the
//     machine's comm trace on (the difference is obs.trace_overhead_share);
//   * the other path as a short probe on the same inputs — a served probe
//     on factor_tall (serve.*), a direct Machine::run probe on serve_small
//     (core.*), so every layer shows on every workload;
//   * micro-probes timed around single public calls: Machine::run,
//     point-to-point send/recv, coll::all_reduce / all_to_all, mm::mm_3d,
//     core::tsqr, serve::resolve_shape_plan, and the la kernels at the
//     workload's leaf shape;
//   * one simulator pass of the same operation for exact critical-path
//     flop, word and message counts.
// Spans stay in memory and are written as one Chrome trace at the end.
#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench.hpp"
#include "la/flops.hpp"

namespace perfbench {

namespace {

using qr3d::backend::Comm;
using qr3d::obs::TraceEvent;

/// Median seconds of `reps` timed calls of `body` on every rank, each rep's
/// time taken as the slowest rank's.
double timed_collective(qr3d::backend::Machine& machine, int reps,
                        const std::function<void(Comm&)>& body) {
  const int P = machine.size();
  std::vector<double> t(static_cast<std::size_t>(reps * P));
  machine.run([&](Comm& c) {
    for (int r = 0; r < reps; ++r) {
      const double t0 = now();
      body(c);
      t[static_cast<std::size_t>(r * P + c.rank())] = now() - t0;
    }
  });
  std::vector<double> per_rep;
  for (int r = 0; r < reps; ++r)
    per_rep.push_back(*std::max_element(t.begin() + r * P, t.begin() + (r + 1) * P));
  return median(per_rep);
}

/// Median seconds per call of a local kernel: `prepare` restores the
/// operands outside the timer, `call` is timed.  Repeats until ~50 ms or
/// 200 calls.
double time_kernel(const std::function<void()>& prepare, const std::function<void()>& call) {
  std::vector<double> t;
  double total = 0.0;
  while (t.size() < 3 || (total < 0.05 && t.size() < 200)) {
    prepare();
    const double t0 = now();
    call();
    t.push_back(now() - t0);
    total += t.back();
  }
  return median(t);
}

template <class Fn>
std::vector<double> per_op(const Phase& ph, Fn fn) {
  std::vector<double> v;
  for (const Op& op : ph.ops)
    if (op.measured && op.ok) v.push_back(fn(op));
  return v;
}

/// Median over the phase's ops of fn(op) seconds, in milliseconds.
template <class Fn>
double median_ms(const Phase& ph, Fn fn) {
  return 1e3 * median(per_op(ph, fn));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void count_ops(Result& res, const Phase& ph) {
  for (const Op& op : ph.ops) res.count(op.ok);
}

/// Comm-op totals over a trace buffer: sends and bytes sent.
std::pair<double, double> sends(const qr3d::obs::TraceBuffer& buf) {
  double msgs = 0.0, words = 0.0;
  for (const TraceEvent& e : buf.events()) {
    if (e.kind != TraceEvent::Kind::Send) continue;
    msgs += 1.0;
    words += e.words;
  }
  return {msgs, 8.0 * words};
}

}  // namespace

Result run_traced(const Workload& w, const Inputs& in, std::uint64_t seed, double seconds,
                  const std::string& trace_path) {
  Result res;
  const Shape sh = w.shape;
  const double half = seconds / 2;
  Tracer served_spans, direct_spans;
  auto comm = std::make_shared<qr3d::obs::TraceBuffer>();

  RunOptions plain_ro;
  plain_ro.seed = seed;
  plain_ro.seconds = half;
  RunOptions traced_ro = plain_ro;

  // --- The workload's own path, untraced then traced; the other path as a
  // short traced probe. ---------------------------------------------------------
  Phase served_plain, served, direct_plain, direct;
  double main_p50_plain = 0.0, main_p50_traced = 0.0;
  double main_messages = 0.0, main_bytes = 0.0;
  qr3d::sim::CostParams serve_params;
  std::unique_ptr<qr3d::backend::Machine> machine = make_thread_machine();
  const qr3d::Solver solver(direct_qr_options());
  {
    // Served path.  Tracing is a construction-time option, so the untraced
    // phase runs on a second instance with the same options otherwise.
    std::unique_ptr<serve::BatchSolver> plain_srv;
    if (w.served) {
      plain_srv = std::make_unique<serve::BatchSolver>(serve_options());
      res.count(served_once(*plain_srv, in.pool[0]));
    }
    serve::BatchSolver srv(serve_options().with_trace(comm));
    res.count(served_once(srv, in.pool[0]));
    comm->clear();
    serve_params = srv.machine_params();
    if (w.served) {
      served_plain = run_served(in, *plain_srv, plain_ro);
      traced_ro.tracer = &served_spans;
      served = run_served(in, srv, traced_ro);
      std::tie(main_messages, main_bytes) = sends(*comm);
      main_p50_plain = median(per_op(served_plain, [](const Op& o) { return o.latency(); }));
      main_p50_traced = median(per_op(served, [](const Op& o) { return o.latency(); }));
    } else {
      RunOptions probe;
      probe.seed = seed;
      probe.seconds = 1.0;
      probe.inflight = 1;
      probe.tracer = &served_spans;
      served = run_served(in, srv, probe);
    }
  }
  {
    RunOptions warm;
    warm.min_ops = 2;
    count_ops(res, run_direct(in, *machine, solver, warm));
    if (!w.served) {
      direct_plain = run_direct(in, *machine, solver, plain_ro);
      comm->clear();  // keep only the traced phase's comm events
      machine->set_trace_sink(comm);
      traced_ro.tracer = &direct_spans;
      direct = run_direct(in, *machine, solver, traced_ro);
      machine->set_trace_sink(nullptr);
      std::tie(main_messages, main_bytes) = sends(*comm);
      main_p50_plain = median(per_op(direct_plain, [](const Op& o) { return o.latency(); }));
      main_p50_traced = median(per_op(direct, [](const Op& o) { return o.latency(); }));
    } else {
      RunOptions probe;
      probe.seconds = 0.5;
      probe.min_ops = 3;
      probe.tracer = &direct_spans;
      direct = run_direct(in, *machine, solver, probe);
    }
  }
  for (const Phase* ph : {&served_plain, &served, &direct_plain, &direct}) count_ops(res, *ph);
  const Phase& main = w.served ? served : direct;
  const std::size_t main_ops = main.measured_ops();

  // --- serve ---------------------------------------------------------------------
  const auto d = [&](auto field) {
    return static_cast<double>(served.stats.*field - served.stats_before.*field);
  };
  using S = serve::BatchSolver::Stats;
  res.add("serve.submit_us", 1e3 * median_ms(served, [](const Op& o) { return o.submit_seconds; }),
          "us");
  res.add("serve.queue_ms", median_ms(served, [](const Op& o) { return o.job.queue_seconds; }),
          "ms");
  res.add("serve.exec_ms", median_ms(served, [](const Op& o) { return o.job.exec_seconds; }), "ms");
  res.add("serve.framing_ms",
          median_ms(served, [](const Op& o) { return o.job.exec_seconds - o.job.wall_seconds; }),
          "ms");
  res.add("serve.sessions_per_job", ratio(d(&S::sessions), d(&S::jobs_completed)), "count");
  res.add("serve.busy_share",
          ratio(served.stats.serve_seconds - served.stats_before.serve_seconds,
                served.window_end - served.window_start),
          "ratio");
  res.add("serve.plan_hit_ratio",
          ratio(d(&S::plan_cache_hits), d(&S::plan_cache_hits) + d(&S::plan_cache_misses)),
          "ratio");
  res.add("serve.group_ranks", median(per_op(served, [](const Op& o) {
            return static_cast<double>(o.job.group_ranks);
          })),
          "ranks");
  res.add("serve.choleskyqr2_share", ratio(d(&S::jobs_choleskyqr2), d(&S::jobs_completed)),
          "ratio");
  res.add("serve.cholesky_fallback_ratio",
          ratio(d(&S::cholesky_fallbacks), d(&S::jobs_choleskyqr2)), "ratio");

  // --- cost ------------------------------------------------------------------------
  {
    const qr3d::QrOptions serve_qr = serve_options().qr();
    std::vector<double> t;
    for (int r = 0; r < 5; ++r) {
      serve::PlanCache cold;
      const double t0 = now();
      serve::resolve_shape_plan(sh.m, sh.n, kRanks, serve_qr, cold, qr3d::Backend::Thread,
                                serve_params);
      t.push_back(now() - t0);
    }
    res.add("cost.resolve_plan_ms", 1e3 * median(t), "ms");
  }
  res.add("cost.drift_p50", served.stats.drift_p50, "ratio");
  res.add("cost.drift_p95", served.stats.drift_p95, "ratio");

  // --- backend -------------------------------------------------------------------
  {
    std::vector<double> t;
    for (int r = 0; r < 200; ++r) {
      const double t0 = now();
      machine->run([](Comm&) {});
      t.push_back(now() - t0);
    }
    res.add("backend.run_empty_us", 1e6 * median(t), "us");
  }
  const auto round_trip = [&](std::size_t words, int reps) {
    double seconds_one_way = 0.0;
    machine->run([&](Comm& c) {
      std::vector<double> buf(words, 1.0);
      if (c.rank() > 1) return;
      const double t0 = now();
      for (int r = 0; r < reps; ++r) {
        if (c.rank() == 0) {
          c.send_copy(1, buf, 7);
          buf = c.recv(1, 7);
        } else {
          buf = c.recv(0, 7);
          c.send_copy(0, buf, 7);
        }
      }
      if (c.rank() == 0) seconds_one_way = (now() - t0) / (2.0 * reps);
    });
    return seconds_one_way;
  };
  res.add("backend.pingpong_us", 1e6 * round_trip(1, 2000), "us");
  constexpr std::size_t kStreamWords = std::size_t{1} << 20;
  res.add("backend.bandwidth_gbs", 8.0 * kStreamWords / round_trip(kStreamWords, 16) / 1e9, "GB/s");
  res.add("backend.messages_per_op", ratio(main_messages, static_cast<double>(main_ops)), "count");
  res.add("backend.bytes_per_op", ratio(main_bytes, static_cast<double>(main_ops)), "B");

  // --- coll --------------------------------------------------------------------------
  {
    const std::size_t words = static_cast<std::size_t>(sh.n * (sh.n + 1) / 2);
    const int reps = static_cast<int>(std::clamp<std::size_t>(20000000 / words, 10, 2000));
    res.add("coll.all_reduce_us", 1e6 * timed_collective(*machine, reps, [&](Comm& c) {
              std::vector<double> v(words, 1.0);
              qr3d::coll::all_reduce(c, v);
            }),
            "us");
    // The redistribution of a square 1024x1024 factorization (the full
    // 3D-CAQR-EG recursion, m/n < P): every rank sends an (m n / P^2)-word
    // block to every rank.
    const std::size_t block = 1024 * 1024 / (kRanks * kRanks);
    res.add("coll.all_to_all_ms", 1e3 * timed_collective(*machine, 10, [&](Comm& c) {
              std::vector<std::vector<double>> out(kRanks, std::vector<double>(block, 1.0));
              qr3d::coll::all_to_all(c, std::move(out));
            }),
            "ms");
  }

  // --- mm: the top-level trailing update V^H A_R of a square 1024x1024
  // factorization, (n/2 x m) x (m x n/2). -------------------------------------------
  {
    const la::index_t I = 512, J = 512, K = 1024;
    const qr3d::mm::CyclicCols a_lay(I, K, kRanks);
    const qr3d::mm::CyclicRows b_lay(K, J, kRanks), c_lay(I, J, kRanks);
    const double s = timed_collective(*machine, 5, [&](Comm& c) {
      const std::vector<double> a(static_cast<std::size_t>(a_lay.local_count(c.rank())), 0.5);
      const std::vector<double> b(static_cast<std::size_t>(b_lay.local_count(c.rank())), 0.25);
      qr3d::mm::mm_3d(c, I, J, K, a_lay, a, b_lay, b, c_lay);
    });
    res.add("mm.mm_3d_ms", 1e3 * s, "ms");
    res.add("mm.mm_3d_gflops", 2.0 * I * J * K / s / 1e9, "GFLOP/s");
  }

  // --- core ---------------------------------------------------------------------------
  static const char* kCoreCalls[] = {"core.from_global_ms", "core.factor_ms", "core.solve_ms"};
  for (std::size_t k = 0; k < 3; ++k)
    res.add(kCoreCalls[k], median_ms(direct, [k](const Op& o) { return o.slowest_seconds(k); }),
            "ms");
  {
    // TSQR on the workload's leading panel: as many columns as one rank
    // holds rows, so TSQR's m_p >= n contract holds on every shape.
    const la::index_t width = std::min(sh.n, sh.m / kRanks);
    const la::Matrix& A = in.pool[0].A;
    const double s = timed_collective(*machine, 3, [&](Comm& c) {
      const la::Matrix local =
          qr3d::DistMatrix::local_of(c, A.view().left_cols(width), qr3d::Dist::BlockRows);
      qr3d::core::tsqr(c, local.view());
    });
    res.add("core.tsqr_ms", 1e3 * s, "ms");
  }
  res.add("core.rank_skew_ms", median_ms(direct, [](const Op& o) {
            double lo = o.rank_seconds(0, 1);
            for (std::size_t r = 1; r < kRanks; ++r) lo = std::min(lo, o.rank_seconds(r, 1));
            return o.slowest_seconds(1) - lo;
          }),
          "ms");
  {
    // Simulator pass: the same operation on the same input; exact counts.
    const Problem& p = in.pool[0];
    qr3d::sim::Machine sm(kRanks);
    const qr3d::Solver sim_solver;
    sm.run([&](Comm& c) {
      const qr3d::DistMatrix A = qr3d::DistMatrix::from_global(c, p.A.view());
      const qr3d::DistMatrix B = qr3d::DistMatrix::from_global(c, p.b.view());
      sim_solver.factor(A).solve_least_squares(B);
    });
    const qr3d::sim::CostClock cp = sm.critical_path();
    res.add("core.cp_flops", cp.flops, "flop");
    res.add("core.cp_words", cp.words, "word");
    res.add("core.cp_msgs", cp.msgs, "count");
    namespace fl = la::flops;
    const double m = static_cast<double>(sh.m), n = static_cast<double>(sh.n);
    res.add("core.cp_flops_vs_serial",
            cp.flops / (fl::geqrt(m, n) + fl::larfb(m, n, 1) + fl::trsm(n, 1)), "ratio");
    const qr3d::core::CaqrEg3dOptions rp = qr3d::core::resolve_algorithm(
        sh.m, sh.n, kRanks, qr3d::core::Algorithm::Auto, qr3d::core::CaqrEg3dOptions{});
    const la::index_t b = rp.b > 0 ? std::min(rp.b, sh.n)
                                   : qr3d::core::block_size_3d(sh.m, sh.n, kRanks, rp.delta);
    const la::index_t bstar = qr3d::core::base_block_size_3d(b, kRanks, rp.epsilon);
    res.add("core.flops_vs_model",
            cp.flops / qr3d::cost::caqr_eg_3d_b(m, n, kRanks, static_cast<double>(b),
                                                static_cast<double>(bstar))
                           .flops,
            "ratio");
  }

  // --- la: one rank's leaf block of the workload's shape, r rows x w columns. -----
  {
    namespace fl = la::flops;
    const la::index_t r = (sh.m + kRanks - 1) / kRanks, wc = std::min(sh.n, r);
    const la::Matrix src = la::random_matrix(r, wc, seed ^ 0x6c6561ULL);
    la::Matrix F = src, T(wc, wc);
    la::geqrt<double>(F.view(), T.view());
    const la::Matrix V = la::extract_v<double>(F.view()), R = la::extract_r<double>(F.view());
    const la::Matrix Bsq = la::random_matrix(wc, wc, seed ^ 0x6c6562ULL);
    la::Matrix work = src, wt(wc, wc);
    const double rd = static_cast<double>(r), wd = static_cast<double>(wc);
    const auto restore = [&] { work = src; };
    struct K {
      const char* name;
      double flops, bytes;
      std::function<void()> call;
    };
    const std::vector<K> kernels = {
        {"gemm", fl::gemm(rd, wd, wd), 8.0 * (3 * rd * wd + wd * wd),
         [&] {
           la::gemm<double>(1.0, la::Op::NoTrans, src.view(), la::Op::NoTrans, Bsq.view(), 1.0,
                            work.view());
         }},
        {"geqrt", fl::geqrt(rd, wd), 8.0 * (2 * rd * wd + wd * wd),
         [&] { la::geqrt<double>(work.view(), wt.view()); }},
        {"trsm", fl::trsm(wd, rd), 8.0 * (2 * rd * wd + wd * wd / 2),
         [&] {
           la::trsm<double>(la::Side::Right, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit,
                            1.0, R.view(), work.view());
         }},
        {"trmm", fl::trmm(wd, rd), 8.0 * (2 * rd * wd + wd * wd / 2),
         [&] {
           la::trmm<double>(la::Side::Right, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit,
                            1.0, R.view(), work.view());
         }},
        {"apply_q", fl::larfb(rd, wd, wd), 8.0 * (3 * rd * wd + wd * wd),
         [&] { la::apply_q<double>(V.view(), T.view(), la::Op::ConjTrans, work.view()); }},
    };
    for (const K& k : kernels) {
      const double s = time_kernel(restore, k.call);
      const std::string base = std::string("la.") + k.name;
      res.add(base + "_gflops", k.flops / s / 1e9, "GFLOP/s");
      res.add(base + "_flops", k.flops, "flop");
      res.add(base + "_bytes", k.bytes, "B");
    }
    const double serial = in.serial_seconds;
    res.add("la.serial_ls_ms", 1e3 * serial, "ms");
    res.add("la.speedup_vs_serial",
            serial / median(per_op(direct, [](const Op& o) { return o.latency(); })), "ratio");
  }

  // --- obs ------------------------------------------------------------------------
  res.add("obs.trace_overhead_share", main_p50_traced / main_p50_plain - 1.0, "ratio");

  // --- Self time per layer, from the benchmark's spans. -------------------------------
  res.add("self.serve_ms", self_ms_per_op(served_spans, "serve", served.measured_ops()), "ms");
  res.add("self.backend_ms", self_ms_per_op(direct_spans, "backend", direct.measured_ops()), "ms");
  // Core spans run on every rank: report per op and per rank.
  res.add("self.core_ms",
          self_ms_per_op(direct_spans, "core", direct.measured_ops() * kRanks), "ms");

  // --- Write the trace: the benchmark's spans and the machine's events of
  // the first kTraceOps ops of each phase (the metrics above use them all;
  // the file is for looking at). ---------------------------------------------------
  constexpr std::size_t kTraceOps = 1000;
  std::vector<TraceEvent> events;
  double cutoff = -1.0;
  for (const Tracer* t : {&served_spans, &direct_spans}) {
    std::size_t roots = 0;
    double last = std::numeric_limits<double>::infinity();
    for (const Span& s : t->spans) {
      if (s.parent < 0 && ++roots > kTraceOps) last = std::min(last, s.t0);
      if (s.t0 >= last) continue;
      TraceEvent e;
      e.kind = TraceEvent::Kind::Span;
      e.track = 2;
      e.rank = s.lane;
      e.t0 = s.t0;
      e.t1 = s.t1;
      e.id = s.op;
      e.name = s.name;
      events.push_back(std::move(e));
    }
    if ((t == &served_spans) == w.served) cutoff = last;
  }
  for (TraceEvent& e : comm->events())
    if (e.t0 < cutoff) events.push_back(std::move(e));
  if (!qr3d::obs::write_chrome_trace(events, trace_path))
    std::fprintf(stderr, "perfbench: could not write %s\n", trace_path.c_str());
  std::printf("workload=%s traced: %zu ops, %zu trace events -> %s\n", w.name.c_str(), main_ops,
              events.size(), trace_path.c_str());
  return res;
}

}  // namespace perfbench
