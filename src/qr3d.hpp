// qr3d — single public umbrella header.
//
// Include this (and nothing under core/, mm/, la/, sim/, coll/, cost/
// directly) from applications, examples and benches.  The public surface is:
//
//   qr3d::DistMatrix      distributed matrix: scatter/gather/random/from_global
//   qr3d::QrOptions       validated options builder (delta, epsilon, tuning)
//   qr3d::Solver          factor(A) -> Factorization, caches tuned parameters
//   qr3d::Factorization   apply_q / explicit_q / r / rebuild_kernel /
//                         solve_least_squares
//   qr3d::factor, qr3d::solve_least_squares   one-shot conveniences
//
// Execution is backend-polymorphic: algorithms run against qr3d::backend::
// Comm and can execute on the cost-model simulator (the oracle) or on real
// threads measured by wall clock — select with QrOptions::with_backend and
// construct via qr3d::make_machine(opts, P):
//
//   qr3d::Backend         Simulated | Thread
//   qr3d::make_machine    build the selected backend::Machine
//
// Supporting namespaces re-exported for power users (the execution backends,
// dense kernels, collectives, cost models, and the individual algorithms the
// paper compares):
//
// For throughput workloads, the serving layer amortizes machine startup and
// tuning across a stream of problems (see docs/SERVING.md):
//
//   qr3d::serve::BatchSolver       blocking or async serving over one machine
//   qr3d::serve::JobHandle         per-job future: ready / wait / get
//   qr3d::serve::PlanCache         per-shape tuned-plan memoization
//   qr3d::serve::profile_machine   fit (alpha, beta, gamma) from benchmarks
//   qr3d::serve::choose_group_ranks  predicted-cost adaptive group sizing
//
// Fault tolerance (deterministic injection + serving-layer recovery, see
// docs/SERVING.md "Fault tolerance"):
//
//   qr3d::fault::Plan        scripted/random kill or stall events, installed
//                            via backend::Machine::set_fault_plan
//   qr3d::fault::RankDeath   the error survivors observe for a dead peer
//
// Observability (metrics + per-rank comm tracing, see docs/OBSERVABILITY.md):
//
//   qr3d::obs::Registry      named counters/gauges/log-scale histograms
//   qr3d::obs::TraceBuffer   comm-op trace sink, installed via
//                            backend::Machine::set_trace_sink
//   qr3d::obs::write_chrome_trace  export for chrome://tracing / Perfetto
//
//   qr3d::backend  Comm handle, abstract Machine, ThreadMachine, make_machine
//   qr3d::sim      simulated Machine / machine profiles (alpha-beta-gamma)
//   qr3d::la       dense matrices, BLAS-like kernels, checks, random generators
//   qr3d::coll     the eight collectives of Section 3
//   qr3d::mm       layouts, redistribution, 1D/3D matrix multiplication
//   qr3d::core     TSQR, 1D/3D-CAQR-EG, CholeskyQR2, 2D baselines, block rules
//   qr3d::cost     closed-form cost models (Tables 1-3) and the machine tuner
#pragma once

// Dense linear algebra.
#include "la/blas.hpp"
#include "la/checks.hpp"
#include "la/cholesky.hpp"
#include "la/householder.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/packing.hpp"
#include "la/qr_eg_serial.hpp"
#include "la/random.hpp"
#include "la/triangular.hpp"

// Execution backends and collectives.
#include "backend/comm.hpp"
#include "backend/machine.hpp"
#include "backend/thread_machine.hpp"
#include "coll/coll.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "sim/profiles.hpp"

// Fault injection.
#include "fault/plan.hpp"

// Observability: metrics registry and comm-op tracing (docs/OBSERVABILITY.md).
#include "obs/registry.hpp"
#include "obs/trace.hpp"

// Fail-slow tolerance: deterministic retry backoff, wall-clock watchdog,
// rank quarantine, and the typed session-timeout error the serving layer
// raises when a deadline fires (docs/SERVING.md, "Fault tolerance").
#include "health/backoff.hpp"
#include "health/rank_health.hpp"
#include "health/timeout.hpp"
#include "health/watchdog.hpp"

// Layouts and distributed matrix multiplication.
#include "mm/layout.hpp"
#include "mm/mm_1d.hpp"
#include "mm/mm_3d.hpp"
#include "mm/redistribute.hpp"

// The QR algorithms and their parameters.
#include "core/api.hpp"
#include "core/caqr_2d.hpp"
#include "core/caqr_eg_1d.hpp"
#include "core/caqr_eg_3d.hpp"
#include "core/caqr_eg_3d_iterative.hpp"
#include "core/cholesky_qr2.hpp"
#include "core/house_1d.hpp"
#include "core/house_2d.hpp"
#include "core/params.hpp"
#include "core/tsqr.hpp"

// Cost models and tuning.
#include "cost/model.hpp"
#include "cost/tuner.hpp"

// The public facade.
#include "core/dist_matrix.hpp"
#include "core/solver.hpp"

// The serving layer: batched multi-problem solving over one persistent
// machine, per-shape plan caching, measured machine profiles, and traffic
// shaping (priority/deadline scheduling with bounded admission —
// serve::Scheduler, serve::SubmitOptions, serve::AdmissionError).
#include "serve/batch_solver.hpp"
#include "serve/plan_cache.hpp"
#include "serve/profile.hpp"
#include "serve/scheduler.hpp"
