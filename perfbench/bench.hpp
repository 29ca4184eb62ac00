// Shared declarations of the perfbench driver: workloads, generated inputs,
// per-operation samples, benchmark-side spans, and metric output.
//
// Everything here sits OUTSIDE the library: the benchmark only calls the
// public API of qr3d.hpp and times those calls from its own files.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "qr3d.hpp"

namespace perfbench {

namespace la = qr3d::la;
namespace serve = qr3d::serve;

/// Ranks of every machine the benchmark builds (the host has 4 cores).
inline constexpr int kRanks = 4;

/// Relative solution error ||x - x_ref|| / ||x_ref|| above which an answer
/// counts as wrong.  The inputs are well-conditioned uniform random
/// matrices: a correct solve under any contract (fast included) is far
/// inside it, a wrong answer is O(1).
inline constexpr double kTolerance = 1e-8;

/// Seconds on the benchmark's clock: obs::trace_now(), the same steady
/// clock the thread backend stamps its comm events with, so benchmark spans
/// and machine events share one timeline in the written trace.
inline double now() { return qr3d::obs::trace_now(); }

struct Shape {
  la::index_t m = 0, n = 0;
};

/// One least-squares input with its one-core reference solution.
struct Problem {
  la::Matrix A, b;
  la::Matrix x_ref;
};

/// A named workload: every operation solves a problem of `shape`, which
/// also sizes the per-layer probes.
struct Workload {
  std::string name;
  bool served = false;  ///< true: BatchSolver jobs; false: direct Machine::run ops
  Shape shape;
};

/// The workloads, by name; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// Generated inputs: a pool of problems of the workload's shape.
struct Inputs {
  std::vector<Problem> pool;
  double serial_seconds = 0.0;  ///< one-core reference solve, median over the pool
};

/// Generate every input from `seed` and solve each on one core
/// (la::geqrt + apply_q + trsm) for the reference.
Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// True when x is within kTolerance of the reference.
bool answer_ok(const la::Matrix& x, const la::Matrix& x_ref);

/// One timed operation.  All times are seconds on now()'s clock.
struct Op {
  std::uint64_t id = 0;
  bool measured = true;  ///< false for warm-up operations
  bool ok = false;
  double start = 0.0, end = 0.0;
  double submit_seconds = 0.0;  ///< served: the submit() call itself
  serve::JobStats job;          ///< served: JobStats of a resolved job
  // Direct ops: per-rank [from_global, factor, solve] boundaries.
  std::vector<double> rank_t;   ///< 4 stamps per rank
  double latency() const { return end - start; }
  /// Direct ops: rank r's seconds in call k (0 from_global, 1 factor, 2 solve).
  double rank_seconds(std::size_t r, std::size_t k) const {
    return rank_t[4 * r + k + 1] - rank_t[4 * r + k];
  }
  /// Direct ops: the slowest rank's seconds in call k.
  double slowest_seconds(std::size_t k) const {
    double s = 0.0;
    for (std::size_t r = 0; r < rank_t.size() / 4; ++r) s = std::max(s, rank_seconds(r, k));
    return s;
  }
};

/// A span recorded by the benchmark around one layer call.
struct Span {
  std::string name;   ///< "<layer>.<call>", e.g. "core.factor"
  double t0 = 0.0, t1 = 0.0;
  std::uint64_t op = 0;  ///< operation id shared by all spans of one op
  int parent = -1;       ///< index of the enclosing span, -1 for an op span
  int lane = 0;          ///< rank for core spans
};

/// In-memory span recorder (single client thread; no locking needed).
struct Tracer {
  std::vector<Span> spans;
  int add(std::string name, double t0, double t1, std::uint64_t op, int parent, int lane = 0) {
    spans.push_back({std::move(name), t0, t1, op, parent, lane});
    return static_cast<int>(spans.size()) - 1;
  }
};

/// Per-layer self time: each span's duration minus the part its children
/// cover, summed by layer (the name's prefix before '.') and divided by the
/// number of operations.  Returns milliseconds per op for `layer`.
double self_ms_per_op(const Tracer& t, const std::string& layer, std::size_t ops);

/// Allocator that maps memory straight from the kernel, bypassing malloc,
/// so the benchmark's own per-op records (tens of MB on serve_small, and
/// growing with throughput) never show in heap_mb, which samples malloc's
/// bookkeeping.
template <class T>
struct MmapAllocator {
  using value_type = T;
  MmapAllocator() = default;
  template <class U>
  MmapAllocator(const MmapAllocator<U>&) {}
  T* allocate(std::size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) { munmap(p, n * sizeof(T)); }
  template <class U>
  bool operator==(const MmapAllocator<U>&) const {
    return true;
  }
};

/// Result of one served or direct measurement phase.
struct Phase {
  std::vector<Op, MmapAllocator<Op>> ops;
  double window_start = 0.0, window_end = 0.0;  ///< measured window
  serve::BatchSolver::Stats stats_before, stats;  ///< served phases only
  std::size_t measured_ops() const;
};

struct RunOptions {
  double seconds = 0.0;
  double warmup_seconds = 0.0;
  std::size_t min_ops = 0;   ///< direct loop: run at least this many ops
  std::size_t inflight = 0;  ///< closed served loop: jobs outstanding (0 = 2 x ranks)
  Tracer* tracer = nullptr;  ///< records benchmark spans when set
  std::uint64_t seed = 0;
};

/// Served ops: drive an already-built async BatchSolver in a closed loop.
Phase run_served(const Inputs& in, serve::BatchSolver& srv, const RunOptions& ro);
/// Direct ops: drive an already-built thread machine with one op at a time.
Phase run_direct(const Inputs& in, qr3d::backend::Machine& machine, const qr3d::Solver& solver,
                 const RunOptions& ro);

/// Serving options of the served ops: async, default policy, unprofiled.
serve::ServeOptions serve_options();
/// The 4-rank thread machine direct ops run on, and the options their
/// Solver factors with.
std::unique_ptr<qr3d::backend::Machine> make_thread_machine();
qr3d::QrOptions direct_qr_options();

// --- Statistics ---------------------------------------------------------------

double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }
/// Cap of the tail quantile.  On a 4-vCPU host that loses 5-10% of its time
/// to other tenants in bursts, the tail beyond p90 is decided by which
/// operations met such a burst, and no two runs agree on it.
inline constexpr double kMaxTailQ = 0.90;
/// The tail quantile reported for n samples: the highest with at least ten
/// samples beyond it, capped at kMaxTailQ (the median below twenty samples).
double tail_q(std::size_t n);

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0.0;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Submit one job and wait for it; true when its answer is right.
bool served_once(serve::BatchSolver& srv, const Problem& p);

/// End-to-end run: set-up, warm-up, the measured phase, answer checks.
Result run_end_to_end(const Workload& w, const Inputs& in, std::uint64_t seed, double seconds);
/// Traced run: traced workload phase plus the per-layer probes.
Result run_traced(const Workload& w, const Inputs& in, std::uint64_t seed, double seconds,
                  const std::string& trace_path);

}  // namespace perfbench
