// perfbench — the repository's benchmark driver.
//
//   perfbench --workload <serve_small|factor_tall>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// --trace 0 is the end-to-end run: set-up (timed), warm-up, then `seconds`
// of measured operations, every answer checked against a one-core
// reference.  --trace 1 is the traced run: the same loop with benchmark
// spans and the machine's comm trace on, followed by per-layer probes (see
// layers.cpp).  Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it are the same metrics for people, with sample counts.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Warm-up before the measured window: plan caches fill, pages are touched.
constexpr double kWarmupSeconds = 1.0;

/// One sample of the process and the host, taken every 50 ms while a phase
/// runs.
struct HostSample {
  double t = 0.0;        ///< now()
  double heap_mb = 0.0;  ///< heap bytes allocated and not freed, MiB
  double steal = 0.0;    ///< host CPU ticks taken by other tenants so far
  double busy = 0.0;     ///< host CPU ticks not idle so far, steal included
};

HostSample sample_host() {
  HostSample h;
  h.t = now();
  // mallinfo2: all malloc arenas plus mmapped chunks.
  const struct mallinfo2 mi = mallinfo2();
  h.heap_mb = static_cast<double>(mi.uordblks + mi.hblkhd) / 1048576.0;
  // The first line of /proc/stat: user nice system idle iowait irq softirq steal.
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    double v[8] = {};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1], &v[2], &v[3], &v[4],
                    &v[5], &v[6], &v[7]) == 8) {
      for (double x : v) h.busy += x;
      h.busy -= v[3] + v[4];
      h.steal = v[7];
    }
    std::fclose(f);
  }
  return h;
}

/// Samples sample_host() every 50 ms on its own thread, from construction
/// until stop(), with one sample at each end.
class HostSampler {
 public:
  HostSampler() : thread_([this] { loop(); }) {}
  ~HostSampler() { stop(); }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  /// Stop sampling (idempotent) and return the samples, in time order.
  std::vector<HostSample> stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    samples_.push_back(sample_host());
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; }))
      samples_.push_back(sample_host());
    samples_.push_back(sample_host());
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<HostSample> samples_;
  std::thread thread_;
};

/// Other tenants' share of the host's non-idle CPU time over [t0, t1], from
/// the samples bracketing the interval.
double steal_share(const std::vector<HostSample>& host, double t0, double t1) {
  if (host.size() < 2) return 0.0;
  std::size_t a = 0, b = host.size() - 1;
  while (a + 1 < host.size() && host[a + 1].t <= t0) ++a;
  while (b > a + 1 && host[b - 1].t >= t1) --b;
  const double ticks = host[b].busy - host[a].busy;
  return ticks > 0 ? (host[b].steal - host[a].steal) / ticks : 0.0;
}

/// The measured ops the end-to-end metrics are computed over.
///
/// The host is a virtual machine whose other tenants take CPU time from it
/// in bursts of seconds to minutes (the steal share went from under 1% to
/// over 30% between runs), and every op caught in a burst is slower.  So the
/// measured phase is cut into kStretches stretches of equally many
/// consecutive completions, and the metrics use the stretches in which other
/// tenants took the smallest share of the host's non-idle CPU time: the
/// quietest quarter of them, or more where that holds fewer than
/// kMinQuietOps ops (all of them when the phase has fewer).  The choice never
/// looks at how fast the ops were.  It is not wholly independent of them
/// either: steal only accrues while a vCPU wants to run, so it is taken as
/// a share of non-idle time, which depends less on how busy the benchmark
/// kept the host.
struct Quiet {
  std::vector<const Op*> ops;
  double seconds = 0.0;      ///< summed length of the chosen stretches
  double steal_all = 0.0;    ///< steal share over the whole phase
  double steal_quiet = 0.0;  ///< steal share of the chosen stretches, weighted by length
  std::size_t stretches = 0;  ///< stretches chosen, of kStretches
};

constexpr std::size_t kStretches = 20;
/// With ten samples beyond the tail quantile (see tail_q), 100 ops give p90.
constexpr std::size_t kMinQuietOps = 100;

Quiet quietest_stretches(const Phase& ph, const std::vector<HostSample>& host) {
  std::vector<const Op*> ops;
  for (const Op& op : ph.ops)
    if (op.measured && op.ok) ops.push_back(&op);
  std::sort(ops.begin(), ops.end(), [](const Op* a, const Op* b) { return a->end < b->end; });
  Quiet q;
  q.steal_all = steal_share(host, ph.window_start, ph.window_end);
  const std::size_t per = ops.size() / kStretches;
  const std::size_t need =
      per == 0 ? kStretches : std::max(kStretches / 4, (kMinQuietOps + per - 1) / per);
  if (need >= kStretches) {  // every op is needed
    q.ops = ops;
    q.seconds = ph.window_end - ph.window_start;
    q.steal_quiet = q.steal_all;
    q.stretches = kStretches;
    return q;
  }
  struct Stretch {
    std::size_t first, last;  ///< ops[first, last)
    double t0, t1, steal;
  };
  std::vector<Stretch> stretches;
  for (std::size_t k = 0; k < kStretches; ++k) {
    Stretch s;
    s.first = k * per;
    s.last = k + 1 == kStretches ? ops.size() : (k + 1) * per;
    s.t0 = k == 0 ? ph.window_start : ops[s.first - 1]->end;
    s.t1 = ops[s.last - 1]->end;
    s.steal = steal_share(host, s.t0, s.t1);
    stretches.push_back(s);
  }
  std::stable_sort(stretches.begin(), stretches.end(),
                   [](const Stretch& a, const Stretch& b) { return a.steal < b.steal; });
  for (std::size_t k = 0; k < need; ++k) {
    const Stretch& s = stretches[k];
    q.ops.insert(q.ops.end(), ops.begin() + static_cast<std::ptrdiff_t>(s.first),
                 ops.begin() + static_cast<std::ptrdiff_t>(s.last));
    q.seconds += s.t1 - s.t0;
    q.steal_quiet += s.steal * (s.t1 - s.t0);
  }
  q.stretches = need;
  q.steal_quiet /= q.seconds;
  return q;
}

/// Set-ups per run.  The process's first set-up pays one-time costs (the
/// first thread spawns, first use of the code) and took 1.4-2.5x the median
/// of the others on serve_small, so it is timed apart, printed and left out
/// of setup_s; otherwise one cold sample would weigh on the metric.  (On
/// factor_tall the one-core reference solves have paid those costs already,
/// and the first set-up reads like the others.)  After it come at least kMinSetups timed set-ups, and more (up
/// to kMaxSetups) while they have taken less than kSetupBudget seconds, so
/// a millisecond set-up is sampled often enough to be steady.  setup_s is
/// their median.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 51;
constexpr double kSetupBudget = 2.0;

/// True while another timed set-up should run.
bool more_setups(const std::vector<double>& setups) {
  double total = 0.0;
  for (double s : setups) total += s;
  return setups.size() < kMinSetups || (setups.size() < kMaxSetups && total < kSetupBudget);
}

/// Seconds `body` takes.
template <class Fn>
double time_setup(Fn body) {
  const double t0 = now();
  body();
  return now() - t0;
}

}  // namespace

Result run_end_to_end(const Workload& w, const Inputs& in, std::uint64_t seed, double seconds) {
  Result res;
  double cold_setup = 0.0;
  std::vector<double> setups;
  std::vector<HostSample> host;
  RunOptions ro;
  ro.seconds = seconds;
  ro.warmup_seconds = kWarmupSeconds;
  ro.seed = seed;
  Phase ph;
  if (w.served) {
    // Set-up: construction (worker spawn) and the first job.  Only the last
    // instance serves the measured phase.
    std::unique_ptr<serve::BatchSolver> srv;
    const auto setup = [&] {
      srv.reset();
      bool ok = false;
      const double t = time_setup([&] {
        srv = std::make_unique<serve::BatchSolver>(serve_options());
        ok = served_once(*srv, in.pool[0]);
      });
      res.count(ok);
      return t;
    };
    cold_setup = setup();
    while (more_setups(setups)) setups.push_back(setup());
    HostSampler sampler;
    ph = run_served(in, *srv, ro);
    host = sampler.stop();
  } else {
    // Set-up: the machine (rank threads) and the solver, and the first op.
    std::unique_ptr<qr3d::backend::Machine> machine;
    std::unique_ptr<qr3d::Solver> solver;
    RunOptions first;
    first.min_ops = 1;
    const auto setup = [&] {
      machine.reset();
      bool ok = false;
      const double t = time_setup([&] {
        machine = make_thread_machine();
        solver = std::make_unique<qr3d::Solver>(direct_qr_options());
        ok = run_direct(in, *machine, *solver, first).ops.at(0).ok;
      });
      res.count(ok);
      return t;
    };
    cold_setup = setup();
    while (more_setups(setups)) setups.push_back(setup());
    HostSampler sampler;
    ph = run_direct(in, *machine, *solver, ro);
    host = sampler.stop();
  }

  for (const Op& op : ph.ops) res.count(op.ok);
  const Quiet quiet = quietest_stretches(ph, host);
  std::vector<double> lat, fac, heap;
  for (const Op* op : quiet.ops) {
    lat.push_back(op->latency());
    fac.push_back(w.served ? op->job.wall_seconds : op->slowest_seconds(1));
  }
  for (const HostSample& h : host) heap.push_back(h.heap_mb);

  res.add("throughput_ops_per_s",
          quiet.seconds > 0 ? static_cast<double>(quiet.ops.size()) / quiet.seconds : 0.0, "ops/s");
  res.add("latency_p50_ms", 1e3 * median(lat), "ms");
  res.add("latency_tail_ms", 1e3 * quantile(lat, tail_q(lat.size())), "ms");
  res.add("factor_p50_ms", 1e3 * median(fac), "ms");
  res.add("setup_s", median(setups), "s");
  res.add("heap_mb", median(heap), "MB");

  std::printf("workload=%s seed=%llu; metrics over %zu ops in %.3f s (%zu of %zu stretches)\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), quiet.ops.size(),
              quiet.seconds, quiet.stretches, kStretches);
  std::printf("  latency tail = p%.1f of %zu samples\n", 100 * tail_q(lat.size()), lat.size());
  std::printf("  setup_s = median of %zu set-ups; the process's first (cold) set-up took %.4f s\n",
              setups.size(), cold_setup);
  std::printf("  host steal: %.1f%% over the measured phase, %.1f%% over the chosen stretches\n",
              100.0 * quiet.steal_all, 100.0 * quiet.steal_quiet);
  std::printf("  failed_share = %.6f (failed %llu of %llu attempted)\n",
              res.attempted ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
                            : 0.0,
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  if (w.served) {
    // The group size adaptive sizing chose: what explains a shift in the
    // served numbers.
    std::vector<double> g;
    for (const Op* op : quiet.ops) g.push_back(op->job.group_ranks);
    std::printf("  group ranks p50 %g\n", median(g));
  }
  return res;
}

}  // namespace perfbench

namespace {

const char* arg(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return nullptr;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-file <path>]\n",
               why);
  std::exit(2);
}

void print_result(const perfbench::Result& res) {
  bool finite = true;
  for (const auto& m : res.metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  if (!finite) std::fprintf(stderr, "perfbench: a metric is not finite\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.correct && finite && res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const char* wname = arg(argc, argv, "--workload");
  const char* seed_s = arg(argc, argv, "--seed");
  const char* secs_s = arg(argc, argv, "--seconds");
  const char* trace_s = arg(argc, argv, "--trace");
  if (!wname || !seed_s || !secs_s || !trace_s) usage("missing argument");
  const perfbench::Workload* w = perfbench::find_workload(wname);
  if (!w) usage("unknown workload");
  char* endp = nullptr;
  const unsigned long long seed = std::strtoull(seed_s, &endp, 10);
  if (*endp != '\0') usage("--seed must be a non-negative integer");
  const double seconds = std::strtod(secs_s, &endp);
  if (*endp != '\0' || !(seconds > 0.0 && seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  const bool trace = std::strcmp(trace_s, "1") == 0;
  if (!trace && std::strcmp(trace_s, "0") != 0) usage("--trace must be 0 or 1");
  const char* trace_file = arg(argc, argv, "--trace-file");

  try {
    const perfbench::Inputs in = perfbench::make_inputs(*w, seed);
    const perfbench::Result res =
        trace ? perfbench::run_traced(*w, in, seed, seconds,
                                      trace_file ? trace_file : "perfbench-trace.json")
              : perfbench::run_end_to_end(*w, in, seed, seconds);
    print_result(res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
