#include "backend/thread_machine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "la/error.hpp"

namespace qr3d::backend {

namespace detail {

namespace {

/// Ring slots per (src, dst) pair.  Deeper rings for small machines (bursty
/// collectives rendezvous without ever touching the overflow), shallower for
/// big ones so the P^2 channel grid stays small.  Power of two.
std::size_t ring_capacity_for(int P) {
  if (P <= 16) return 64;
  return 32;
}

}  // namespace

RankPort::RankPort(int P, std::size_t ring_capacity)
    : from_(new SpscChannel<ThreadEnvelope>[static_cast<std::size_t>(P)]),
      pending_(static_cast<std::size_t>(P)), touched_(static_cast<std::size_t>(P)) {
  for (int src = 0; src < P; ++src)
    from_[static_cast<std::size_t>(src)].set_ring_capacity_pow2(ring_capacity);
  for (auto& t : touched_) t.store(0, std::memory_order_relaxed);
}

void RankPort::push_from(int src, ThreadEnvelope&& e) {
  auto& touched = touched_[static_cast<std::size_t>(src)];
  if (touched.load(std::memory_order_relaxed) == 0)
    touched.store(1, std::memory_order_relaxed);
  from_[static_cast<std::size_t>(src)].push(std::move(e));
}

ThreadEnvelope RankPort::recv_match(int src, std::uint64_t context, int tag,
                                    const std::atomic<bool>& aborted,
                                    const fault::Injector& injector) {
  auto& channel = from_[static_cast<std::size_t>(src)];
  auto& pending = pending_[static_cast<std::size_t>(src)];

  // Drain the channel into the private pending list, then take the first
  // (context, tag) match.  Only this rank's thread touches `pending`, so the
  // scan is lock-free and bounded by this source's unmatched backlog.
  auto try_take = [&](ThreadEnvelope& out) {
    channel.drain(pending);
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (it->context == context && it->tag == tag) {
        out = std::move(*it);
        pending.erase(it);
        return true;
      }
    }
    return false;
  };

  ThreadEnvelope e;
  for (;;) {
    // Fast path, retried on every wakeup: collectives overwhelmingly
    // receive in send order, so the oldest queued message usually IS the
    // match — take it straight off the ring, no pending-list hop, no drain.
    if (pending.empty()) {
      const ThreadEnvelope* head = channel.peek_oldest();
      if (head != nullptr && head->context == context && head->tag == tag)
        return channel.take_oldest();
    }
    if (try_take(e)) return e;
    // Death before abort: a peer's death often *causes* the abort (another
    // survivor threw RankDeath first), and the death flag is visible whenever
    // the abort it caused is — checking in this order keeps the surfaced
    // error deterministically RankDeath instead of racing on which flag the
    // waiter observes first.
    if (injector.is_dead(src)) {
      // The death flag is released after the dying rank's last push, so one
      // more drain under the acquire load catches anything it sent first.
      if (try_take(e)) return e;
      throw fault::RankDeath(src, "qr3d::backend: rank " + std::to_string(src) +
                                      " died before sending the awaited message");
    }
    if (aborted.load(std::memory_order_acquire))
      throw std::runtime_error("qr3d::backend: thread machine aborted while waiting for message");

    // The message we are waiting for can only arrive on this channel, so
    // poll it (level-triggered — no wakeup to miss), then park on it.
    const bool data = Backoff::spin_until([&]() {
      return channel.ring_nonempty() || aborted.load(std::memory_order_relaxed) ||
             injector.is_dead(src);
    });
    if (data) continue;
    channel.park(
        [&]() { return aborted.load(std::memory_order_relaxed) || injector.is_dead(src); });
  }
}

void RankPort::wake() {
  for (std::size_t src = 0; src < pending_.size(); ++src) from_[src].wake();
}

void RankPort::reset() {
  // Only channels that saw traffic need cleaning (a pending list can only be
  // nonempty if its channel was pushed to) — O(active pairs), not O(P^2),
  // and the untouched channels' cache lines stay cold.
  for (std::size_t src = 0; src < pending_.size(); ++src) {
    if (touched_[src].load(std::memory_order_relaxed) == 0) continue;
    from_[src].clear_unsync();
    pending_[src].clear();
    touched_[src].store(0, std::memory_order_relaxed);
  }
}

/// Per-(rank, communicator) implementation over the thread machine.
class ThreadComm : public CommImpl {
 public:
  ThreadComm(ThreadMachine* machine, std::shared_ptr<ThreadGroup> group, int rank)
      : machine_(machine), group_(std::move(group)), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return static_cast<int>(group_->members.size()); }
  Kind kind() const override { return Kind::Thread; }
  const sim::CostParams& params() const override { return machine_->params(); }

  void send(int dst, std::vector<double>&& payload, int tag) override {
    const int src_global = group_->members[static_cast<std::size_t>(rank_)];
    machine_->injector_.before_op(src_global, machine_->aborted_);
    const std::size_t w = payload.size();
    ThreadEnvelope e;
    e.context = group_->context;
    e.tag = tag;
    e.payload = std::move(payload);
    const int dst_global = group_->members[static_cast<std::size_t>(dst)];
    // Trace before the push (see obs/trace.hpp: the send event must be
    // globally ordered before the recv it pairs with), on the wall clock.
    if (obs::TraceSink* ts = machine_->trace_.get()) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceEvent::Kind::Send;
      ev.rank = src_global;
      ev.peer = dst_global;
      ev.tag = tag;
      ev.words = static_cast<double>(w);
      ev.t0 = ev.t1 = obs::trace_now();
      ts->record(std::move(ev));
    }
    machine_->ports_[static_cast<std::size_t>(dst_global)].push_from(src_global, std::move(e));
  }

  std::vector<double> recv(int src, int tag) override {
    const int me_global = group_->members[static_cast<std::size_t>(rank_)];
    machine_->injector_.before_op(me_global, machine_->aborted_);
    const int src_global = group_->members[static_cast<std::size_t>(src)];
    obs::TraceSink* ts = machine_->trace_.get();
    const double t0 = ts != nullptr ? obs::trace_now() : 0.0;
    ThreadEnvelope e = machine_->ports_[static_cast<std::size_t>(me_global)].recv_match(
        src_global, group_->context, tag, machine_->aborted_, machine_->injector_);
    if (ts != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceEvent::Kind::Recv;
      ev.rank = me_global;
      ev.peer = src_global;
      ev.tag = tag;
      ev.words = static_cast<double>(e.payload.size());
      ev.t0 = t0;  // the interval covers the wait for the sender, as on sim
      ev.t1 = obs::trace_now();
      ts->record(std::move(ev));
    }
    return std::move(e.payload);
  }

  void charge_flops(double) override {}  // real arithmetic is on the wall clock

  std::shared_ptr<CommImpl> split(int color, int key) override {
    auto& g = *group_;
    const int n = size();

    // The rendezvous must not outlive an abort: a rank that threw will never
    // arrive, so waiters poll the abort flag instead of sleeping forever.  A
    // group member killed by the fault plan will likewise never arrive, so
    // waiters also poll for member deaths and surface fault::RankDeath.
    auto wait_or_abort = [&](std::unique_lock<std::mutex>& lk, auto&& pred) {
      while (!g.cv.wait_for(lk, std::chrono::milliseconds(1), pred)) {
        // Death before abort: see RankPort::recv_match — a death usually
        // causes the abort, and checking in this order surfaces RankDeath
        // deterministically.
        for (int member : g.members) {
          if (machine_->injector_.is_dead(member))
            throw fault::RankDeath(member, "qr3d::backend: rank " + std::to_string(member) +
                                               " died during communicator split");
        }
        if (machine_->aborted_.load(std::memory_order_acquire))
          throw std::runtime_error(
              "qr3d::backend: thread machine aborted during communicator split");
      }
    };

    std::unique_lock<std::mutex> lock(g.mu);
    if (g.colors.empty()) {
      g.colors.assign(static_cast<std::size_t>(n), 0);
      g.keys.assign(static_cast<std::size_t>(n), 0);
      g.out_group.assign(static_cast<std::size_t>(n), nullptr);
      g.out_rank.assign(static_cast<std::size_t>(n), -1);
    }
    g.colors[static_cast<std::size_t>(rank_)] = color;
    g.keys[static_cast<std::size_t>(rank_)] = key;
    g.arrived++;

    if (g.arrived == n) {
      // Last arrival builds all result groups.
      std::map<int, std::vector<std::pair<int, int>>> by_color;  // color -> (key, local rank)
      for (int p = 0; p < n; ++p) {
        const int c = g.colors[static_cast<std::size_t>(p)];
        if (c >= 0) by_color[c].emplace_back(g.keys[static_cast<std::size_t>(p)], p);
      }
      for (auto& [c, v] : by_color) {
        std::sort(v.begin(), v.end());
        auto ng = std::make_shared<ThreadGroup>();
        ng->context = machine_->new_context();
        ng->members.reserve(v.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
          const int local = v[i].second;
          ng->members.push_back(g.members[static_cast<std::size_t>(local)]);
          g.out_group[static_cast<std::size_t>(local)] = ng;
          g.out_rank[static_cast<std::size_t>(local)] = static_cast<int>(i);
        }
      }
      g.ready = true;
      g.cv.notify_all();
    } else {
      wait_or_abort(lock, [&g]() { return g.ready; });
    }

    auto out = g.out_group[static_cast<std::size_t>(rank_)];
    const int out_rank = g.out_rank[static_cast<std::size_t>(rank_)];
    g.out_group[static_cast<std::size_t>(rank_)] = nullptr;

    // Last pickup resets the coordination state for the next split().
    g.picked_up++;
    if (g.picked_up == n) {
      g.arrived = 0;
      g.picked_up = 0;
      g.ready = false;
      g.colors.clear();
      g.keys.clear();
      g.out_group.clear();
      g.out_rank.clear();
      g.cv.notify_all();
    } else {
      // Wait until everyone picked up, so a rank cannot race into the next
      // split() round on this communicator while state is being reset.
      wait_or_abort(lock, [&g]() { return g.picked_up == 0; });
    }

    if (!out) return nullptr;
    return std::make_shared<ThreadComm>(machine_, std::move(out), out_rank);
  }

 private:
  ThreadMachine* machine_;
  std::shared_ptr<ThreadGroup> group_;
  int rank_;
};

}  // namespace detail

namespace {

bool env_forces_affinity() {
  const char* env = std::getenv("QR3D_THREAD_AFFINITY");
  return env != nullptr && (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0);
}

/// Pin the calling thread to the `index`-th CPU of the process's *allowed*
/// set (not raw CPU ids: containers routinely run on shifted or
/// non-contiguous cpusets like 8-15, where "CPU (base+p) mod ncpus" would
/// name only forbidden CPUs and every pin would silently fail).
void pin_to_allowed_cpu([[maybe_unused]] unsigned index) {
#ifdef __linux__
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count <= 0) return;
  int want = static_cast<int>(index % static_cast<unsigned>(count));
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (want-- == 0) {
      cpu = c;
      break;
    }
  }
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // Best effort: a racing cpuset shrink must not kill the run.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#endif
}

}  // namespace

ThreadMachine::ThreadMachine(int P, sim::CostParams params, ThreadOptions options)
    : P_(P), params_(std::move(params)), options_(options),
      errors_(static_cast<std::size_t>(P)) {
  QR3D_CHECK(P >= 1, "thread machine needs at least one rank");
  if (env_forces_affinity()) options_.pin_affinity = true;
  const std::size_t cap = detail::ring_capacity_for(P);
  ports_.reserve(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) ports_.emplace_back(P, cap);
}

ThreadMachine::~ThreadMachine() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadMachine::ensure_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(static_cast<std::size_t>(P_));
  for (int p = 0; p < P_; ++p) workers_.emplace_back([this, p]() { worker_loop(p); });
}

void ThreadMachine::worker_loop(int p) {
  if (options_.pin_affinity) {
    pin_to_allowed_cpu(static_cast<unsigned>(options_.affinity_base) + static_cast<unsigned>(p));
  }
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<detail::ThreadGroup> world;
    const std::function<void(Comm&)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock, [&]() { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      world = world_;
      body = body_;
    }
    Comm comm(std::make_shared<detail::ThreadComm>(this, std::move(world), p));
    try {
      (*body)(comm);
    } catch (const fault::detail::InjectedKill&) {
      // An injected death is not an error of the run: mark the rank dead and
      // wake every parked receiver so survivors detect it and either handle
      // it or fail with fault::RankDeath.
      injector_.mark_dead(p);
      if (obs::TraceSink* ts = trace_.get()) {
        obs::TraceEvent ev;
        ev.kind = obs::TraceEvent::Kind::Instant;
        ev.rank = p;
        ev.name = "rank_death";
        ev.t0 = ev.t1 = obs::trace_now();
        ts->record(std::move(ev));
      }
      for (auto& port : ports_) port.wake();
    } catch (...) {
      errors_[static_cast<std::size_t>(p)] = std::current_exception();
      aborted_.store(true, std::memory_order_seq_cst);
      for (auto& port : ports_) port.wake();
    }
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (++done_count_ == P_) done_cv_.notify_all();
    }
  }
}

bool ThreadMachine::request_abort() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  // body_ is set under pool_mu_ for exactly the span of a run(); done_count_
  // == P_ means every worker already finished the body, so there is nothing
  // left to interrupt (and the flag would leak into the next run's reset
  // window otherwise).
  if (body_ == nullptr || done_count_ == P_) return false;
  aborted_.store(true, std::memory_order_seq_cst);
  for (auto& port : ports_) port.wake();
  return true;
}

void ThreadMachine::run(const std::function<void(Comm&)>& body) {
  // Reset per-run state — including leftovers of a previous run that
  // aborted: stale envelopes, the abort flag and the context counter.
  for (auto& port : ports_) port.reset();
  aborted_.store(false, std::memory_order_release);
  next_context_.store(1, std::memory_order_release);
  injector_.reset_run();
  for (auto& err : errors_) err = nullptr;

  // Fresh world group every run: split() rendezvous state lives in the
  // group, and an aborted run may have left a partial rendezvous behind.
  auto world = std::make_shared<detail::ThreadGroup>();
  world->context = 0;
  world->members.resize(static_cast<std::size_t>(P_));
  for (int p = 0; p < P_; ++p) world->members[static_cast<std::size_t>(p)] = p;

  ensure_workers();
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    world_ = std::move(world);
    body_ = &body;
    done_count_ = 0;
    ++generation_;
  }
  pool_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(pool_mu_);
    done_cv_.wait(lock, [&]() { return done_count_ == P_; });
    body_ = nullptr;
    world_ = nullptr;
  }
  wall_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ++runs_completed_;

  for (auto& err : errors_) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace qr3d::backend
