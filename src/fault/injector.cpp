#include "fault/injector.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "la/error.hpp"

namespace qr3d::fault {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Plan Plan::random_kills(int P, int kills, std::uint64_t max_step, std::uint64_t seed) {
  return random_faults(P, kills, 0, max_step, seed);
}

Plan Plan::random_faults(int P, int kills, int stalls, std::uint64_t max_step,
                         std::uint64_t seed) {
  QR3D_CHECK(P >= 1, "fault::Plan::random_faults: need at least one rank");
  QR3D_CHECK(kills >= 0 && stalls >= 0 && kills + stalls <= P,
             "fault::Plan::random_faults: kills + stalls out of range");
  QR3D_CHECK(max_step >= 1, "fault::Plan::random_faults: max_step must be >= 1");
  // Draw kills + stalls DISTINCT ranks by a seeded partial Fisher-Yates
  // shuffle — kills first, so random_faults(P, k, 0, ...) reproduces the
  // historical random_kills draw bit-for-bit.
  std::vector<int> ranks(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) ranks[static_cast<std::size_t>(p)] = p;
  std::uint64_t state = seed;
  Plan plan;
  for (int k = 0; k < kills + stalls; ++k) {
    const std::size_t i = static_cast<std::size_t>(k) +
                          splitmix64(state) % static_cast<std::uint64_t>(P - k);
    std::swap(ranks[static_cast<std::size_t>(k)], ranks[i]);
    const std::uint64_t step = 1 + splitmix64(state) % max_step;
    const Action action = k < kills ? Action::Kill : Action::Stall;
    plan.events.push_back(Event{ranks[static_cast<std::size_t>(k)], step, action, false});
  }
  return plan;
}

void Injector::install(Plan plan, int P) {
  QR3D_CHECK(P >= 1, "fault::Injector: need at least one rank");
  for (const Event& e : plan.events) {
    QR3D_CHECK(e.rank >= 0 && e.rank < P, "fault::Plan: event rank out of range");
    QR3D_CHECK(e.step >= 1, "fault::Plan: event step must be >= 1 (steps are 1-based)");
  }
  plan_ = std::move(plan);
  P_ = P;
  armed_ = !plan_.empty();
  steps_.assign(static_cast<std::size_t>(P), 0);
  fired_.assign(plan_.events.size(), 0);
  dead_.reset(new std::atomic<bool>[static_cast<std::size_t>(P)]);
  stalled_.reset(new std::atomic<bool>[static_cast<std::size_t>(P)]);
  for (int p = 0; p < P; ++p) {
    dead_[static_cast<std::size_t>(p)].store(false, std::memory_order_relaxed);
    stalled_[static_cast<std::size_t>(p)].store(false, std::memory_order_relaxed);
  }
}

void Injector::reset_run() {
  if (!armed_) return;
  std::fill(steps_.begin(), steps_.end(), 0);
  for (int p = 0; p < P_; ++p) {
    dead_[static_cast<std::size_t>(p)].store(false, std::memory_order_relaxed);
    stalled_[static_cast<std::size_t>(p)].store(false, std::memory_order_relaxed);
  }
  // every_run events rearm; one-shot events stay consumed.
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    if (plan_.events[i].every_run) fired_[i] = 0;
  }
}

void Injector::before_op(int rank, const std::atomic<bool>& aborted) {
  if (!armed_) return;
  const std::uint64_t step = ++steps_[static_cast<std::size_t>(rank)];
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const Event& e = plan_.events[i];
    if (e.rank != rank || e.step != step || fired_[i] != 0) continue;
    fired_[i] = 1;
    if (e.action == Action::Kill) throw detail::InjectedKill{rank};
    // Stall: record the fail-slow rank (release: a driver reading stalls()
    // after the run sees it), then let the backend's hook preempt — the
    // simulator's virtual deadline throws from the hook instead of ever
    // blocking wall time.
    stalled_[static_cast<std::size_t>(rank)].store(true, std::memory_order_release);
    if (stall_hook_) stall_hook_(rank);
    // Hang this rank until the machine aborts.  The driver's request_abort()
    // must win the race — poll the abort flag, never sleep unconditionally
    // long, and surface the same abort error a blocked recv would, so the
    // machine unwinds and stays reusable.
    while (!aborted.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    throw std::runtime_error("qr3d::fault: machine aborted while rank stalled by fault plan");
  }
}

void Injector::mark_dead(int rank) {
  dead_[static_cast<std::size_t>(rank)].store(true, std::memory_order_release);
}

bool Injector::is_dead(int rank) const {
  if (!armed_) return false;
  return dead_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
}

std::vector<int> Injector::deaths() const {
  std::vector<int> out;
  if (!armed_) return out;
  for (int p = 0; p < P_; ++p) {
    if (dead_[static_cast<std::size_t>(p)].load(std::memory_order_acquire)) out.push_back(p);
  }
  return out;
}

std::vector<int> Injector::stalls() const {
  std::vector<int> out;
  if (!armed_) return out;
  for (int p = 0; p < P_; ++p) {
    if (stalled_[static_cast<std::size_t>(p)].load(std::memory_order_acquire)) out.push_back(p);
  }
  return out;
}

}  // namespace qr3d::fault
