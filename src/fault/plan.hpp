// Deterministic fault plans: the injection vocabulary of the fault subsystem.
//
// A fault::Plan scripts what goes wrong and when: kill (the rank's thread
// unwinds and its channels go dead) or stall (the rank blocks until the
// machine aborts) rank r at logical step s, where a rank's logical step
// counter advances by one at every point-to-point comm operation it issues
// (send or recv), starting at 1.  Counting comm ops — not wall time — is
// what makes injection deterministic and backend-independent: the same plan
// fires at the same point of the same SPMD execution on the simulator and
// on the real threaded backend, which is what lets the conformance suite
// pin recovered results across backends bitwise.
//
// Install a plan on an idle machine with backend::Machine::set_fault_plan().
// Events are one-shot by default: once fired, an event stays consumed across
// run() calls until a new plan is installed — so a serving layer that
// retries a failed session on the surviving ranks observes the retry
// *succeed*, exactly like a real rank that died once.  Set
// Event::every_run = true for a fault that re-fires on every run (used to
// test retry exhaustion).
//
// Grounding: the kill/detect/recover loop follows the coded-computing model
// of "Coded Computing for Fault-Tolerant Parallel QR Decomposition"
// (arXiv 2311.11943); recovery is serve::BatchSolver's requeue on the
// surviving ranks.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace qr3d::fault {

/// What happens to the faulted rank when its event fires.
enum class Action {
  Kill,   ///< the rank dies: unwinds immediately, channels report RankDead
  Stall,  ///< the rank hangs: blocks until the machine aborts
};

/// One scripted fault: `action` on `rank` when its logical comm-op counter
/// reaches `step` (1 = the rank's first send/recv).
struct Event {
  int rank = -1;
  std::uint64_t step = 1;
  Action action = Action::Kill;
  /// Re-fire on every run() instead of once per installed plan.
  bool every_run = false;
};

/// A deterministic fault schedule: a list of scripted events, or a seeded
/// random draw over (rank, step) for sweep-style testing.
struct Plan {
  std::vector<Event> events;

  bool empty() const { return events.empty(); }

  /// Script: kill `rank` at logical step `step`.
  static Plan kill(int rank, std::uint64_t step) {
    Plan p;
    p.events.push_back(Event{rank, step, Action::Kill, false});
    return p;
  }

  /// Script: stall `rank` at logical step `step` (until the machine aborts).
  static Plan stall(int rank, std::uint64_t step) {
    Plan p;
    p.events.push_back(Event{rank, step, Action::Stall, false});
    return p;
  }

  /// Seeded random plan: `kills` distinct ranks out of P, each killed at a
  /// step drawn uniformly from [1, max_step].  Deterministic in `seed`
  /// (splitmix64), so a "random" sweep is exactly reproducible.
  static Plan random_kills(int P, int kills, std::uint64_t max_step, std::uint64_t seed);

  /// Seeded random mixed plan: `kills` + `stalls` DISTINCT ranks (a rank is
  /// killed or stalled, never both), steps drawn uniformly from
  /// [1, max_step].  random_faults(P, k, 0, s, seed) draws exactly the same
  /// events as random_kills(P, k, s, seed) — chaos sweeps that add stalls to
  /// an existing kill seed keep the kill schedule bit-identical.
  static Plan random_faults(int P, int kills, int stalls, std::uint64_t max_step,
                            std::uint64_t seed);
};

/// The error a dead rank's channels surface: thrown by a surviving rank's
/// recv (or communicator split) when the peer it is waiting on has been
/// killed, and by backend::Machine::run() when injected deaths left the run
/// incomplete but no survivor errored.  Derives std::runtime_error so
/// existing machine-failure handling keeps working; fault-aware layers
/// (serve::BatchSolver) catch the concrete type and recover instead.
class RankDeath : public std::runtime_error {
 public:
  RankDeath(int rank, const std::string& what) : std::runtime_error(what), rank_(rank) {}
  /// Global rank (world numbering) of the dead peer.
  int rank() const { return rank_; }

 private:
  int rank_;
};

namespace detail {

/// Internal unwind token thrown *by the injector on the victim's own thread*
/// when a Kill event fires.  Deliberately not derived from std::exception:
/// algorithm- or user-level `catch (const std::exception&)` must not swallow
/// a death — only the machine's runner catches this, marks the rank dead,
/// and keeps the run going for the survivors.
struct InjectedKill {
  int rank = -1;
};

}  // namespace detail

}  // namespace qr3d::fault
