// Cooperative deadlines and cancellation for long-running computations.
//
// A Deadline is a shared token combining an optional wall-clock expiry
// with an explicit cancellation flag. It is *cooperative*: nothing is
// preempted; instead, iterative kernels (the QBD R solver, expm's
// squaring phase, LU factorization of large systems, solution assembly)
// poll `deadline_expired()` between iterations and abort with a typed
// DeadlineError, so a slow solve returns control in bounded time instead
// of wedging its worker.
//
// Installation is thread-local, via RAII: the serving layer wraps each
// request in a DeadlineScope and the whole solver stack below it becomes
// deadline-aware without threading a parameter through every signature.
// Scopes nest; an inner scope never *extends* the outer budget (the
// effective deadline is the minimum), so a library call cannot opt out
// of its caller's deadline.
//
// Cost model: deadline_expired() with no scope installed is one
// thread-local pointer load. With a scope installed it is the pointer
// load, one relaxed atomic load (the cancel flag), and -- only when a
// wall-clock expiry is armed -- one steady_clock read. Hot loops poll at
// their natural stage cadence (once per iteration of an O(m^3) kernel),
// where that cost vanishes.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

namespace performa::obs {

/// Shared deadline/cancellation token. Copies share one state: any
/// holder can cancel(), every holder observes it. Default-constructed
/// tokens are unlimited (never expire, but remain cancellable).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited: no wall-clock expiry (still cancellable).
  Deadline() : state_(std::make_shared<State>()) {}

  /// Expires `seconds` from now. Non-positive budgets are already
  /// expired -- useful for deterministic tests of the abort paths.
  static Deadline after_seconds(double seconds);

  /// Expires at `at`.
  static Deadline at(Clock::time_point at);

  /// True when cancelled or past the wall-clock expiry.
  bool expired() const noexcept;

  /// Raise the cancellation flag (idempotent, thread-safe). The watchdog
  /// uses this to revoke a stuck solve from outside its thread.
  void cancel() noexcept { state_->cancelled.store(true, std::memory_order_relaxed); }

  bool cancelled() const noexcept {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  bool has_wall_deadline() const noexcept { return state_->has_expiry; }

  /// Seconds until the wall-clock expiry; +infinity when unlimited,
  /// negative once past it, 0 when cancelled.
  double remaining_seconds() const noexcept;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    bool has_expiry = false;
    Clock::time_point expires_at{};
  };
  std::shared_ptr<State> state_;
};

/// RAII thread-local installation. The installed deadline is the
/// *minimum* of `d` and any enclosing scope's deadline (a nested scope
/// can only tighten the budget); destruction restores the outer scope.
class DeadlineScope {
 public:
  explicit DeadlineScope(Deadline d);
  ~DeadlineScope();
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  Deadline* previous_;
  Deadline effective_;
};

/// True when the calling thread runs under an installed deadline that
/// has expired or been cancelled. The poll the solver loops call.
bool deadline_expired() noexcept;

}  // namespace performa::obs
