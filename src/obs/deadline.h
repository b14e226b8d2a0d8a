// Cooperative deadlines for long-running computations.
//
// A Deadline is an optional wall-clock expiry. It is *cooperative*:
// nothing is preempted; instead, iterative kernels (the QBD R solver,
// expm's squaring phase, LU factorization of large systems, solution
// assembly) poll `deadline_expired()` between iterations and abort with
// a typed DeadlineError, so a slow solve returns control in bounded time
// instead of wedging its worker.
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
// load and -- only when a wall-clock expiry is armed -- one steady_clock
// read. Hot loops poll at their natural stage cadence (once per
// iteration of an O(m^3) kernel), where that cost vanishes.
#pragma once

#include <chrono>

namespace performa::obs {

/// A wall-clock expiry, or none. Default-constructed deadlines are
/// unlimited (never expire).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Expires `seconds` from now. Non-positive budgets are already
  /// expired -- useful for deterministic tests of the abort paths.
  static Deadline after_seconds(double seconds);

  /// Expires at `at`.
  static Deadline at(Clock::time_point at);

  /// True when past the wall-clock expiry.
  bool expired() const noexcept;

  bool has_wall_deadline() const noexcept { return has_expiry_; }

  /// Seconds until the wall-clock expiry; +infinity when unlimited,
  /// negative once past it.
  double remaining_seconds() const noexcept;

 private:
  bool has_expiry_ = false;
  Clock::time_point expires_at_{};
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
/// has expired. The poll the solver loops call.
bool deadline_expired() noexcept;

}  // namespace performa::obs
