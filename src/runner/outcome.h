// Outcome taxonomy for supervised experiment points.
//
// Every point a sweep executes ends in exactly one of these states; the
// runner uses the classification to decide between retrying (transient
// faults: a hung or crashed worker) and recording a degraded placeholder
// (deterministic model/solver failures, which would fail identically on
// every retry).
#pragma once

#include <string>
#include <string_view>

namespace performa::runner {

/// Terminal classification of one experiment-point execution.
enum class Outcome {
  kOk,             ///< worker delivered a complete result
  kTimeout,        ///< worker exceeded its wall-clock budget (SIGKILLed)
  kCrash,          ///< worker died: signal, unexpected exit, bad payload
  kSolverFailure,  ///< qbd::SolverFailure -- the R attempt failed
  kUnstableModel,  ///< qbd::UnstableModel -- no stationary solution
  /// The point aborted cooperatively on its obs::Deadline (no SIGKILL
  /// needed). Transient like kTimeout: a retry gets a fresh budget.
  kDeadlineExceeded,
  /// qbd::TrustRejected -- the answer failed a posteriori verification
  /// even after the self-healing ladder. Deterministic like a solver
  /// failure: the same model re-verifies to the same verdict.
  kRejectedAnswer,
};

const char* to_string(Outcome o) noexcept;

/// Inverse of to_string; returns false on unknown text.
bool outcome_from_string(std::string_view text, Outcome& out) noexcept;

/// Transient outcomes (timeout, crash) are worth retrying; deterministic
/// ones (solver failure, unstable model) fail identically every time.
bool is_transient(Outcome o) noexcept;

// Exit codes a worker subprocess uses to report deterministic failures
// upward (chosen away from shells' 126/127/128+n conventions).
inline constexpr int kExitOk = 0;
inline constexpr int kExitSolverFailure = 40;
inline constexpr int kExitUnstableModel = 41;
inline constexpr int kExitError = 42;  ///< other exception -> kCrash
inline constexpr int kExitDeadlineExceeded = 43;  ///< cooperative abort
inline constexpr int kExitRejectedAnswer = 44;    ///< failed verification

/// Map a worker's exit code back to an outcome (signal deaths and
/// unknown codes are handled by the supervisor, not here).
Outcome outcome_from_exit_code(int code) noexcept;

/// Classify an in-flight exception (rethrown from a catch block) and
/// produce the matching exit code plus a one-line diagnostic. Used by
/// the worker child before _exit().
struct ClassifiedError {
  int exit_code = kExitError;
  Outcome outcome = Outcome::kCrash;
  std::string message;
};
ClassifiedError classify_current_exception() noexcept;

}  // namespace performa::runner
