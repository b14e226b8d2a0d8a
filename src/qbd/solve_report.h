// Solver diagnostics threaded through the matrix-geometric machinery.
//
// Every R solve produces a SolveReport describing what was attempted, how
// it ended, and how good the result is. On failure the report travels
// inside a SolverFailure exception so callers (and the perfctl CLI) can
// print *why* a solve died instead of a bare one-line message.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "linalg/errors.h"

namespace performa::qbd {

/// R algorithms: solve_r runs logarithmic reduction; successive
/// substitution is the test reference (solve_r_successive_substitution).
enum class SolveAlgorithm {
  kSuccessiveSubstitution,  ///< linear convergence, bulletproof
  kLogarithmicReduction,    ///< quadratic convergence (Latouche-Ramaswami)
};

const char* to_string(SolveAlgorithm a) noexcept;

/// One solve attempt: what was tried and how it ended.
struct SolveAttempt {
  SolveAlgorithm algorithm = SolveAlgorithm::kLogarithmicReduction;
  unsigned iterations = 0;  ///< iterations consumed by this attempt
  double defect = 0.0;      ///< best *scaled* defect/residual reached
  double seconds = 0.0;     ///< wall-clock time (span-backed, obs layer)
  bool converged = false;
  std::string note;         ///< failure reason when !converged
};

/// Full diagnostics of one R-matrix solve.
struct SolveReport {
  bool converged = false;
  /// The solve aborted cooperatively: the thread's installed deadline
  /// (obs::DeadlineScope) expired or was cancelled mid-iteration. The
  /// interrupted attempt's note records where the budget ran out.
  bool deadline_exceeded = false;
  unsigned iterations = 0;       ///< iterations of the converged attempt
  /// Scaled residual ||A0 + R A1 + R^2 A2||_inf / (||A0|| + ||A1|| +
  /// ||A2||) at return -- dimensionless, comparable across rate
  /// magnitudes, and the quantity the trust thresholds grade.
  double final_defect = 0.0;
  /// The raw (unscaled) residual norm, kept for diagnostics: defect *
  /// block scale, in the model's rate units.
  double final_defect_raw = 0.0;
  /// sp(R) estimate (caudal characteristic). NaN until a QbdSolution
  /// computes it: solve_r and the level-dependent QbdSolution leave it
  /// unset, and the renderings below then omit it.
  double spectral_radius = std::numeric_limits<double>::quiet_NaN();
  double condition = 0.0;        ///< kappa_1 estimate of the final linear solve
  double utilization = 0.0;      ///< mean-drift rho from the pre-check
  /// Query id active when the solve started (obs::current_query_id());
  /// empty outside a request scope. Joins this report against daemon
  /// wire replies, slow-query log records and flight-recorder dumps.
  std::string query_id;
  std::vector<SolveAttempt> attempts;

  /// Multi-line human-readable rendering (perfctl --report).
  std::string to_string() const;

  /// Single-line rendering for contexts where the full report does not
  /// fit (sweep-runner progress lines, checkpoint records).
  std::string summary() const;
};

/// The R attempt did not converge; carries its report.
class SolverFailure : public NumericalError {
 public:
  SolverFailure(const std::string& what, SolveReport report)
      : NumericalError(what + "\n" + report.to_string()),
        report_(std::move(report)) {}

  const SolveReport& report() const noexcept { return report_; }

 private:
  SolveReport report_;
};

/// The solve was aborted cooperatively because the calling thread's
/// deadline expired (or its token was cancelled) between iterations;
/// carries the partial report with deadline_exceeded set. The solve did
/// not fail -- it ran out of budget -- so callers with a cached prior
/// answer can degrade to it instead of erroring.
class DeadlineExceeded : public DeadlineError {
 public:
  DeadlineExceeded(const std::string& what, SolveReport report)
      : DeadlineError(what), report_(std::move(report)) {
    report_.deadline_exceeded = true;
  }

  const SolveReport& report() const noexcept { return report_; }

 private:
  SolveReport report_;
};

/// Stability pre-check rejected the model: mean drift is non-negative
/// (utilization >= 1), so no stationary solution exists. Thrown *before*
/// any iteration budget is spent.
class UnstableModel : public NumericalError {
 public:
  UnstableModel(const std::string& what, double utilization)
      : NumericalError(what), utilization_(utilization) {}

  double utilization() const noexcept { return utilization_; }

 private:
  double utilization_;
};

}  // namespace performa::qbd
