// Solvers for the matrix-quadratic equations of QBD theory:
//
//   R:  A0 + R A1 + R^2 A2 = 0   (rate matrix, Neuts)
//   G:  A2 + A1 G + A0 G^2 = 0   (first-passage matrix)
//
// solve_r() is the one production R algorithm: the mean-drift stability
// pre-check (typed UnstableModel error before any iteration budget is
// spent), then Latouche-Ramaswami logarithmic reduction (quadratic
// convergence) for G and R = A0 (-(A1 + A0 G))^{-1}. The attempt is
// recorded in a SolveReport; a failed attempt throws SolverFailure
// carrying that report. Classic successive substitution (linear
// convergence, trivially correct) is kept only as the reference the tests
// cross-check logarithmic reduction against: no solving path reaches it.
#pragma once

#include "qbd/qbd.h"
#include "qbd/solve_report.h"

namespace performa::qbd {

/// Stopping threshold of logarithmic reduction on the G defect
/// max_i |1 - (G e)_i|.
inline constexpr double kRTolerance = 1e-13;

/// Result of an R computation with convergence diagnostics.
struct RSolveResult {
  Matrix r;                ///< the minimal non-negative solution R
  unsigned iterations = 0; ///< iterations used by the attempt
  /// Scaled residual ||A0 + R A1 + R^2 A2||_inf / sum_i ||Ai||_inf at
  /// return (the raw norm is report.final_defect_raw).
  double residual = 0.0;
  SolveReport report;      ///< full guardrail diagnostics
};

/// Result of a G computation (logarithmic reduction).
struct GSolveResult {
  Matrix g;                 ///< first-passage matrix (stochastic iff stable)
  unsigned iterations = 0;  ///< doubling steps used
  double defect = 0.0;      ///< max_i |1 - (G e)_i| actually achieved
  bool converged = false;
  /// The iteration was cut off by the calling thread's cooperative
  /// deadline (obs::DeadlineScope) rather than by non-convergence.
  bool deadline_expired = false;
};

/// Compute R by logarithmic reduction (see file comment). The QBD must be
/// irreducible and stable; an unstable model throws UnstableModel from the
/// drift pre-check, a failed attempt throws SolverFailure with its
/// one-attempt report, and an expired deadline throws DeadlineExceeded.
RSolveResult solve_r(const QbdBlocks& blocks);

/// solve_r at the tight tolerance 1e-15: the re-solve rung of
/// QbdSolution's self-healing ladder.
RSolveResult solve_r_tight(const QbdBlocks& blocks);

/// Reference R by successive substitution, R_{k+1} (-A1) = A0 + R_k^2 A2
/// from R_0 = 0, stopped when an update moves no entry by `tolerance`.
/// Linear at rate ~sp(R), so only practical away from saturation. Tests
/// compare logarithmic reduction against it; no solving path calls it.
/// Runs no stability pre-check; throws SolverFailure when its budget of
/// 100000 iterations runs out or an iterate turns non-finite.
RSolveResult solve_r_successive_substitution(const QbdBlocks& blocks,
                                             double tolerance = kRTolerance);

/// Compute G with logarithmic reduction (used internally by solve_r and
/// exposed for tests: G is stochastic iff the chain is recurrent).
/// Throws NumericalError -- with the achieved defect in the message --
/// when the iteration fails to converge.
GSolveResult solve_g_logred(const QbdBlocks& blocks);

/// Block scale sum_i ||Ai||_inf used to normalize R-residuals (1 for an
/// all-zero QBD, so the scaled residual is always well defined).
double residual_scale(const QbdBlocks& blocks) noexcept;

/// Scaled residual ||A0 + R A1 + R^2 A2||_inf / residual_scale(blocks):
/// the dimensionless defect reported in SolveReport::final_defect and
/// graded by the trust thresholds.
double r_residual_norm(const QbdBlocks& blocks, const Matrix& r);

/// Spectral radius estimate of a non-negative matrix: a few rescaled
/// squarings of the operand, then power iteration on the result (the
/// power steps run on the kern::gemv kernel). For R this is the caudal
/// characteristic (geometric decay rate) of the queue-length
/// distribution. solve_r does not call it; QbdSolution computes it once
/// per answer (decay_rate()).
///
/// Known accuracy defect, documented rather than fixed because the fix
/// moves released values: the estimate can stop well short of `tol`.
/// Against a Collatz-Wielandt bracket it is off by
///   * 1.5e-6 at N=200 T=1 rho=0.7 (lumped TPT): the absolute stop test
///     diff < tol*max(1, lambda) is applied to the rescaled
///     lambda(b) = 1.4e-8, so it ends after 69 steps where about 170
///     are needed to get within 1e-12;
///   * 1.1e-7 to 1.6e-7 at Fig. 6 N=5 T=10 rho=0.92 (HYP-2): the
///     20000-step cap ends it; uncapped, the stop test would fire only
///     after about 72k steps;
///   * 6e-9 at Fig. 1 T=10 rho=0.9: the same cap (uncapped: about 31k
///     steps).
/// The fix is a relative stop test plus shift-invert iteration on
/// (I-R)^{-1}, which converges at rate (1-eta)/(1-lambda_2). It moves two
/// perfbench reference answers by more than their 1e-8 check, so it waits
/// for a re-cut of those references (DESIGN.md section 11).
double spectral_radius(const Matrix& m, double tol = 1e-12,
                       unsigned max_iter = 20000);

}  // namespace performa::qbd
