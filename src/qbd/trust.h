// A posteriori trust verdicts for matrix-geometric solutions.
//
// A converged solve is not a correct solve: the iteration can stop on a
// stagnated update while the residual is still large, the boundary system
// can be ill-conditioned enough to lose half the digits, and a cached R
// can rot (journal corruption, bit flips) without any iteration count to
// look at. The trust layer grades every released QbdSolution with
// independent, cheap a posteriori checks:
//
//   r-residual       scaled defect ||A0 + R A1 + R^2 A2|| / sum||Ai||
//   boundary-residual relative defect of the level-0/1 balance equations
//   mass-conservation |1 - (pi0 e + pi1 (I-R)^{-1} e)|, compensated long
//                     double evaluation (the most sensitive corruption
//                     detector: (I-R)^{-1} amplifies any R perturbation
//                     by ~E[Q] near blow-up points)
//   phase-stationary  GTH-vs-LU cross-check of the phase process (two
//                     algorithms with disjoint failure modes)
//   phase-marginal    solution's phase marginal vs the GTH vector
//   forward-error     condition-scaled estimate kappa * r-residual
//
// Each check is graded against a two-threshold policy into {certified,
// suspect, rejected}; the report's verdict is the worst check. A suspect
// verdict triggers the self-healing escalation ladder inside QbdSolution
// (iterative refinement -> tighter-tolerance re-solve); a final rejected
// verdict throws TrustRejected, which the runner maps to its own outcome
// and the daemon answers explicitly (and never caches or journals).
#pragma once

#include <string>
#include <vector>

#include "linalg/errors.h"

namespace performa::qbd {

/// Trustworthiness of a released answer, worst-first orderable:
/// certified < suspect < rejected.
enum class TrustVerdict {
  kCertified,  ///< every check passed its certified threshold
  kSuspect,    ///< at least one check landed between the thresholds
  kRejected,   ///< at least one check exceeded its rejection threshold
};

const char* to_string(TrustVerdict v) noexcept;

/// One a posteriori check: a dimensionless measured defect graded against
/// the policy's two thresholds for this check.
struct TrustCheck {
  std::string name;
  double measured = 0.0;
  double certified_below = 0.0;  ///< certified when measured < this
  double rejected_above = 0.0;   ///< rejected when measured > this
  std::string detail;            ///< optional context (what was compared)

  /// Grade of this check alone; a non-finite measurement is rejected.
  TrustVerdict verdict() const noexcept;

  /// measured / certified_below -- how far from the certified band the
  /// check sits (< 1 means certified).
  double severity() const noexcept;
};

/// Thresholds for the verification every solving construction runs. The
/// certified thresholds sit ~3 orders of magnitude above the empirical
/// double-precision floors of healthy solves (see DESIGN.md section 11),
/// the rejection thresholds ~3 further orders up: a rejected answer is not
/// borderline, it is wrong in digits a caller would read.
struct TrustPolicy {
  double r_residual_certified = 1e-9;
  double r_residual_rejected = 1e-4;
  double boundary_residual_certified = 1e-9;
  double boundary_residual_rejected = 1e-4;
  // Empirical floors (probe over exp/erlang/TPT models, dim 3..1820, rho
  // up to 0.95, rates scaled 1e-6..1e6): pristine solves sit at <= 5e-16
  // *independently of dimension* -- the check is evaluated in compensated
  // long double, so its floor does not grow with the state space. An
  // all-entries 1-ulp corruption of R surfaces at ~eps * E[Q] through the
  // (I-R)^{-1} amplification (5e-13 at E[Q] ~ 4300), which is why this
  // threshold sits closer to its floor than the others: it is the one
  // check whose floor permits catching per-ulp rot.
  double mass_defect_certified = 5e-14;
  double mass_defect_rejected = 1e-6;
  double phase_agreement_certified = 1e-8;
  double phase_agreement_rejected = 1e-3;
  double forward_error_certified = 1e-6;
  double forward_error_rejected = 1e-1;
};

/// The evidence attached to every released solution: per-check
/// measurements plus the collapsed verdict and the healing trail that led
/// to it.
struct TrustReport {
  /// False until a verification ran; the verdict is meaningless then.
  bool verified = false;
  TrustVerdict verdict = TrustVerdict::kSuspect;
  std::vector<TrustCheck> checks;
  unsigned refinements = 0;  ///< self-healing refinement passes applied
  unsigned resolves = 0;     ///< tighter-tolerance re-solves
  std::string healing;       ///< escalation trail, e.g. "refine->certified"

  /// Worst check by severity; nullptr when no checks ran.
  const TrustCheck* worst() const noexcept;

  /// Largest per-check severity (0 when no checks ran).
  double severity() const noexcept;

  /// Set verdict to the worst per-check verdict and mark verified.
  void grade() noexcept;

  /// Multi-line rendering (perfctl --report).
  std::string to_string() const;

  /// One-line rendering for wire protocols and progress lines.
  std::string summary() const;
};

/// The escalation ladder ran dry and the answer still fails a rejection
/// threshold: the numbers are wrong in digits a caller would read, so
/// they must not be released, cached, or journaled. Carries the full
/// evidence.
class TrustRejected : public NumericalError {
 public:
  TrustRejected(const std::string& what, TrustReport trust)
      : NumericalError(what + "\n" + trust.to_string()),
        trust_(std::move(trust)) {}

  const TrustReport& trust() const noexcept { return trust_; }

 private:
  TrustReport trust_;
};

}  // namespace performa::qbd
