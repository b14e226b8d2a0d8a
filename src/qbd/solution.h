// Stationary solution of a level-independent QBD and the queue-length
// metrics the paper reports: mean queue length, pmf, tail probabilities,
// and the geometric decay rate.
//
// Every solving construction is verified a posteriori (qbd/trust.h): the
// released solution carries a TrustReport, and a suspect first verdict
// triggers the self-healing escalation ladder
//
//   1. one iterative-refinement pass (Newton step on R from the current
//      iterate + fresh boundary solve),
//   2. a tighter-tolerance re-solve,
//   3. a re-solve on an alternate solver tier,
//
// keeping the best state seen; a final rejected verdict throws
// TrustRejected instead of releasing wrong numbers.
#pragma once

#include "qbd/rsolver.h"

namespace performa::qbd {

/// Matrix-geometric stationary solution:
///   pi_0 (boundary), pi_k = pi_1 R^{k-1} for k >= 1.
class QbdSolution {
 public:
  /// Solves R and the boundary system, then verifies and (if needed)
  /// self-heals per opts.trust. Throws NumericalError if the queue is
  /// unstable or the solvers fail to converge, and TrustRejected if the
  /// healed answer still fails a rejection threshold.
  explicit QbdSolution(const QbdBlocks& blocks, const SolverOptions& opts = {});

  /// Rebuild a solution from previously computed parts -- the daemon's
  /// cache-journal rehydration path. `r`, `pi0`, `pi1` must come from an
  /// earlier successful solve of the same model; (I-R)^{-1} is
  /// recomputed, shapes and the matrix-geometric normalization are
  /// re-validated (a corrupted or mismatched triple throws instead of
  /// silently serving wrong probabilities). The blocks are not available
  /// here, so the attached TrustReport carries the reduced check set
  /// (finiteness, sp(R), mass conservation).
  QbdSolution(Matrix r, Vector pi0, Vector pi1, SolveReport report = {});

  const Matrix& r() const noexcept { return r_; }
  const Vector& pi0() const noexcept { return pi0_; }
  const Vector& pi1() const noexcept { return pi1_; }
  std::size_t phase_dim() const noexcept { return pi0_.size(); }

  /// Tail closure (I-R)^{-1}, reused by every metric.
  const Matrix& tail_closure() const noexcept { return i_minus_r_inv_; }

  /// Pr(Q = 0) -- the probability of an empty system.
  double probability_empty() const;

  /// Pr(Q = k), where Q counts all tasks in the system.
  double pmf(std::size_t k) const;

  /// Pr(Q = 0..k_max) as a vector (computed by one sweep).
  Vector pmf_upto(std::size_t k_max) const;

  /// Tail probability Pr(Q >= k).
  double tail(std::size_t k) const;

  /// E[Q] = pi_1 (I-R)^{-2} e.
  double mean_queue_length() const;

  /// E[Q^2]; with mean_queue_length gives Var[Q].
  double second_moment() const;
  double variance() const;

  /// Geometric decay rate of the queue-length distribution: sp(R)
  /// (the caudal characteristic eta, Pr(Q = k) ~ c eta^k for large k
  /// away from blow-up regions). Computed once per released R -- by the
  /// constructors and refine() -- and equal to report().spectral_radius.
  double decay_rate() const noexcept { return report_.spectral_radius; }

  /// Marginal distribution over service phases (sums the level
  /// expansion); equals the stationary phase vector of the modulating
  /// process -- used as an internal consistency check.
  Vector phase_marginal() const;

  /// Phase mass restricted to busy levels: pi_1 (I-R)^{-1}. Sums to
  /// 1 - probability_empty(); used e.g. by discard_fraction().
  Vector phase_marginal_busy() const;

  /// Convergence diagnostics from the R solve.
  unsigned r_iterations() const noexcept { return r_iterations_; }
  double r_residual() const noexcept { return r_residual_; }

  /// Full guardrail diagnostics: fallback-chain attempts, final defect,
  /// spectral-radius and condition estimates, drift utilization.
  const SolveReport& report() const noexcept { return report_; }

  /// The a posteriori trust verdict and its per-check evidence.
  const TrustReport& trust() const noexcept { return trust_; }

  /// Recompute the full trust report against `blocks` from scratch
  /// (every check re-derived from the stored R/pi0/pi1, nothing reused
  /// from the solve). Stores and returns the report; grades only, never
  /// escalates or throws.
  const TrustReport& verify(const QbdBlocks& blocks,
                            const TrustPolicy& policy = {});

  /// One self-healing pass: a one-sided Newton step on R from the current
  /// iterate plus a fresh boundary solve (with one step of iterative
  /// refinement), then sp(R) of the new R. Leaves the trust report
  /// untouched -- callers re-verify.
  void refine(const QbdBlocks& blocks);

 private:
  /// (I-R)^{-1} + boundary solve + range clips, from the current r_.
  void assemble(const QbdBlocks& blocks);
  /// refine() without the sp(R) update (the escalation ladder's rung 1).
  void newton_refine(const QbdBlocks& blocks);
  /// Grade the current state, reusing `r_resid` as the (already scaled)
  /// R-residual instead of recomputing it.
  void run_checks(const QbdBlocks& blocks, const TrustPolicy& policy,
                  double r_resid);
  /// verify + escalation ladder; throws TrustRejected on a final reject.
  void certify(const QbdBlocks& blocks, const SolverOptions& opts);
  /// The reduced check set for the blocks-free rehydration path.
  void verify_rehydrated();

  Matrix r_;
  Matrix i_minus_r_inv_;  // (I - R)^{-1}, reused by every metric
  Vector pi0_;
  Vector pi1_;
  unsigned r_iterations_ = 0;
  double r_residual_ = 0.0;
  SolveReport report_;
  TrustReport trust_;
};

/// One-line helper for the common case: mean queue length of an
/// M/MMPP/1 cluster queue.
double mean_queue_length(const map::Mmpp& service, double lambda,
                         const SolverOptions& opts = {});

}  // namespace performa::qbd
