// Stationary solution of a QBD queue and the queue-length metrics the
// paper reports: mean queue length, pmf, tail probabilities, and the
// geometric decay rate.
//
// One shape covers every infinite-buffer model: boundary levels 0..C, each
// with its own local, up and down blocks, then the homogeneous
// matrix-geometric tail pi_{C+j} = pi_C R^j. The M/MMPP/1-style QbdBlocks
// queue is the C = 1 case; the level-dependent cluster (Sec. 2.4 of the
// paper: fewer tasks than servers, so the first C levels have their own
// service matrices) has C = N.
//
// Every solving construction is verified a posteriori (qbd/trust.h): the
// released solution carries a TrustReport, and a suspect first verdict
// triggers the self-healing escalation ladder
//
//   1. one iterative-refinement pass (a linear fixed-point step on R from
//      the current iterate + fresh boundary solve),
//   2. a re-solve from scratch at the tight tolerance (solve_r_tight),
//
// keeping the best state seen; a final rejected verdict throws
// TrustRejected instead of releasing wrong numbers.
#pragma once

#include <vector>

#include "qbd/rsolver.h"
#include "qbd/trust.h"

namespace performa::qbd {

struct LevelDependentBlocks;  // qbd/level_dependent.h
struct BoundaryLevels;        // the one solved shape (solution.cpp)

/// Matrix-geometric stationary solution:
///   pi_0 .. pi_C (boundary), pi_{C+j} = pi_C R^j for j >= 0.
class QbdSolution {
 public:
  /// Solves R and the boundary system, then verifies against `policy` and
  /// (if needed) self-heals. Throws NumericalError if the queue is
  /// unstable or the solvers fail to converge, and TrustRejected if the
  /// healed answer still fails a rejection threshold. Computes sp(R)
  /// once, after certification (decay_rate()).
  explicit QbdSolution(const QbdBlocks& blocks,
                       const TrustPolicy& policy = {});

  /// The same pipeline on a level-dependent QBD (C = blocks.service.size()
  /// boundary levels), under the default TrustPolicy. Computes no sp(R):
  /// decay_rate() is NaN and callers that need it call spectral_radius(r()).
  explicit QbdSolution(const LevelDependentBlocks& blocks);

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
  const Vector& pi0() const noexcept { return pis_[0]; }
  const Vector& pi1() const noexcept { return pis_[1]; }
  std::size_t phase_dim() const noexcept { return pis_[0].size(); }

  /// Boundary level count C (levels with their own pi_k vector; 1 for
  /// QbdBlocks).
  std::size_t boundary_levels() const noexcept { return pis_.size() - 1; }

  /// Boundary vector pi_k, k = 0..C.
  const Vector& pi(std::size_t k) const;

  /// Pr(Q = 0) -- the probability of an empty system.
  double probability_empty() const;

  /// Pr(Q = k), where Q counts all tasks in the system.
  double pmf(std::size_t k) const;

  /// Pr(Q = 0..k_max) as a vector (computed by one sweep).
  Vector pmf_upto(std::size_t k_max) const;

  /// Tail probability Pr(Q >= k).
  double tail(std::size_t k) const;

  /// E[Q]; for C = 1, pi_1 (I-R)^{-2} e.
  double mean_queue_length() const;

  /// E[Q^2]; with mean_queue_length gives Var[Q].
  double second_moment() const;
  double variance() const;

  /// Geometric decay rate of the queue-length distribution: sp(R)
  /// (the caudal characteristic eta, Pr(Q = k) ~ c eta^k for large k
  /// away from blow-up regions). Computed once per released R -- by the
  /// QbdBlocks and rehydrating constructors and refine() -- and equal to
  /// report().spectral_radius; NaN for a level-dependent solution.
  double decay_rate() const noexcept { return report_.spectral_radius; }

  /// Marginal distribution over service phases (sums the level
  /// expansion); equals the stationary phase vector of the modulating
  /// process -- used as an internal consistency check.
  Vector phase_marginal() const;

  /// Phase mass restricted to busy levels (pi_1 (I-R)^{-1} for C = 1).
  /// Sums to 1 - probability_empty(); used e.g. by discard_fraction().
  Vector phase_marginal_busy() const;

  /// Convergence diagnostics from the R solve.
  unsigned r_iterations() const noexcept { return r_iterations_; }
  double r_residual() const noexcept { return r_residual_; }

  /// Full guardrail diagnostics: the R attempt, final defect,
  /// spectral-radius and condition estimates, drift utilization.
  const SolveReport& report() const noexcept { return report_; }

  /// The a posteriori trust verdict and its per-check evidence.
  const TrustReport& trust() const noexcept { return trust_; }

  /// Recompute the full trust report of a QbdBlocks solution against
  /// `blocks` from scratch (every check re-derived from the stored
  /// R/pi0/pi1, nothing reused from the solve). Stores and returns the
  /// report; grades only, never escalates or throws.
  const TrustReport& verify(const QbdBlocks& blocks,
                            const TrustPolicy& policy = {});

  /// One self-healing pass on a QbdBlocks solution: a linear fixed-point
  /// step on R from the current iterate plus a fresh boundary solve (with
  /// one step of iterative refinement), then sp(R) of the new R. Leaves
  /// the trust report untouched -- callers re-verify.
  void refine(const QbdBlocks& blocks);

 private:
  /// R solve + assemble + certify: both solving constructors.
  void solve(const BoundaryLevels& lv, const TrustPolicy& policy);
  /// (I-R)^{-1} + boundary solve + range clips, from the current r_.
  void assemble(const BoundaryLevels& lv);
  /// refine() without the sp(R) update (the escalation ladder's rung 1).
  void fixed_point_refine(const BoundaryLevels& lv);
  /// Grade the current state, reusing `r_resid` as the (already scaled)
  /// R-residual instead of recomputing it.
  void run_checks(const BoundaryLevels& lv, const TrustPolicy& policy,
                  double r_resid);
  /// verify + escalation ladder; throws TrustRejected on a final reject.
  void certify(const BoundaryLevels& lv, const TrustPolicy& policy);
  /// The reduced check set for the blocks-free rehydration path.
  void verify_rehydrated();

  Matrix r_;
  Matrix i_minus_r_inv_;  // (I - R)^{-1}, reused by every metric
  std::vector<Vector> pis_;  // pi_0 .. pi_C
  unsigned r_iterations_ = 0;
  double r_residual_ = 0.0;
  SolveReport report_;
  TrustReport trust_;
};

}  // namespace performa::qbd
