#include "qbd/solution.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/compensated.h"
#include "linalg/ctmc.h"
#include "linalg/lu.h"
#include "obs/deadline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace performa::qbd {

namespace {

// x^T columns stacked: solve for [pi0 pi1] from
//   pi0 B00 + pi1 B10 = 0
//   pi0 B01 + pi1 (A1 + R A2) = 0
// with one equation replaced by the normalization
//   pi0 e + pi1 (I-R)^{-1} e = 1.
void solve_boundary(const QbdBlocks& b, const Matrix& r,
                    const Matrix& i_minus_r_inv, Vector& pi0, Vector& pi1) {
  const std::size_t m = b.phase_dim();
  const Matrix lower_right = b.a1 + r * b.a2;
  const Vector norm_tail = i_minus_r_inv * linalg::ones(m);

  // Row-vector system x M = 0 becomes M^T y = 0 with y = x^T; replace the
  // first equation with the normalization row.
  const std::size_t n = 2 * m;
  Matrix sys(n, n, 0.0);
  Vector rhs(n, 0.0);

  // Equation index 0: normalization.
  for (std::size_t j = 0; j < m; ++j) {
    sys(0, j) = 1.0;                // pi0 . e
    sys(0, m + j) = norm_tail[j];   // pi1 . (I-R)^{-1} e
  }
  rhs[0] = 1.0;

  // Equations 1..m-1 from the first block column (balance at level 0),
  // skipping component 0 which the normalization replaced.
  for (std::size_t c = 1; c < m; ++c) {
    for (std::size_t j = 0; j < m; ++j) {
      sys(c, j) = b.b00(j, c);
      sys(c, m + j) = b.b10(j, c);
    }
  }
  // Equations m..2m-1 from the second block column (balance at level 1).
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t j = 0; j < m; ++j) {
      sys(m + c, j) = b.b01(j, c);
      sys(m + c, m + j) = lower_right(j, c);
    }
  }

  const linalg::Lu lu(sys);
  Vector y = lu.solve(rhs);
  // One step of fixed-precision iterative refinement with a compensated
  // long-double residual: two extra triangular sweeps (O(m^2)) recover
  // the digits the factorization loses when the boundary system is
  // ill-conditioned (kappa grows like 1/(1-rho) toward saturation).
  Vector resid(n);
  for (std::size_t i = 0; i < n; ++i) {
    linalg::CompensatedSum<long double> acc(
        static_cast<long double>(rhs[i]));
    for (std::size_t j = 0; j < n; ++j) {
      acc.add(-static_cast<long double>(sys(i, j)) * y[j]);
    }
    resid[i] = static_cast<double>(acc.value());
  }
  const Vector dy = lu.solve(resid);
  for (std::size_t i = 0; i < n; ++i) y[i] += dy[i];

  pi0.assign(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(m));
  pi1.assign(y.begin() + static_cast<std::ptrdiff_t>(m), y.end());
}

// |1 - (pi0 e + pi1 (I-R)^{-1} e)| in compensated long double: the
// probability-mass conservation defect. (I-R)^{-1} amplifies an R
// perturbation dR by roughly (I-R)^{-1} dR (I-R)^{-1}, i.e. by ~E[Q]^2
// near saturation, which is what makes this the most sensitive detector
// of a corrupted or under-converged R.
double mass_defect(const Vector& pi0, const Vector& pi1, const Matrix& inv) {
  linalg::CompensatedSum<long double> acc;
  for (double x : pi0) acc.add(static_cast<long double>(x));
  const std::size_t m = pi1.size();
  for (std::size_t j = 0; j < m; ++j) {
    linalg::CompensatedSum<long double> row;
    for (std::size_t k = 0; k < m; ++k) {
      row.add(static_cast<long double>(inv(j, k)));
    }
    acc.add(static_cast<long double>(pi1[j]) * row.value());
  }
  return std::abs(static_cast<double>(acc.value() - 1.0L));
}

// Relative defect of the two boundary balance equations
//   pi0 B00 + pi1 B10 = 0,   pi0 B01 + pi1 (A1 + R A2) = 0,
// evaluated component-wise in compensated long double. Component 0 of
// the first equation is NOT enforced by the boundary solve (the
// normalization row replaced it), so this measures genuine solution
// quality, not just how well LU inverted its own system.
double boundary_defect(const QbdBlocks& b, const Matrix& r, const Vector& pi0,
                       const Vector& pi1) {
  const std::size_t m = pi0.size();
  const Matrix lower_right = b.a1 + r * b.a2;
  long double worst = 0.0L;
  for (std::size_t c = 0; c < m; ++c) {
    linalg::CompensatedSum<long double> e0;
    linalg::CompensatedSum<long double> e1;
    for (std::size_t j = 0; j < m; ++j) {
      e0.add(static_cast<long double>(pi0[j]) * b.b00(j, c));
      e0.add(static_cast<long double>(pi1[j]) * b.b10(j, c));
      e1.add(static_cast<long double>(pi0[j]) * b.b01(j, c));
      e1.add(static_cast<long double>(pi1[j]) * lower_right(j, c));
    }
    worst = std::max(worst, std::abs(e0.value()));
    worst = std::max(worst, std::abs(e1.value()));
  }
  const double coeff = linalg::norm_inf(b.b00) + linalg::norm_inf(b.b10) +
                       linalg::norm_inf(b.b01) + linalg::norm_inf(lower_right);
  const double mass = std::max(linalg::norm_inf(pi0), linalg::norm_inf(pi1));
  const double scale = std::max(coeff * mass, 1e-300);
  return static_cast<double>(worst) / scale;
}

// Stationary vector of a generator via plain LU (transpose + replace one
// equation by normalization): deliberately a different algorithm family
// than GTH, so the two agreeing certifies the phase process and the two
// disagreeing flags ill-conditioning that GTH's cancellation-free
// elimination would otherwise hide.
Vector stationary_lu(const Matrix& gen) {
  const std::size_t m = gen.rows();
  Matrix sys(m, m, 0.0);
  Vector rhs(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) sys(0, j) = 1.0;
  rhs[0] = 1.0;
  for (std::size_t c = 1; c < m; ++c) {
    for (std::size_t j = 0; j < m; ++j) sys(c, j) = gen(j, c);
  }
  return linalg::Lu(sys).solve(rhs);
}

}  // namespace

QbdSolution::QbdSolution(const QbdBlocks& blocks, const SolverOptions& opts) {
  RSolveResult rs = solve_r(blocks, opts);
  r_ = std::move(rs.r);
  r_iterations_ = rs.iterations;
  r_residual_ = rs.residual;
  report_ = std::move(rs.report);

  assemble(blocks);
  if (opts.trust.enabled) certify(blocks, opts);
  // sp(R) once per answer, on the R that certification released.
  report_.spectral_radius = spectral_radius(r_);
}

QbdSolution::QbdSolution(Matrix r, Vector pi0, Vector pi1,
                         SolveReport report)
    : r_(std::move(r)),
      pi0_(std::move(pi0)),
      pi1_(std::move(pi1)),
      report_(std::move(report)) {
  const std::size_t m = r_.rows();
  PERFORMA_EXPECTS(r_.is_square() && m > 0 && pi0_.size() == m &&
                       pi1_.size() == m,
                   "QbdSolution: rehydrated R/pi0/pi1 shapes disagree");
  linalg::check_finite(r_, "QbdSolution: rehydrated R");
  linalg::check_finite(pi0_, "QbdSolution: rehydrated pi0");
  linalg::check_finite(pi1_, "QbdSolution: rehydrated pi1");
  report_.spectral_radius = spectral_radius(r_);
  if (report_.spectral_radius >= 1.0) {
    throw NumericalError(
        "QbdSolution: rehydrated R has spectral radius >= 1 (corrupt or "
        "mismatched journal entry)");
  }
  i_minus_r_inv_ = linalg::inverse(Matrix::identity(m) - r_);
  const double total = linalg::sum(pi0_) +
          linalg::dot(pi1_, i_minus_r_inv_ * linalg::ones(m));
  if (std::abs(total - 1.0) > 1e-6) {
    throw NumericalError(
        "QbdSolution: rehydrated solution is not normalized (corrupt or "
        "mismatched journal entry)");
  }
  report_.converged = true;
  r_iterations_ = report_.iterations;
  r_residual_ = report_.final_defect;
  verify_rehydrated();
}

void QbdSolution::assemble(const QbdBlocks& blocks) {
  PERFORMA_SPAN("qbd.solution.assemble");
  if (obs::deadline_expired()) {
    report_.deadline_exceeded = true;
    throw DeadlineExceeded(
        "QbdSolution: deadline expired before boundary assembly", report_);
  }
  const std::size_t m = blocks.phase_dim();
  i_minus_r_inv_ = linalg::inverse(Matrix::identity(m) - r_);
  solve_boundary(blocks, r_, i_minus_r_inv_, pi0_, pi1_);
  linalg::check_finite(pi0_, "QbdSolution: boundary vector pi0");
  linalg::check_finite(pi1_, "QbdSolution: boundary vector pi1");

  // The boundary solve can produce tiny negative round-off; clip and
  // renormalize so downstream probabilities stay in range.
  for (Vector* vec : {&pi0_, &pi1_}) {
    for (double& x : *vec) {
      if (x < 0.0 && x > -1e-12) x = 0.0;
      if (x < 0.0) {
        throw NumericalError(
            "QbdSolution: boundary solve produced a negative probability");
      }
    }
  }
  const double total = linalg::sum(pi0_) +
          linalg::dot(pi1_, i_minus_r_inv_ * linalg::ones(m));
  if (std::abs(total - 1.0) > 1e-8) {
    throw NumericalError("QbdSolution: boundary normalization failed");
  }
}

void QbdSolution::run_checks(const QbdBlocks& blocks,
                             const TrustPolicy& policy, double r_resid) {
  PERFORMA_SPAN("qbd.solution.verify");
  TrustReport t;

  t.checks.push_back({"r-residual", r_resid, policy.r_residual_certified,
                      policy.r_residual_rejected,
                      "scaled ||A0 + R A1 + R^2 A2||"});

  t.checks.push_back({"boundary-residual",
                      boundary_defect(blocks, r_, pi0_, pi1_),
                      policy.boundary_residual_certified,
                      policy.boundary_residual_rejected,
                      "level-0/1 balance equations"});

  t.checks.push_back({"mass-conservation",
                      mass_defect(pi0_, pi1_, i_minus_r_inv_),
                      policy.mass_defect_certified,
                      policy.mass_defect_rejected,
                      "|1 - pi . tail closure|, compensated"});

  // Independent cross-check of the phase process: GTH (cancellation-free
  // elimination) vs plain LU on the same generator, then the solution's
  // own phase marginal against the GTH vector. The two solvers share no
  // failure modes; the marginal ties the boundary/tail machinery back to
  // the phase process it must reproduce.
  const Matrix gen = blocks.a0 + blocks.a1 + blocks.a2;
  try {
    const Vector pi_gth = linalg::stationary_distribution(gen);
    const Vector pi_lu = stationary_lu(gen);
    t.checks.push_back({"phase-stationary",
                        linalg::max_abs_diff(pi_gth, pi_lu),
                        policy.phase_agreement_certified,
                        policy.phase_agreement_rejected, "GTH vs LU"});
    t.checks.push_back({"phase-marginal",
                        linalg::max_abs_diff(phase_marginal(), pi_gth),
                        policy.phase_agreement_certified,
                        policy.phase_agreement_rejected,
                        "solution marginal vs GTH"});
  } catch (const NumericalError& e) {
    t.checks.push_back({"phase-stationary",
                        std::numeric_limits<double>::quiet_NaN(),
                        policy.phase_agreement_certified,
                        policy.phase_agreement_rejected, e.what()});
  }

  // Condition-scaled forward-error estimate: kappa of the winning
  // attempt's final linear solve times the scaled residual bounds the
  // relative error the solve can have committed. Skipped when no
  // condition estimate is available (rehydrated reports).
  if (report_.condition > 0.0) {
    t.checks.push_back({"forward-error", report_.condition * r_resid,
                        policy.forward_error_certified,
                        policy.forward_error_rejected,
                        "cond(final solve) * r-residual"});
  }

  t.grade();
  // Preserve the healing trail across re-gradings within one escalation.
  t.refinements = trust_.refinements;
  t.resolves = trust_.resolves;
  t.healing = trust_.healing;
  trust_ = std::move(t);
}

const TrustReport& QbdSolution::verify(const QbdBlocks& blocks,
                                       const TrustPolicy& policy) {
  run_checks(blocks, policy, r_residual_norm(blocks, r_));
  return trust_;
}

void QbdSolution::refine(const QbdBlocks& blocks) {
  newton_refine(blocks);
  report_.spectral_radius = spectral_radius(r_);
}

void QbdSolution::newton_refine(const QbdBlocks& blocks) {
  PERFORMA_SPAN("qbd.solution.refine");
  static obs::Counter& refinements = obs::counter("qbd.trust.refinements");
  refinements.add();
  // One-sided Newton step from the current iterate:
  //   R' = A0 (-(A1 + R A2))^{-1}.
  // The map contracts toward the minimal solution from any nearby
  // perturbed iterate, so a single step strips an injected perturbation
  // down to roundoff; the boundary re-solve then re-normalizes the
  // probability mass against the refined tail closure exactly.
  const linalg::Lu shifted(-1.0 * (blocks.a1 + r_ * blocks.a2));
  Matrix next = shifted.solve_left(blocks.a0);
  linalg::check_finite(next, "QbdSolution::refine: refined R");
  r_ = std::move(next);
  r_residual_ = r_residual_norm(blocks, r_);
  report_.final_defect = r_residual_;
  report_.final_defect_raw = r_residual_ * residual_scale(blocks);
  report_.condition = shifted.condition_estimate();
  assemble(blocks);
}

void QbdSolution::certify(const QbdBlocks& blocks, const SolverOptions& opts) {
  PERFORMA_SPAN("qbd.solution.certify");
  const TrustPolicy& policy = opts.trust;
  // First grading reuses the scaled residual solve_r just computed on
  // this exact R: the warm path pays the cheap checks only.
  run_checks(blocks, policy, r_residual_);

  if (trust_.verdict != TrustVerdict::kCertified && policy.escalate) {
    static obs::Counter& escalations = obs::counter("qbd.trust.escalations");
    escalations.add();

    struct Snapshot {
      Matrix r, inv;
      Vector p0, p1;
      SolveReport rep;
      unsigned iterations;
      double residual;
      TrustReport trust;
    };
    const auto take = [this] {
      return Snapshot{r_,      i_minus_r_inv_, pi0_,        pi1_,
                      report_, r_iterations_,  r_residual_, trust_};
    };
    const auto put_back = [this](const Snapshot& s) {
      r_ = s.r;
      i_minus_r_inv_ = s.inv;
      pi0_ = s.p0;
      pi1_ = s.p1;
      report_ = s.rep;
      r_iterations_ = s.iterations;
      r_residual_ = s.residual;
      trust_ = s.trust;
    };
    const auto better = [](const TrustReport& a, const TrustReport& b) {
      if (a.verdict != b.verdict) {
        return static_cast<int>(a.verdict) < static_cast<int>(b.verdict);
      }
      return a.severity() < b.severity();
    };

    Snapshot best = take();
    unsigned refinements = 0;
    unsigned resolves = 0;
    std::string trail;
    bool out_of_budget = false;

    // Rung 1: one self-healing refinement pass. (The constructor computes
    // sp(R) once the ladder has settled, so no rung computes it.)
    try {
      newton_refine(blocks);
      ++refinements;
      trail = "refine";
      verify(blocks, policy);
      if (better(trust_, best.trust)) best = take();
    } catch (const DeadlineError&) {
      trail = "refine(deadline)";
      out_of_budget = true;
      put_back(best);
    } catch (const NumericalError&) {
      trail = "refine(failed)";
      put_back(best);
    }

    // Rung 2: tighter-tolerance re-solve from scratch.
    if (!out_of_budget && best.trust.verdict != TrustVerdict::kCertified) {
      SolverOptions tight = opts;
      tight.tolerance = std::max(opts.tolerance * 1e-2, 1e-15);
      try {
        RSolveResult rs = solve_r(blocks, tight);
        r_ = std::move(rs.r);
        r_iterations_ = rs.iterations;
        r_residual_ = rs.residual;
        report_ = std::move(rs.report);
        assemble(blocks);
        ++resolves;
        trail += "->tight-resolve";
        verify(blocks, policy);
        if (better(trust_, best.trust)) best = take();
      } catch (const DeadlineError&) {
        trail += "->tight-resolve(deadline)";
        out_of_budget = true;
        put_back(best);
      } catch (const NumericalError&) {
        trail += "->tight-resolve(failed)";
        put_back(best);
      }
    }

    // Rung 3: alternate solver tier -- a different algorithm family may
    // not share the winner's stagnation mode.
    if (!out_of_budget && best.trust.verdict != TrustVerdict::kCertified) {
      SolverOptions alt = opts;
      alt.algorithm =
          best.rep.winner == SolveAlgorithm::kLogarithmicReduction
              ? RAlgorithm::kNewtonShifted
              : RAlgorithm::kLogarithmicReduction;
      try {
        RSolveResult rs = solve_r(blocks, alt);
        r_ = std::move(rs.r);
        r_iterations_ = rs.iterations;
        r_residual_ = rs.residual;
        report_ = std::move(rs.report);
        assemble(blocks);
        ++resolves;
        trail += "->alternate-tier";
        verify(blocks, policy);
        if (better(trust_, best.trust)) best = take();
      } catch (const DeadlineError&) {
        trail += "->alternate-tier(deadline)";
        put_back(best);
      } catch (const NumericalError&) {
        trail += "->alternate-tier(failed)";
        put_back(best);
      }
    }

    put_back(best);
    trust_.refinements = refinements;
    trust_.resolves = resolves;
    trust_.healing = trail + "->" + qbd::to_string(trust_.verdict);
  }

  static obs::Counter& certified = obs::counter("qbd.trust.certified");
  static obs::Counter& suspect = obs::counter("qbd.trust.suspect");
  static obs::Counter& rejected = obs::counter("qbd.trust.rejected");
  switch (trust_.verdict) {
    case TrustVerdict::kCertified:
      certified.add();
      break;
    case TrustVerdict::kSuspect:
      suspect.add();
      break;
    case TrustVerdict::kRejected:
      rejected.add();
      break;
  }
  if (trust_.verdict == TrustVerdict::kRejected) {
    throw TrustRejected(
        "QbdSolution: answer failed a rejection threshold after the "
        "self-healing ladder; refusing to release it",
        trust_);
  }
}

void QbdSolution::verify_rehydrated() {
  const TrustPolicy policy;
  TrustReport t;
  t.checks.push_back({"mass-conservation",
                      mass_defect(pi0_, pi1_, i_minus_r_inv_),
                      policy.mass_defect_certified,
                      policy.mass_defect_rejected,
                      "|1 - pi . tail closure|, compensated"});
  t.grade();
  t.healing = "rehydrated: reduced checks (generator blocks unavailable)";
  trust_ = std::move(t);
}

double QbdSolution::probability_empty() const { return linalg::sum(pi0_); }

double QbdSolution::pmf(std::size_t k) const {
  if (k == 0) return probability_empty();
  Vector v = pi1_;
  for (std::size_t i = 1; i < k; ++i) v = v * r_;
  return linalg::sum(v);
}

Vector QbdSolution::pmf_upto(std::size_t k_max) const {
  Vector out(k_max + 1);
  out[0] = probability_empty();
  Vector v = pi1_;
  for (std::size_t k = 1; k <= k_max; ++k) {
    // QoS bisection sweeps k_max into the millions; poll the cooperative
    // deadline so a tail expansion honours its request budget too.
    if ((k & 4095u) == 0 && obs::deadline_expired()) {
      throw DeadlineError("pmf_upto: deadline expired during level sweep");
    }
    out[k] = linalg::sum(v);
    v = v * r_;
  }
  return out;
}

double QbdSolution::tail(std::size_t k) const {
  if (k == 0) return 1.0;
  // pi_1 R^{k-1} (I-R)^{-1} e via iterated vector-matrix products for
  // small k and binary powering for large k.
  const std::size_t steps = k - 1;
  Vector v = pi1_;
  if (steps <= 64) {
    for (std::size_t i = 0; i < steps; ++i) v = v * r_;
  } else {
    // Binary powering of R.
    Matrix pow = Matrix::identity(r_.rows());
    Matrix base = r_;
    std::size_t n = steps;
    while (n > 0) {
      if (n & 1u) pow = pow * base;
      n >>= 1u;
      if (n > 0) base = base * base;
    }
    v = v * pow;
  }
  return linalg::dot(v, i_minus_r_inv_ * linalg::ones(phase_dim()));
}

double QbdSolution::mean_queue_length() const {
  // sum_{k>=1} k pi_1 R^{k-1} e = pi_1 (I-R)^{-2} e
  const Vector e = linalg::ones(phase_dim());
  return linalg::dot(pi1_, i_minus_r_inv_ * (i_minus_r_inv_ * e));
}

double QbdSolution::second_moment() const {
  // sum_{k>=1} k^2 R^{k-1} = (I+R)(I-R)^{-3}
  const std::size_t m = phase_dim();
  const Vector e = linalg::ones(m);
  const Matrix inv3 = i_minus_r_inv_ * i_minus_r_inv_ * i_minus_r_inv_;
  return linalg::dot(pi1_, (Matrix::identity(m) + r_) * (inv3 * e));
}

double QbdSolution::variance() const {
  const double mean = mean_queue_length();
  return second_moment() - mean * mean;
}

Vector QbdSolution::phase_marginal_busy() const {
  return pi1_ * i_minus_r_inv_;
}

Vector QbdSolution::phase_marginal() const {
  Vector out = pi0_;
  const Vector tail_mass = pi1_ * i_minus_r_inv_;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += tail_mass[i];
  return out;
}

double mean_queue_length(const map::Mmpp& service, double lambda,
                         const SolverOptions& opts) {
  return QbdSolution(m_mmpp_1(service, lambda), opts).mean_queue_length();
}

}  // namespace performa::qbd
