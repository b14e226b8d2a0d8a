#include "qbd/solution.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/compensated.h"
#include "linalg/ctmc.h"
#include "linalg/lu.h"
#include "obs/deadline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qbd/level_dependent.h"

namespace performa::qbd {

/// The one shape every solving construction reduces to: boundary levels
/// 0..C, level k with its own local block L_k, up block U_k (k -> k+1,
/// k < C) and down block D_k (k -> k-1, k >= 1), then the homogeneous tail
/// pi_{C+j} = pi_C R^j with R the minimal solution on `tail`. The level-C
/// balance closes with L_C + R A2. Blocks are borrowed.
struct BoundaryLevels {
  const QbdBlocks& tail;
  std::vector<const Matrix*> local;  // L_0 .. L_C
  std::vector<const Matrix*> up;     // U_0 .. U_{C-1}
  std::vector<const Matrix*> down;   // D_1 .. D_C
  std::size_t c() const noexcept { return up.size(); }
};

namespace {

/// QbdBlocks as the C = 1 shape: L = {B00, A1}, U_0 = B01, D_1 = B10.
BoundaryLevels homogeneous_levels(const QbdBlocks& b) {
  return {b, {&b.b00, &b.a1}, {&b.b01}, {&b.b10}};
}

/// The level-j balance equation
///   pi_{j-1} U_{j-1} + pi_j L_j + pi_{j+1} D_{j+1} = 0
/// as (level k, block B) terms pi_k B, with `closing` = L_C + R A2 in
/// place of L_C.
std::vector<std::pair<std::size_t, const Matrix*>> balance_terms(
    const BoundaryLevels& lv, const Matrix& closing, std::size_t j) {
  std::vector<std::pair<std::size_t, const Matrix*>> terms;
  if (j > 0) terms.emplace_back(j - 1, lv.up[j - 1]);
  terms.emplace_back(j, j == lv.c() ? &closing : lv.local[j]);
  if (j < lv.c()) terms.emplace_back(j + 1, lv.down[j]);
  return terms;
}

// Solve the row-vector system [pi_0 .. pi_C] M = 0 as M^T y = 0: equation
// (level j, component col) is row j*m + col, unknown (level k, phase i) is
// column k*m + i, and row 0 is replaced by the normalization
//   sum_{k<C} pi_k e + pi_C (I-R)^{-1} e = 1.
std::vector<Vector> solve_boundary(const BoundaryLevels& lv, const Matrix& r,
                                   const Matrix& i_minus_r_inv) {
  const std::size_t m = lv.tail.phase_dim();
  const std::size_t c = lv.c();
  const std::size_t n = (c + 1) * m;
  const Matrix closing = *lv.local[c] + r * lv.tail.a2;
  const Vector norm_tail = i_minus_r_inv * linalg::ones(m);

  Matrix sys(n, n, 0.0);
  Vector rhs(n, 0.0);
  for (std::size_t j = 0; j <= c; ++j) {
    for (const auto& [k, b] : balance_terms(lv, closing, j)) {
      for (std::size_t col = 0; col < m; ++col) {
        for (std::size_t i = 0; i < m; ++i) {
          sys(j * m + col, k * m + i) = (*b)(i, col);
        }
      }
    }
  }
  // Row 0: the normalization, over every unknown.
  for (std::size_t i = 0; i < c * m; ++i) sys(0, i) = 1.0;
  for (std::size_t i = 0; i < m; ++i) sys(0, c * m + i) = norm_tail[i];
  rhs[0] = 1.0;

  const linalg::Lu lu(sys);
  Vector y = lu.solve(rhs);
  // One step of fixed-precision iterative refinement with a compensated
  // long-double residual: two extra triangular sweeps (O(n^2)) recover
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

  std::vector<Vector> pis(c + 1);
  for (std::size_t k = 0; k <= c; ++k) {
    pis[k].assign(y.begin() + static_cast<std::ptrdiff_t>(k * m),
                  y.begin() + static_cast<std::ptrdiff_t>((k + 1) * m));
  }
  return pis;
}

// |1 - (sum_{k<C} pi_k e + pi_C (I-R)^{-1} e)| in compensated long
// double: the probability-mass conservation defect, graded by the trust
// check and used by the normalization guards. (I-R)^{-1} amplifies an R
// perturbation dR by roughly (I-R)^{-1} dR (I-R)^{-1}, i.e. by ~E[Q]^2
// near saturation, which is what makes this the most sensitive detector
// of a corrupted or under-converged R.
double mass_defect(const std::vector<Vector>& pis, const Matrix& inv) {
  linalg::CompensatedSum<long double> acc;
  for (std::size_t k = 0; k + 1 < pis.size(); ++k) {
    for (double x : pis[k]) acc.add(static_cast<long double>(x));
  }
  const Vector& top = pis.back();
  for (std::size_t j = 0; j < top.size(); ++j) {
    linalg::CompensatedSum<long double> row;
    for (std::size_t k = 0; k < top.size(); ++k) {
      row.add(static_cast<long double>(inv(j, k)));
    }
    acc.add(static_cast<long double>(top[j]) * row.value());
  }
  return std::abs(static_cast<double>(acc.value() - 1.0L));
}

// Relative defect of the boundary balance equations (balance_terms),
// j = 0..C, evaluated component-wise in compensated long double. Component 0 of the level-0 equation is NOT enforced by the
// boundary solve (the normalization row replaced it), so this measures
// genuine solution quality, not just how well LU inverted its own system.
double boundary_defect(const BoundaryLevels& lv, const Matrix& r,
                       const std::vector<Vector>& pis) {
  const std::size_t m = lv.tail.phase_dim();
  const std::size_t c = lv.c();
  const Matrix closing = *lv.local[c] + r * lv.tail.a2;
  long double worst = 0.0L;
  double coeff = 0.0;
  double mass = 0.0;
  for (std::size_t j = 0; j <= c; ++j) {
    const auto terms = balance_terms(lv, closing, j);
    for (const auto& term : terms) coeff += linalg::norm_inf(*term.second);
    for (std::size_t col = 0; col < m; ++col) {
      linalg::CompensatedSum<long double> acc;
      for (std::size_t i = 0; i < m; ++i) {
        for (const auto& [k, b] : terms) {
          acc.add(static_cast<long double>(pis[k][i]) * (*b)(i, col));
        }
      }
      worst = std::max(worst, std::abs(acc.value()));
    }
    mass = std::max(mass, linalg::norm_inf(pis[j]));
  }
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

QbdSolution::QbdSolution(const QbdBlocks& blocks, const TrustPolicy& policy) {
  solve(homogeneous_levels(blocks), policy);
  // sp(R) once per answer, on the R that certification released.
  report_.spectral_radius = spectral_radius(r_);
}

QbdSolution::QbdSolution(const LevelDependentBlocks& blocks) {
  PERFORMA_EXPECTS(!blocks.service.empty(),
                   "QbdSolution: level-dependent blocks need a service level");
  PERFORMA_EXPECTS(blocks.lambda > 0.0,
                   "QbdSolution: level-dependent lambda must be positive");
  const std::size_t m = blocks.phase_dim();
  const std::size_t c = blocks.service.size();
  for (const Matrix& svc : blocks.service) {
    PERFORMA_EXPECTS(svc.rows() == m && svc.cols() == m,
                     "QbdSolution: level-dependent service block shape");
  }
  // Levels k = 1..C: local Q - lambda I - M_k, up lambda I, down M_k; the
  // tail (levels >= C) repeats M_C.
  const Matrix lam = blocks.lambda * Matrix::identity(m);
  const Matrix& m_top = blocks.service.back();
  QbdBlocks tail;
  tail.b00 = blocks.q - lam;
  tail.b01 = lam;
  tail.b10 = m_top;
  tail.a0 = lam;
  tail.a1 = blocks.q - lam - m_top;
  tail.a2 = m_top;
  std::vector<Matrix> inner;  // L_1 .. L_{C-1}; lv points into it, so
  inner.reserve(c);           // it must never reallocate
  BoundaryLevels lv{tail, {&tail.b00}, {}, {}};
  for (std::size_t k = 1; k <= c; ++k) {
    if (k < c) inner.push_back(blocks.q - lam - blocks.service[k - 1]);
    lv.local.push_back(k < c ? &inner.back() : &tail.a1);
    lv.up.push_back(&tail.a0);
    lv.down.push_back(&blocks.service[k - 1]);
  }
  solve(lv, TrustPolicy{});
}

void QbdSolution::solve(const BoundaryLevels& lv, const TrustPolicy& policy) {
  RSolveResult rs = solve_r(lv.tail);
  r_ = std::move(rs.r);
  r_iterations_ = rs.iterations;
  r_residual_ = rs.residual;
  report_ = std::move(rs.report);

  assemble(lv);
  certify(lv, policy);
}

QbdSolution::QbdSolution(Matrix r, Vector pi0, Vector pi1,
                         SolveReport report)
    : r_(std::move(r)), report_(std::move(report)) {
  const std::size_t m = r_.rows();
  PERFORMA_EXPECTS(r_.is_square() && m > 0 && pi0.size() == m &&
                       pi1.size() == m,
                   "QbdSolution: rehydrated R/pi0/pi1 shapes disagree");
  linalg::check_finite(r_, "QbdSolution: rehydrated R");
  linalg::check_finite(pi0, "QbdSolution: rehydrated pi0");
  linalg::check_finite(pi1, "QbdSolution: rehydrated pi1");
  pis_ = {std::move(pi0), std::move(pi1)};
  report_.spectral_radius = spectral_radius(r_);
  if (report_.spectral_radius >= 1.0) {
    throw NumericalError(
        "QbdSolution: rehydrated R has spectral radius >= 1 (corrupt or "
        "mismatched journal entry)");
  }
  i_minus_r_inv_ = linalg::inverse(Matrix::identity(m) - r_);
  if (mass_defect(pis_, i_minus_r_inv_) > 1e-6) {
    throw NumericalError(
        "QbdSolution: rehydrated solution is not normalized (corrupt or "
        "mismatched journal entry)");
  }
  report_.converged = true;
  r_iterations_ = report_.iterations;
  r_residual_ = report_.final_defect;
  verify_rehydrated();
}

void QbdSolution::assemble(const BoundaryLevels& lv) {
  PERFORMA_SPAN("qbd.solution.assemble");
  if (obs::deadline_expired()) {
    report_.deadline_exceeded = true;
    throw DeadlineExceeded(
        "QbdSolution: deadline expired before boundary assembly", report_);
  }
  const std::size_t m = lv.tail.phase_dim();
  i_minus_r_inv_ = linalg::inverse(Matrix::identity(m) - r_);
  pis_ = solve_boundary(lv, r_, i_minus_r_inv_);

  // The boundary solve can produce tiny negative round-off; clip so
  // downstream probabilities stay in range.
  for (Vector& vec : pis_) {
    linalg::check_finite(vec, "QbdSolution: boundary vector");
    for (double& x : vec) {
      if (x < 0.0 && x > -1e-12) x = 0.0;
      if (x < 0.0) {
        throw NumericalError(
            "QbdSolution: boundary solve produced a negative probability");
      }
    }
  }
  if (mass_defect(pis_, i_minus_r_inv_) > 1e-8) {
    throw NumericalError("QbdSolution: boundary normalization failed");
  }
}

void QbdSolution::run_checks(const BoundaryLevels& lv,
                             const TrustPolicy& policy, double r_resid) {
  PERFORMA_SPAN("qbd.solution.verify");
  TrustReport t;

  t.checks.push_back({"r-residual", r_resid, policy.r_residual_certified,
                      policy.r_residual_rejected,
                      "scaled ||A0 + R A1 + R^2 A2||"});

  t.checks.push_back({"boundary-residual",
                      boundary_defect(lv, r_, pis_),
                      policy.boundary_residual_certified,
                      policy.boundary_residual_rejected,
                      "boundary balance equations"});

  t.checks.push_back({"mass-conservation",
                      mass_defect(pis_, i_minus_r_inv_),
                      policy.mass_defect_certified,
                      policy.mass_defect_rejected,
                      "|1 - pi . tail closure|, compensated"});

  // Independent cross-check of the phase process: GTH (cancellation-free
  // elimination) vs plain LU on the same generator, then the solution's
  // own phase marginal against the GTH vector. The two solvers share no
  // failure modes; the marginal ties the boundary/tail machinery back to
  // the phase process it must reproduce.
  const Matrix gen = lv.tail.a0 + lv.tail.a1 + lv.tail.a2;
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
  PERFORMA_EXPECTS(boundary_levels() == 1,
                   "QbdSolution::verify: QbdBlocks have one boundary level");
  run_checks(homogeneous_levels(blocks), policy, r_residual_norm(blocks, r_));
  return trust_;
}

void QbdSolution::refine(const QbdBlocks& blocks) {
  fixed_point_refine(homogeneous_levels(blocks));
  report_.spectral_radius = spectral_radius(r_);
}

void QbdSolution::fixed_point_refine(const BoundaryLevels& lv) {
  PERFORMA_SPAN("qbd.solution.refine");
  static obs::Counter& refinements = obs::counter("qbd.trust.refinements");
  refinements.add();
  // One linear fixed-point step from the current iterate:
  //   R' = A0 (-(A1 + R A2))^{-1}.
  // It shrinks a perturbation of R by about sp(R): enough for an injected
  // ulp, not for an R that a linear solver stopped short of the fixed
  // point (DESIGN.md section 11). The boundary re-solve then re-normalizes
  // the probability mass against the refined tail closure exactly.
  const QbdBlocks& blocks = lv.tail;
  const linalg::Lu shifted(-1.0 * (blocks.a1 + r_ * blocks.a2));
  Matrix next = shifted.solve_left(blocks.a0);
  linalg::check_finite(next, "QbdSolution::refine: refined R");
  r_ = std::move(next);
  r_residual_ = r_residual_norm(blocks, r_);
  report_.final_defect = r_residual_;
  report_.final_defect_raw = r_residual_ * residual_scale(blocks);
  report_.condition = shifted.condition_estimate();
  assemble(lv);
}

void QbdSolution::certify(const BoundaryLevels& lv,
                          const TrustPolicy& policy) {
  PERFORMA_SPAN("qbd.solution.certify");
  // First grading reuses the scaled residual solve_r just computed on
  // this exact R: the warm path pays the cheap checks only.
  run_checks(lv, policy, r_residual_);

  if (trust_.verdict != TrustVerdict::kCertified) {
    static obs::Counter& escalations = obs::counter("qbd.trust.escalations");
    escalations.add();

    struct Snapshot {
      Matrix r, inv;
      std::vector<Vector> pis;
      SolveReport rep;
      unsigned iterations;
      double residual;
      TrustReport trust;
    };
    const auto take = [this] {
      return Snapshot{r_,      i_minus_r_inv_, pis_,
                      report_, r_iterations_,  r_residual_, trust_};
    };
    const auto put_back = [this](const Snapshot& s) {
      r_ = s.r;
      i_minus_r_inv_ = s.inv;
      pis_ = s.pis;
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

    // One rung: run `step`, re-grade, keep the best state seen. A deadline
    // ends the ladder; a numerical failure ends only this rung.
    const auto rung = [&](const char* name, const auto& step) {
      if (out_of_budget || best.trust.verdict == TrustVerdict::kCertified) {
        return;
      }
      trail += trail.empty() ? name : std::string("->") + name;
      try {
        step();
        run_checks(lv, policy, r_residual_norm(lv.tail, r_));
        if (better(trust_, best.trust)) best = take();
      } catch (const DeadlineError&) {
        trail += "(deadline)";
        out_of_budget = true;
        put_back(best);
      } catch (const NumericalError&) {
        trail += "(failed)";
        put_back(best);
      }
    };
    // Rung 1: one self-healing refinement pass. (The constructor computes
    // sp(R) once the ladder has settled, so no rung computes it.)
    rung("refine", [&] {
      fixed_point_refine(lv);
      ++refinements;
    });
    // Rung 2: a re-solve from scratch at the tight tolerance.
    rung("tight-resolve", [&] {
      RSolveResult rs = solve_r_tight(lv.tail);
      r_ = std::move(rs.r);
      r_iterations_ = rs.iterations;
      r_residual_ = rs.residual;
      report_ = std::move(rs.report);
      assemble(lv);
      ++resolves;
    });

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
                      mass_defect(pis_, i_minus_r_inv_),
                      policy.mass_defect_certified,
                      policy.mass_defect_rejected,
                      "|1 - pi . tail closure|, compensated"});
  t.grade();
  t.healing = "rehydrated: reduced checks (generator blocks unavailable)";
  trust_ = std::move(t);
}

const Vector& QbdSolution::pi(std::size_t k) const {
  PERFORMA_EXPECTS(k < pis_.size(), "QbdSolution::pi: level beyond boundary");
  return pis_[k];
}

double QbdSolution::probability_empty() const { return linalg::sum(pis_[0]); }

double QbdSolution::pmf(std::size_t k) const {
  const std::size_t c = boundary_levels();
  if (k < c) return linalg::sum(pis_[k]);
  Vector v = pis_[c];
  for (std::size_t i = c; i < k; ++i) v = v * r_;
  return linalg::sum(v);
}

Vector QbdSolution::pmf_upto(std::size_t k_max) const {
  Vector out(k_max + 1);
  const std::size_t c = boundary_levels();
  for (std::size_t k = 0; k < c && k <= k_max; ++k) {
    out[k] = linalg::sum(pis_[k]);
  }
  Vector v = pis_[c];
  for (std::size_t k = c; k <= k_max; ++k) {
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
  const std::size_t c = boundary_levels();
  const Vector closure = i_minus_r_inv_ * linalg::ones(phase_dim());
  if (k < c) {
    double acc = 0.0;
    for (std::size_t j = k; j < c; ++j) acc += linalg::sum(pis_[j]);
    return acc + linalg::dot(pis_[c], closure);
  }
  // pi_C R^{k-C} (I-R)^{-1} e, by whichever costs fewer flops: `steps`
  // vector-matrix products (m^2 each), or binary powering of R (one m^3
  // product per bit and per set bit of `steps`). Short tails
  // (steps <= 64) always step.
  const std::size_t steps = k - c;
  const std::size_t m = phase_dim();
  const auto powering_products = static_cast<std::size_t>(
      std::bit_width(steps) + std::popcount(steps));
  Vector v = pis_[c];
  if (steps <= 64 || steps <= m * powering_products) {
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
  return linalg::dot(v, closure);
}

double QbdSolution::mean_queue_length() const {
  // sum_{j>=0} (C+j) pi_C R^j e = pi_C [(I-R)^{-2} + (C-1)(I-R)^{-1}] e,
  // plus k pi_k e for the levels k < C.
  const std::size_t c = boundary_levels();
  const Vector closure = i_minus_r_inv_ * linalg::ones(phase_dim());
  double acc = linalg::dot(pis_[c], i_minus_r_inv_ * closure);
  acc += static_cast<double>(c - 1) * linalg::dot(pis_[c], closure);
  for (std::size_t k = 1; k < c; ++k) {
    acc += static_cast<double>(k) * linalg::sum(pis_[k]);
  }
  return acc;
}

double QbdSolution::second_moment() const {
  // sum_{j>=0} (j+1)^2 R^j = (I+R)(I-R)^{-3}; with d = C-1,
  // (C+j)^2 = (j+1)^2 + 2d(j+1) + d^2.
  const std::size_t m = phase_dim();
  const std::size_t c = boundary_levels();
  const Vector e = linalg::ones(m);
  const Matrix inv3 = i_minus_r_inv_ * i_minus_r_inv_ * i_minus_r_inv_;
  double acc = linalg::dot(pis_[c], (Matrix::identity(m) + r_) * (inv3 * e));
  const double d = static_cast<double>(c - 1);
  const Vector closure = i_minus_r_inv_ * e;
  acc += 2.0 * d * linalg::dot(pis_[c], i_minus_r_inv_ * closure) +
         d * d * linalg::dot(pis_[c], closure);
  for (std::size_t k = 1; k < c; ++k) {
    acc += static_cast<double>(k * k) * linalg::sum(pis_[k]);
  }
  return acc;
}

double QbdSolution::variance() const {
  const double mean = mean_queue_length();
  return second_moment() - mean * mean;
}

Vector QbdSolution::phase_marginal_busy() const {
  Vector out = pis_.back() * i_minus_r_inv_;
  for (std::size_t k = 1; k + 1 < pis_.size(); ++k) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += pis_[k][i];
  }
  return out;
}

Vector QbdSolution::phase_marginal() const {
  Vector out = pis_[0];
  const Vector busy = phase_marginal_busy();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += busy[i];
  return out;
}

}  // namespace performa::qbd
