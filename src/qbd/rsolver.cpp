#include "qbd/rsolver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "linalg/kernels.h"
#include "linalg/lu.h"
#include "linalg/pool.h"
#include "obs/deadline.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace performa::qbd {

namespace {

// Tolerance of the healing ladder's tight re-solve (solve_r_tight).
constexpr double kTightRTolerance = 1e-15;

// Doubling cap of logarithmic reduction: quadratic convergence covers any
// double-precision-representable time scale in 64 doublings.
constexpr unsigned kMaxDoublings = 64;

// Logarithmic reduction for G; never throws on non-convergence (the
// caller decides whether that is fatal).
GSolveResult logred_impl(const QbdBlocks& b, double tol) {
  const std::size_t m = b.phase_dim();
  const Matrix eye = Matrix::identity(m);
  const linalg::Lu neg_a1(-1.0 * b.a1);

  // H = (-A1)^{-1} A0, L = (-A1)^{-1} A2.
  Matrix h = neg_a1.solve(b.a0);
  Matrix l = neg_a1.solve(b.a2);
  GSolveResult out;
  out.g = l;
  Matrix t = h;

  const Vector e = linalg::ones(m);
  // Quadratic convergence: ~log2 of the effective time horizon, capped at
  // kMaxDoublings. The defect |1 - G e| bottoms out at a model-dependent
  // roundoff floor that can sit above a very tight tolerance, so
  // stagnation at a small defect is also accepted.
  double best_defect = std::numeric_limits<double>::infinity();
  unsigned stagnant = 0;
  for (unsigned it = 1; it <= kMaxDoublings; ++it) {
    if (obs::deadline_expired()) {
      out.defect = best_defect;
      out.deadline_expired = true;
      return out;
    }
    const Matrix u = h * l + l * h;
    const linalg::Lu eye_minus_u(eye - u);
    h = eye_minus_u.solve(h * h);
    l = eye_minus_u.solve(l * l);
    out.g += t * l;
    t = t * h;
    out.iterations = it;
    if (!linalg::is_finite(out.g)) {
      out.defect = best_defect;
      return out;
    }

    double defect = 0.0;
    const Vector ge = out.g * e;
    for (std::size_t i = 0; i < m; ++i)
      defect = std::max(defect, std::abs(1.0 - ge[i]));
    best_defect = std::min(best_defect, defect);
    out.defect = best_defect;
    if (defect < tol) {
      out.converged = true;
      return out;
    }
    // The next update to G is bounded by ||T|| ||L||; once T has decayed
    // to roundoff the iteration cannot improve further -- the remaining
    // defect is accumulated floating-point error (grows toward the
    // stability boundary), not missing probability mass.
    if (linalg::norm_inf(t) < 1e-14 && defect < 1e-5) {
      out.converged = true;
      return out;
    }
    if (defect <= best_defect) {
      stagnant = 0;
    } else if (++stagnant >= 3 && best_defect < 1e-7) {
      out.converged = true;  // converged to the roundoff floor
      return out;
    }
  }
  return out;
}

// Fill the report of a converged attempt and hand out its R.
RSolveResult accept(const QbdBlocks& b, Matrix r, double condition,
                    SolveReport report) {
  const SolveAttempt& a = report.attempts.back();
  report.converged = true;
  report.iterations = a.iterations;
  report.final_defect = a.defect;
  report.final_defect_raw = a.defect * residual_scale(b);
  report.condition = condition;
  RSolveResult out;
  out.r = std::move(r);
  out.iterations = report.iterations;
  out.residual = report.final_defect;
  out.report = std::move(report);
  return out;
}

// solve_r at tolerance `tol`: the stability pre-check, then the one
// logarithmic-reduction attempt, recorded in the report.
RSolveResult solve_r_at(const QbdBlocks& blocks, double tol) {
  obs::Span span("qbd.rsolver.solve");
  static obs::Counter& solves = obs::counter("qbd.rsolver.solves");
  static obs::Counter& failures = obs::counter("qbd.rsolver.failures");
  solves.add();
  span.annotate("kernel_backend", linalg::to_string(linalg::kernel_backend()));
  span.annotate("threads", static_cast<std::uint64_t>(linalg::pool_threads()));
  blocks.validate();

  SolveReport report;
  report.query_id = obs::current_query_id();
  // A request that arrives with its budget already spent must not buy
  // even the stability pre-check (one GTH solve): abort immediately so
  // the serving layer can degrade to a cached answer.
  if (obs::deadline_expired()) {
    report.deadline_exceeded = true;
    throw DeadlineExceeded(
        "solve_r: deadline already expired before the stability pre-check",
        std::move(report));
  }
  // Stability pre-check: the mean-drift condition on the aggregated phase
  // process costs one GTH solve and rejects hopeless configurations
  // before any iteration budget is spent.
  report.utilization = utilization(blocks);
  if (report.utilization >= 1.0) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "solve_r: mean drift is non-negative (utilization %.6f "
                  ">= 1), the queue has no stationary distribution",
                  report.utilization);
    throw UnstableModel(msg, report.utilization);
  }

  // The attempt is timed here (not derived from the span) so summary()
  // carries wall times even when tracing is off; the span mirrors the same
  // interval into the trace.
  SolveAttempt attempt;  // algorithm: logarithmic reduction (the default)
  Matrix r;
  double condition = 0.0;
  // Cut off by the thread's cooperative deadline, not by a numerical
  // failure: surfaces as DeadlineExceeded.
  bool deadline_expired = false;
  {
    obs::Span logred_span("qbd.rsolver.logred");
    const auto started = std::chrono::steady_clock::now();
    try {
      const GSolveResult g = logred_impl(blocks, tol);
      attempt.iterations = g.iterations;
      attempt.defect = g.defect;
      if (g.deadline_expired) {
        attempt.note = "aborted: deadline expired";
        deadline_expired = true;
      } else if (!g.converged) {
        char note[96];
        std::snprintf(note, sizeof note,
                      "G defect stagnated at %.3e (tolerance %.1e)", g.defect,
                      tol);
        attempt.note = note;
      } else {
        // R = A0 * (-(A1 + A0 G))^{-1}
        // Stability was established via the drift condition above; sp(R)
        // < 1 is then guaranteed analytically (power-iteration estimates
        // of it can overshoot 1 by rounding when the decay rate is
        // extremely close to 1, e.g. TPT repair at rho ~ 0.95, so it must
        // not be used as a gate here).
        const linalg::Lu shifted(-1.0 * (blocks.a1 + blocks.a0 * g.g));
        condition = shifted.condition_estimate();
        r = shifted.solve_left(blocks.a0);
        if (!linalg::is_finite(r)) {
          attempt.note = "R recovery from G produced a non-finite matrix";
        } else {
          attempt.defect = r_residual_norm(blocks, r);
          attempt.converged = true;
        }
      }
    } catch (const DeadlineError& e) {
      // An inner kernel (LU) hit the deadline first; same abort path as
      // the doubling loop noticing it itself.
      attempt.note = e.what();
      deadline_expired = true;
    } catch (const NumericalError& e) {
      attempt.note = e.what();
    }
    attempt.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    static obs::Counter& iterations = obs::counter("qbd.rsolver.iterations");
    iterations.add(attempt.iterations);
    logred_span.annotate("iterations",
                         static_cast<std::uint64_t>(attempt.iterations));
    logred_span.annotate("converged", attempt.converged ? 1.0 : 0.0);
  }

  report.attempts.push_back(attempt);
  if (deadline_expired) {
    throw DeadlineExceeded(
        "solve_r: deadline expired mid-solve (cooperative abort)",
        std::move(report));
  }
  if (!attempt.converged) {
    failures.add();
    throw SolverFailure("solve_r: logarithmic reduction failed",
                        std::move(report));
  }
  span.annotate("winner", qbd::to_string(attempt.algorithm));
  span.annotate("iterations", static_cast<std::uint64_t>(attempt.iterations));
  return accept(blocks, std::move(r), condition, std::move(report));
}

}  // namespace

// Scale that makes the R-residual dimensionless: a backward-stable
// iterate satisfies ||A0 + R A1 + R^2 A2|| <~ eps * sum_i ||Ai||, so
// dividing by the block norms gives a defect comparable across rate
// magnitudes (a model with rates in 1e6/s must not look 6 orders worse
// than the same model in 1/s).
double residual_scale(const QbdBlocks& b) noexcept {
  const double s =
      linalg::norm_inf(b.a0) + linalg::norm_inf(b.a1) + linalg::norm_inf(b.a2);
  return s > 0.0 ? s : 1.0;
}

double r_residual_norm(const QbdBlocks& b, const Matrix& r) {
  return linalg::norm_inf(b.a0 + r * b.a1 + r * r * b.a2) / residual_scale(b);
}

GSolveResult solve_g_logred(const QbdBlocks& b) {
  GSolveResult g = logred_impl(b, kRTolerance);
  if (g.deadline_expired) {
    throw DeadlineError(
        "solve_g_logred: deadline expired mid-iteration (cooperative abort)");
  }
  if (!g.converged) {
    char msg[256];
    std::snprintf(msg, sizeof msg,
                  "solve_g_logred: logarithmic reduction did not converge "
                  "(achieved defect %.3e after %u doublings); the QBD is "
                  "likely not positive recurrent (utilization >= 1)",
                  g.defect, g.iterations);
    throw NumericalError(msg);
  }
  return g;
}

RSolveResult solve_r(const QbdBlocks& blocks) {
  return solve_r_at(blocks, kRTolerance);
}

RSolveResult solve_r_tight(const QbdBlocks& blocks) {
  return solve_r_at(blocks, kTightRTolerance);
}

RSolveResult solve_r_successive_substitution(const QbdBlocks& b,
                                             double tolerance) {
  b.validate();
  const std::size_t m = b.phase_dim();
  const linalg::Lu neg_a1(-1.0 * b.a1);
  SolveAttempt attempt;
  attempt.algorithm = SolveAlgorithm::kSuccessiveSubstitution;
  Matrix r = Matrix::zeros(m, m);
  for (unsigned it = 1; it <= 100000; ++it) {
    // R_{k+1} (-A1) = A0 + R_k^2 A2
    Matrix next = neg_a1.solve_left(b.a0 + r * r * b.a2);
    attempt.iterations = it;
    if (!linalg::is_finite(next)) {
      attempt.note = "iterate became non-finite";
      break;
    }
    const double diff = linalg::max_abs_diff(next, r);
    r = std::move(next);
    if (diff < tolerance) {
      attempt.converged = true;
      break;
    }
  }
  if (!attempt.converged && attempt.note.empty()) {
    attempt.note = "iteration budget exhausted";
  }
  attempt.defect = r_residual_norm(b, r);
  SolveReport report;
  report.attempts.push_back(attempt);
  if (!attempt.converged) {
    throw SolverFailure(
        "solve_r_successive_substitution: the reference did not converge",
        std::move(report));
  }
  return accept(b, std::move(r), neg_a1.condition_estimate(),
                std::move(report));
}

double spectral_radius(const Matrix& m, double tol, unsigned max_iter) {
  PERFORMA_EXPECTS(m.is_square() && !m.empty(),
                   "spectral_radius: matrix must be square");
  const std::size_t n = m.rows();

  // Power iteration on m converges like (|lambda_2|/lambda_1)^k, and for
  // QBD R matrices that ratio sits painfully close to 1 -- the plain
  // iteration used to exhaust its whole budget without reaching tol.
  // Squaring the operand squares the ratio, so a handful of doublings
  // (cheap dense products for the sizes we solve) turns thousands of
  // stalled steps into tens of converging ones: we iterate on
  // b ~ m^(2^T) and unwind lambda_1(m) = lambda_1(b)^(1/2^T). Each
  // doubling rescales by the largest entry -- R is non-negative, so the
  // products never cancel -- and the scale factors are unwound in log
  // space at the end.
  constexpr unsigned kDoublings = 8;
  Matrix b = m;
  double log_scale = 0.0;  // m^(2^t) == b * exp(log_scale)
  unsigned doublings = 0;
  for (; n > 1 && doublings < kDoublings; ++doublings) {
    double nb = 0.0;
    for (const double x : b.data()) nb = std::max(nb, std::abs(x));
    if (nb == 0.0) return 0.0;  // nilpotent or zero matrix
    const double inv = 1.0 / nb;
    for (double& x : b.data()) x *= inv;
    b = b * b;
    log_scale = 2.0 * (log_scale + std::log(nb));
  }

  // The power steps are b*v through the gemv kernel, which reads b
  // through its transpose: transpose once, then ping-pong two buffers.
  const Matrix bt = b.transposed();
  Vector v = linalg::ones(n);
  Vector w(n);
  double lambda = 0.0;
  for (unsigned it = 0; it < max_iter; ++it) {
    linalg::kern::gemv(n, n, bt.data().data(), n, v.data(), w.data());
    const double nrm = linalg::norm_inf(w);
    if (nrm == 0.0) return 0.0;  // nilpotent or zero matrix
    for (double& x : w) x /= nrm;
    const double diff = std::abs(nrm - lambda);
    lambda = nrm;
    std::swap(v, w);
    if (diff < tol * std::max(1.0, lambda) && it > 3) break;
  }
  // Best estimate either way; callers treat this as approximate.
  if (doublings == 0) return lambda;
  return std::exp((std::log(lambda) + log_scale) /
                  static_cast<double>(1u << doublings));
}

}  // namespace performa::qbd
