#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "core/cluster_model.h"
#include "linalg/ctmc.h"
#include "linalg/kernels.h"
#include "linalg/lu.h"
#include "map/lumped_aggregate.h"
#include "medist/tpt.h"
#include "qbd/solution.h"
#include "test_util.h"

namespace performa::qbd {
namespace {

using medist::exponential_from_mean;
using medist::make_tpt;
using medist::TptSpec;
using performa::testing::ExpectClose;

map::Mmpp PaperClusterMmpp(unsigned t_phases, unsigned n_servers) {
  const map::ServerModel server(exponential_from_mean(90.0),
                                make_tpt(TptSpec{t_phases, 1.4, 0.2, 10.0}),
                                2.0, 0.2);
  return map::LumpedAggregate(server, n_servers).mmpp();
}

TEST(QbdBlocks, ClusterBlocksValidate) {
  const auto mmpp = PaperClusterMmpp(5, 2);
  EXPECT_NO_THROW(m_mmpp_1(mmpp, 1.0).validate());
  EXPECT_THROW(m_mmpp_1(mmpp, -1.0), InvalidArgument);
  EXPECT_THROW(m_mmpp_1(mmpp, 0.0), InvalidArgument);
}

TEST(QbdBlocks, BrokenBlocksRejected) {
  auto blocks = m_mmpp_1(PaperClusterMmpp(2, 2), 1.0);
  blocks.a0(0, 0) = -2.0;  // negative rate
  EXPECT_THROW(blocks.validate(), InvalidArgument);

  blocks = m_mmpp_1(PaperClusterMmpp(2, 2), 1.0);
  blocks.a1(0, 0) += 5.0;  // breaks row sums
  EXPECT_THROW(blocks.validate(), InvalidArgument);

  blocks = m_mmpp_1(PaperClusterMmpp(2, 2), 1.0);
  blocks.b01 = Matrix(2, 2, 0.0);  // wrong shape
  EXPECT_THROW(blocks.validate(), InvalidArgument);
}

TEST(RSolver, ResidualSmallOnClusterModel) {
  const auto blocks = m_mmpp_1(PaperClusterMmpp(9, 2), 2.5);
  const auto res = solve_r(blocks);
  EXPECT_LT(res.residual, 1e-8);
  // R must be entrywise non-negative.
  for (double x : res.r.data()) EXPECT_GE(x, -1e-12);
}

TEST(RSolver, AlgorithmsAgree) {
  // SS converges linearly at rate sp(R); use a mild model (exponential
  // repair, low load) where sp(R) is small enough for SS to be practical.
  // Heavy-tail models at high load drive sp(R) -> 1 and make SS useless;
  // RSolver.SuccessiveSubstitutionNeedsManyTimesTheIterations counts the
  // gap.
  const auto blocks = m_mmpp_1(PaperClusterMmpp(2, 2), 1.0);
  const auto r_lr = solve_r(blocks).r;
  const auto r_ss = solve_r_successive_substitution(blocks, 1e-12).r;
  EXPECT_LT(linalg::max_abs_diff(r_lr, r_ss), 1e-7);
}

TEST(RSolver, SuccessiveSubstitutionNeedsManyTimesTheIterations) {
  // Ablation A2, why logarithmic reduction is the default: it converges
  // quadratically, successive substitution linearly at rate ~sp(R). On
  // the paper's cluster (N = 2) with TPT repair the counts were 8 vs 297
  // at T = 2, rho = 0.5 (6 phases) and 13 vs 8689 at T = 5, rho = 0.7
  // (21 phases), with SS stopped at the looser tolerance 1e-8. The bounds
  // below leave room for a few iterations of platform drift.
  struct Case {
    unsigned t;
    double rho;
    double min_ratio;
  };
  for (const Case c : {Case{2, 0.5, 25.0}, Case{5, 0.7, 400.0}}) {
    const auto mmpp = PaperClusterMmpp(c.t, 2);
    const auto blocks = m_mmpp_1(mmpp, c.rho * mmpp.mean_rate());
    const RSolveResult lr = solve_r(blocks);
    const RSolveResult slow = solve_r_successive_substitution(blocks, 1e-8);
    EXPECT_LE(lr.iterations, 16u) << "T=" << c.t;
    EXPECT_GE(static_cast<double>(slow.iterations),
              c.min_ratio * static_cast<double>(lr.iterations))
        << "T=" << c.t << ": SS " << slow.iterations << " vs LR "
        << lr.iterations;
  }
}

TEST(RSolver, GIsStochasticForStableQueue) {
  const auto blocks = m_mmpp_1(PaperClusterMmpp(5, 2), 2.0);
  const GSolveResult g = solve_g_logred(blocks);
  EXPECT_TRUE(linalg::is_stochastic(g.g, 1e-8));
  EXPECT_TRUE(g.converged);
  EXPECT_GT(g.iterations, 0u);
  EXPECT_LT(g.defect, 1e-7);
}

TEST(RSolver, SpectralRadiusBelowOneIffStable) {
  const auto mmpp = PaperClusterMmpp(5, 2);
  const double nu_bar = mmpp.mean_rate();
  const auto stable = solve_r(m_mmpp_1(mmpp, 0.9 * nu_bar));
  EXPECT_LT(spectral_radius(stable.r), 1.0);
  EXPECT_THROW(solve_r(m_mmpp_1(mmpp, 1.1 * nu_bar)), NumericalError);
}

TEST(RSolver, SpectralRadiusUtilities) {
  EXPECT_NEAR(spectral_radius(Matrix{{0.5}}), 0.5, 1e-10);
  EXPECT_NEAR(spectral_radius(Matrix{{0.0, 0.25}, {0.25, 0.0}}), 0.25, 1e-9);
  EXPECT_EQ(spectral_radius(Matrix(3, 3, 0.0)), 0.0);
  EXPECT_THROW(spectral_radius(Matrix(2, 3)), InvalidArgument);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(RSolver, SpectralRadiusSameBitsOnEitherKernelBackend) {
  // Fig. 1's TPT T=10 cluster at rho = 0.9: sp(R) is near 1, so the power
  // stage runs thousands of gemv steps, every one of which must round
  // identically on both backends.
  const auto mmpp = PaperClusterMmpp(10, 2);
  const Matrix r = solve_r(m_mmpp_1(mmpp, 0.9 * mmpp.mean_rate())).r;
  const linalg::KernelBackend saved = linalg::kernel_backend();
  linalg::set_kernel_backend(linalg::KernelBackend::kReference);
  const double sp_ref = spectral_radius(r);
  linalg::set_kernel_backend(linalg::KernelBackend::kBlocked);
  const double sp_blk = spectral_radius(r);
  linalg::set_kernel_backend(saved);
  EXPECT_TRUE(SameBits(sp_ref, sp_blk)) << sp_ref << " vs " << sp_blk;
  EXPECT_GT(sp_ref, 0.9);
  EXPECT_LT(sp_ref, 1.0);
}

TEST(QbdSolution, DecayRateIsTheOneSpectralRadiusOfItsR) {
  const auto blocks = m_mmpp_1(PaperClusterMmpp(5, 2), 2.2);

  // solve_r leaves sp(R) to the solution, and its summary says nothing.
  const RSolveResult rs = solve_r(blocks);
  EXPECT_TRUE(std::isnan(rs.report.spectral_radius));
  EXPECT_EQ(rs.report.summary().find("sp(R)"), std::string::npos)
      << rs.report.summary();

  const QbdSolution sol(blocks);
  EXPECT_TRUE(SameBits(sol.decay_rate(), spectral_radius(sol.r())));
  EXPECT_TRUE(SameBits(sol.decay_rate(), sol.report().spectral_radius));
  EXPECT_NE(sol.report().summary().find("sp(R)="), std::string::npos);

  // refine() replaces R, so it recomputes sp(R). Start from a rotted R
  // (as a damaged journal entry could carry) so the fixed-point step
  // moves it.
  Matrix rotted = sol.r();
  for (double& x : rotted.data()) x *= 1.0 + 1e-9;
  QbdSolution repaired(std::move(rotted), sol.pi0(), sol.pi1());
  const double rotted_sp = repaired.decay_rate();
  repaired.refine(blocks);
  EXPECT_NE(repaired.decay_rate(), rotted_sp);
  EXPECT_TRUE(SameBits(repaired.decay_rate(), spectral_radius(repaired.r())));
  EXPECT_TRUE(
      SameBits(repaired.decay_rate(), repaired.report().spectral_radius));

  // So does a released R that came out of the escalation ladder (an
  // unreachable certified threshold runs every rung).
  TrustPolicy policy;
  policy.r_residual_certified = 1e-30;
  const QbdSolution healed(blocks, policy);
  ASSERT_NE(healed.trust().healing.find("refine"), std::string::npos);
  EXPECT_TRUE(SameBits(healed.decay_rate(), spectral_radius(healed.r())));
  EXPECT_TRUE(
      SameBits(healed.decay_rate(), healed.report().spectral_radius));
}

TEST(QbdSolution, PhaseMarginalMatchesModulatingStationary) {
  const auto mmpp = PaperClusterMmpp(5, 2);
  const QbdSolution sol(m_mmpp_1(mmpp, 2.2));
  const auto marginal = sol.phase_marginal();
  const auto pi = mmpp.stationary_phases();
  EXPECT_LT(linalg::max_abs_diff(marginal, pi), 1e-9);
}

TEST(QbdSolution, PmfSumsToOne) {
  const QbdSolution sol(m_mmpp_1(PaperClusterMmpp(5, 2), 1.5));
  const Vector pmf = sol.pmf_upto(3000);
  double total = 0.0;
  for (double x : pmf) total += x;
  EXPECT_NEAR(total + sol.tail(3001), 1.0, 1e-9);
}

TEST(QbdSolution, TailMatchesPmfPartialSums) {
  const QbdSolution sol(m_mmpp_1(PaperClusterMmpp(3, 2), 2.0));
  const std::size_t k_max = 400;
  const Vector pmf = sol.pmf_upto(k_max);
  double acc = 0.0;
  for (std::size_t k = 0; k < 50; ++k) acc += pmf[k];
  // Pr(Q >= 50) = 1 - sum_{k<50} pmf
  ExpectClose(sol.tail(50), 1.0 - acc, 1e-9, "tail(50)");
}

TEST(QbdSolution, TailBinaryPoweringConsistent) {
  // tail() steps the vector while that costs fewer flops than binary
  // powering of R: steps <= m (bit_width + popcount). At m = 21 the
  // switch lies between 255 and 256 steps; verify continuity across it.
  const QbdSolution sol(m_mmpp_1(PaperClusterMmpp(5, 2), 2.5));
  ASSERT_EQ(sol.phase_dim(), 21u);
  const std::size_t k = sol.boundary_levels() + 255;
  const double t0 = sol.tail(k);
  const double t1 = sol.tail(k + 1);
  const double t2 = sol.tail(k + 2);
  EXPECT_GT(t0, t1);
  EXPECT_GT(t1, t2);
  // Ratios in a geometric-ish regime vary smoothly.
  EXPECT_NEAR(t1 / t0, t2 / t1, 0.05);
}

// pi_C R^steps (I-R)^{-1} e with R^steps formed by explicit repeated
// products: the reference for either of tail()'s two paths.
double TailByExplicitPower(const QbdSolution& sol, std::size_t steps) {
  const std::size_t m = sol.phase_dim();
  Matrix pow = Matrix::identity(m);
  for (std::size_t i = 0; i < steps; ++i) pow = pow * sol.r();
  const Vector closure = linalg::solve(Matrix::identity(m) - sol.r(),
                                       linalg::ones(m));
  return linalg::dot(sol.pi(sol.boundary_levels()) * pow, closure);
}

TEST(QbdSolution, TailMatchesExplicitPoweringOnBothPaths) {
  // m = 231 (N = 20, T = 2): tail(100) steps the vector (99 m^2 products
  // instead of ~10 m^3). m = 21: tail(100) steps, tail(500) powers.
  const auto mmpp = PaperClusterMmpp(2, 20);
  const QbdSolution big(m_mmpp_1(mmpp, 0.6 * mmpp.mean_rate()));
  ASSERT_EQ(big.phase_dim(), 231u);
  const QbdSolution small(m_mmpp_1(PaperClusterMmpp(5, 2), 2.5));
  for (const auto& [sol, k] :
       {std::pair{&big, std::size_t{100}}, std::pair{&small, std::size_t{100}},
        std::pair{&small, std::size_t{500}}}) {
    SCOPED_TRACE("m = " + std::to_string(sol->phase_dim()) +
                 ", k = " + std::to_string(k));
    const double expected =
        TailByExplicitPower(*sol, k - sol->boundary_levels());
    ASSERT_GT(expected, 0.0);
    EXPECT_NEAR(sol->tail(k), expected, 1e-12 * expected);
  }
}

TEST(QbdSolution, LumpedN200AnswerIsPinnedBitForBit) {
  // The N=200 T=1 lumped headline model at rho = 0.7 (m = 201). Its first
  // doublings produce iterate entries far below 2^-500, which logarithmic
  // reduction flushes to zero to stay off the subnormal path; E[Q], the
  // tail and sp(R) must keep every bit they had before the flush.
  core::ClusterParams p;
  p.n_servers = 200;
  p.down = make_tpt(TptSpec{1, 1.4, 0.2, 10.0});
  const core::ClusterModel model(p);
  const QbdSolution sol = model.solve(model.lambda_for_rho(0.7));
  ASSERT_EQ(sol.phase_dim(), 201u);
  EXPECT_EQ(sol.mean_queue_length(), 2.3423099392937003);
  EXPECT_EQ(sol.tail(100), 2.2330459901136656e-15);
  EXPECT_EQ(sol.decay_rate(), 0.91876614298295611);
}

TEST(QbdSolution, MeanFromPmfMatchesFormula) {
  const QbdSolution sol(m_mmpp_1(PaperClusterMmpp(2, 2), 1.8));
  const std::size_t k_max = 6000;
  const Vector pmf = sol.pmf_upto(k_max);
  double mean = 0.0;
  for (std::size_t k = 1; k <= k_max; ++k) mean += k * pmf[k];
  ExpectClose(mean, sol.mean_queue_length(), 1e-6, "E[Q]");
}

TEST(QbdSolution, MmppM1DualSolves) {
  // The N-Burst dual: MMPP arrivals into an exponential server.
  const auto arrivals = PaperClusterMmpp(5, 2);
  const double lam_bar = arrivals.mean_rate();
  const QbdSolution sol(mmpp_m_1(arrivals, lam_bar / 0.5));
  // Utilization 0.5 with bursty arrivals: worse than M/M/1 at 0.5.
  EXPECT_GT(sol.mean_queue_length(), 1.0);
}

}  // namespace
}  // namespace performa::qbd
