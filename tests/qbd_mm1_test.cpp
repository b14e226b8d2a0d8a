// The M/M/1 queue is the 1-phase special case of the QBD machinery; every
// quantity has a closed form, making this the sharpest end-to-end check of
// R-solver + boundary + metrics.
#include <gtest/gtest.h>

#include <utility>

#include "core/mm1.h"
#include "qbd/solution.h"
#include "test_util.h"

namespace performa::qbd {
namespace {

using performa::testing::ExpectClose;

QbdBlocks Mm1Blocks(double lambda, double mu) {
  const map::Mmpp service(Matrix{{0.0}}, Vector{mu});
  return m_mmpp_1(service, lambda);
}

// The M/M/1 solution on the successive-substitution reference R. For a
// scalar R the level-0 balance -lambda pi0 + mu pi1 = 0 and the
// normalization pi0 + pi1 / (1 - R) = 1 fix the boundary.
QbdSolution SuccessiveSubstitutionMm1(double lambda, double mu) {
  RSolveResult ss = solve_r_successive_substitution(Mm1Blocks(lambda, mu));
  const double pi1 = 1.0 / (mu / lambda + 1.0 / (1.0 - ss.r(0, 0)));
  return QbdSolution(std::move(ss.r), Vector{pi1 * mu / lambda}, Vector{pi1},
                     std::move(ss.report));
}

TEST(QbdMm1, RIsScalarRho) {
  // For M/M/1, R = [lambda/mu].
  const auto res = solve_r(Mm1Blocks(0.3, 1.0));
  EXPECT_NEAR(res.r(0, 0), 0.3, 1e-12);
  EXPECT_LT(res.residual, 1e-10);
}

TEST(QbdMm1, MeanQueueLengthClosedForm) {
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9, 0.95}) {
    const QbdSolution sol(Mm1Blocks(rho, 1.0));
    ExpectClose(sol.mean_queue_length(), core::mm1::mean_queue_length(rho),
                1e-9, "E[Q]");
  }
}

TEST(QbdMm1, PmfGeometric) {
  const double rho = 0.6;
  const QbdSolution sol(Mm1Blocks(rho, 1.0));
  for (std::size_t k : {0u, 1u, 2u, 5u, 10u, 50u}) {
    ExpectClose(sol.pmf(k), core::mm1::pmf(rho, k), 1e-9, "pmf");
  }
}

TEST(QbdMm1, TailGeometric) {
  const double rho = 0.8;
  const QbdSolution sol(Mm1Blocks(rho, 1.0));
  for (std::size_t k : {0u, 1u, 10u, 100u, 500u}) {
    ExpectClose(sol.tail(k), core::mm1::tail(rho, k), 1e-8, "tail");
  }
}

TEST(QbdMm1, VarianceClosedForm) {
  const double rho = 0.5;
  const QbdSolution sol(Mm1Blocks(rho, 1.0));
  ExpectClose(sol.variance(), core::mm1::variance(rho), 1e-9, "Var[Q]");
}

TEST(QbdMm1, DecayRateIsRho) {
  const QbdSolution sol(Mm1Blocks(0.45, 1.0));
  EXPECT_NEAR(sol.decay_rate(), 0.45, 1e-9);
}

TEST(QbdMm1, EmptyProbability) {
  const QbdSolution sol(Mm1Blocks(0.25, 1.0));
  EXPECT_NEAR(sol.probability_empty(), 0.75, 1e-10);
}

TEST(QbdMm1, UnstableThrows) {
  EXPECT_THROW(QbdSolution(Mm1Blocks(1.2, 1.0)), NumericalError);
  EXPECT_THROW(QbdSolution(Mm1Blocks(1.0, 1.0)), NumericalError);
}

TEST(QbdMm1, StabilityPredicate) {
  EXPECT_TRUE(is_stable(Mm1Blocks(0.99, 1.0)));
  EXPECT_FALSE(is_stable(Mm1Blocks(1.01, 1.0)));
  EXPECT_NEAR(utilization(Mm1Blocks(0.37, 1.0)), 0.37, 1e-12);
}

TEST(QbdMm1, PmfUptoMatchesPointwise) {
  const QbdSolution sol(Mm1Blocks(0.7, 1.0));
  const Vector pmf = sol.pmf_upto(40);
  for (std::size_t k = 0; k <= 40; ++k) {
    EXPECT_NEAR(pmf[k], sol.pmf(k), 1e-12) << k;
  }
}

TEST(QbdMm1, SuccessiveSubstitutionAgrees) {
  const QbdSolution sol = SuccessiveSubstitutionMm1(0.6, 2.0);
  ExpectClose(sol.mean_queue_length(), core::mm1::mean_queue_length(0.3),
              1e-7, "E[Q]");
}

TEST(Mm1ClosedForms, InputValidation) {
  EXPECT_THROW(core::mm1::mean_queue_length(1.0), InvalidArgument);
  EXPECT_THROW(core::mm1::mean_queue_length(-0.1), InvalidArgument);
  EXPECT_THROW(core::mm1::mean_system_time(2.0, 1.0), InvalidArgument);
  EXPECT_NEAR(core::mm1::mean_system_time(1.0, 2.0), 1.0, 1e-14);
}

// Property sweep: logarithmic reduction and the successive-substitution
// reference, multiple utilizations and mu scales.
// gtest prints a parameter without operator<< as its raw bytes, and the
// CTest name embeds that text, so the case must have no padding bytes.
struct Mm1Case {
  double rho;
  double mu;
  std::size_t reference;  ///< nonzero: R from solve_r_successive_substitution
};
static_assert(sizeof(Mm1Case) == 2 * sizeof(double) + sizeof(std::size_t));

class Mm1Property : public ::testing::TestWithParam<Mm1Case> {};

TEST_P(Mm1Property, AllMetricsMatchClosedForms) {
  const auto [rho, mu, reference] = GetParam();
  const QbdSolution sol = reference
                              ? SuccessiveSubstitutionMm1(rho * mu, mu)
                              : QbdSolution(Mm1Blocks(rho * mu, mu));
  ExpectClose(sol.mean_queue_length(), core::mm1::mean_queue_length(rho),
              1e-7, "E[Q]");
  ExpectClose(sol.tail(20), core::mm1::tail(rho, 20), 1e-7, "tail(20)");
  ExpectClose(sol.probability_empty(), 1.0 - rho, 1e-8, "P(empty)");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Mm1Property,
    ::testing::Values(
        Mm1Case{0.1, 1.0, false}, Mm1Case{0.5, 1.0, false},
        Mm1Case{0.9, 1.0, false}, Mm1Case{0.5, 100.0, false},
        Mm1Case{0.5, 0.01, false}, Mm1Case{0.1, 1.0, true},
        Mm1Case{0.5, 1.0, true}, Mm1Case{0.9, 1.0, true}));

}  // namespace
}  // namespace performa::qbd
