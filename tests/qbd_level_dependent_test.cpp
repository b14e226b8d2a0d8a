#include "qbd/level_dependent.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/mm1.h"
#include "medist/tpt.h"
#include "obs/deadline.h"
#include "test_util.h"

namespace performa::qbd {
namespace {

using medist::exponential_from_mean;
using medist::make_tpt;
using medist::TptSpec;
using performa::testing::ExpectClose;

map::LumpedAggregate PaperCluster(unsigned t_phases, unsigned n_servers) {
  const map::ServerModel server(exponential_from_mean(90.0),
                                make_tpt(TptSpec{t_phases, 1.4, 0.2, 10.0}),
                                2.0, 0.2);
  return map::LumpedAggregate(server, n_servers);
}

TEST(LevelDependent, MmcSpecialCase) {
  // Always-up servers (availability ~ 1): the load-dependent model is an
  // M/M/c queue. Check E[Q] against the Erlang-C closed form for c = 2.
  const map::ServerModel server(exponential_from_mean(1e9),
                                exponential_from_mean(1e-3), 1.0, 0.0);
  const map::LumpedAggregate agg(server, 2);
  const double mu = 1.0, lambda = 1.2;  // rho = 0.6 on 2 servers
  const auto blocks =
      cluster_level_dependent_blocks(agg, mu, 0.0, lambda);
  const LevelDependentSolution sol(blocks);

  // M/M/2: rho = lambda/(2 mu); ErlangC = 1/(1 + 2(1-rho)/ (2rho)) ... use
  // the standard form: P_wait = (2rho)^2 / (2! (1-rho)) * P0,
  // P0 = [sum_{k<2} (2rho)^k/k! + (2rho)^2/(2!(1-rho))]^{-1},
  // E[N] = 2rho + rho/(1-rho) P_wait.
  const double rho = lambda / (2 * mu);
  const double a = 2 * rho;
  const double p0 = 1.0 / (1.0 + a + a * a / (2.0 * (1.0 - rho)));
  const double p_wait = a * a / (2.0 * (1.0 - rho)) * p0;
  const double expected = a + rho / (1.0 - rho) * p_wait;

  ExpectClose(sol.mean_queue_length(), expected, 1e-6, "E[N] M/M/2");
  ExpectClose(sol.probability_empty(), p0, 1e-6, "P0 M/M/2");
}

TEST(LevelDependent, ComputesNoSpectralRadius) {
  // sp(R) is computed once per QbdSolution answer; the level-dependent
  // solution computes none, and its report's summary omits it.
  const LevelDependentSolution sol(
      cluster_level_dependent_blocks(PaperCluster(2, 2), 2.0, 0.2, 2.0));
  EXPECT_TRUE(std::isnan(sol.report().spectral_radius));
  EXPECT_EQ(sol.report().summary().find("sp(R)"), std::string::npos)
      << sol.report().summary();
}

TEST(LevelDependent, SingleServiceLevelReproducesHomogeneousBitForBit) {
  // One service level is the C = 1 shape, i.e. the M/MMPP/1 queue itself:
  // both constructions run the same boundary solve, refinement and
  // metrics, so every released number agrees to the last bit.
  const auto agg = PaperCluster(10, 2);
  const map::Mmpp& mmpp = agg.mmpp();
  const double lambda = 0.3 * mmpp.mean_rate();
  LevelDependentBlocks blocks;
  blocks.q = mmpp.generator();
  blocks.lambda = lambda;
  blocks.service = {mmpp.rate_matrix()};
  const LevelDependentSolution ld(blocks);
  const QbdSolution hom(m_mmpp_1(mmpp, lambda));

  ASSERT_EQ(ld.boundary_levels(), 1u);
  EXPECT_EQ(ld.mean_queue_length(), hom.mean_queue_length());
  for (std::size_t k = 0; k <= 20; ++k) {
    EXPECT_EQ(ld.pmf(k), hom.pmf(k)) << "k=" << k;
  }
  EXPECT_EQ(ld.tail(5), hom.tail(5));
  for (std::size_t i = 0; i < mmpp.dim(); ++i) {
    EXPECT_EQ(ld.pi(0)[i], hom.pi0()[i]) << "i=" << i;
    EXPECT_EQ(ld.pi(1)[i], hom.pi1()[i]) << "i=" << i;
  }
}

TEST(LevelDependent, ExpiredDeadlineThrowsDeadlineExceeded) {
  const auto blocks =
      cluster_level_dependent_blocks(PaperCluster(2, 2), 2.0, 0.2, 2.0);
  obs::DeadlineScope scope(obs::Deadline::after_seconds(0.0));
  EXPECT_THROW(LevelDependentSolution{blocks}, DeadlineExceeded);
}

TEST(LevelDependent, MoreConservativeThanLoadIndependent) {
  // The load-independent model serves level-1 tasks at the full cluster
  // rate, so it underestimates the queue: LD mean >= LI mean.
  const auto agg = PaperCluster(5, 2);
  for (double rho : {0.2, 0.5, 0.8}) {
    const double lambda = rho * agg.mmpp().mean_rate();
    const LevelDependentSolution ld(
        cluster_level_dependent_blocks(agg, 2.0, 0.2, lambda));
    const QbdSolution li(m_mmpp_1(agg.mmpp(), lambda));
    EXPECT_GE(ld.mean_queue_length(), li.mean_queue_length() - 1e-9)
        << "rho=" << rho;
  }
}

TEST(LevelDependent, ConvergesToLoadIndependentAtHighLoad) {
  // At high utilization the queue rarely drops below N, so the models agree.
  const auto agg = PaperCluster(5, 2);
  const double lambda = 0.9 * agg.mmpp().mean_rate();
  const LevelDependentSolution ld(
      cluster_level_dependent_blocks(agg, 2.0, 0.2, lambda));
  const QbdSolution li(m_mmpp_1(agg.mmpp(), lambda));
  ExpectClose(ld.mean_queue_length(), li.mean_queue_length(), 0.05,
              "E[Q] high load");
}

TEST(LevelDependent, TailConsistentWithPmf) {
  const auto agg = PaperCluster(3, 2);
  const LevelDependentSolution sol(
      cluster_level_dependent_blocks(agg, 2.0, 0.2, 2.0));
  double acc = 0.0;
  for (std::size_t k = 0; k < 30; ++k) acc += sol.pmf(k);
  ExpectClose(sol.tail(30), 1.0 - acc, 1e-8, "tail(30)");
  EXPECT_NEAR(sol.tail(0), 1.0, 1e-10);
}

TEST(LevelDependent, PmfSumsToOne) {
  const auto agg = PaperCluster(2, 3);
  const LevelDependentSolution sol(
      cluster_level_dependent_blocks(agg, 2.0, 0.2, 3.0));
  double total = 0.0;
  for (std::size_t k = 0; k < 2000; ++k) total += sol.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(LevelDependent, ValidatesInput) {
  const auto agg = PaperCluster(2, 2);
  LevelDependentBlocks blocks =
      cluster_level_dependent_blocks(agg, 2.0, 0.2, 1.0);
  blocks.service.clear();
  EXPECT_THROW(LevelDependentSolution{blocks}, InvalidArgument);

  blocks = cluster_level_dependent_blocks(agg, 2.0, 0.2, 1.0);
  blocks.lambda = 0.0;
  EXPECT_THROW(LevelDependentSolution{blocks}, InvalidArgument);

  EXPECT_THROW(cluster_level_dependent_blocks(agg, -2.0, 0.2, 1.0),
               InvalidArgument);
  EXPECT_THROW(cluster_level_dependent_blocks(agg, 2.0, 1.5, 1.0),
               InvalidArgument);
}

TEST(LevelDependent, ServiceMatricesScaleWithLevel) {
  const auto agg = PaperCluster(1, 3);  // exponential repair, 3 servers
  const auto blocks = cluster_level_dependent_blocks(agg, 2.0, 0.2, 1.0);
  ASSERT_EQ(blocks.service.size(), 3u);
  // Service rates grow (weakly) with level in every phase.
  for (std::size_t k = 1; k < blocks.service.size(); ++k) {
    for (std::size_t s = 0; s < blocks.phase_dim(); ++s) {
      EXPECT_GE(blocks.service[k](s, s), blocks.service[k - 1](s, s) - 1e-12);
    }
  }
  // At the top level the rates match the load-independent MMPP.
  for (std::size_t s = 0; s < blocks.phase_dim(); ++s) {
    EXPECT_NEAR(blocks.service.back()(s, s), agg.mmpp().rates()[s], 1e-12);
  }
}

// Property: LD <= LI ordering plus normalization across a sweep.
struct LdCase {
  unsigned t_phases;
  unsigned n;
  double rho;
};

class LdProperty : public ::testing::TestWithParam<LdCase> {};

TEST_P(LdProperty, OrderingAndNormalization) {
  const auto [t, n, rho] = GetParam();
  const auto agg = PaperCluster(t, n);
  const double lambda = rho * agg.mmpp().mean_rate();
  const LevelDependentSolution ld(
      cluster_level_dependent_blocks(agg, 2.0, 0.2, lambda));
  const QbdSolution li(m_mmpp_1(agg.mmpp(), lambda));
  EXPECT_GE(ld.mean_queue_length(), li.mean_queue_length() - 1e-9);
  double total = 0.0;
  for (std::size_t k = 0; k < 200; ++k) total += ld.pmf(k);
  total += ld.tail(200);
  EXPECT_NEAR(total, 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LdProperty,
                         ::testing::Values(LdCase{1, 2, 0.3}, LdCase{1, 4, 0.6},
                                           LdCase{2, 3, 0.5}, LdCase{5, 2, 0.7},
                                           LdCase{3, 2, 0.2},
                                           LdCase{2, 5, 0.4}));

}  // namespace
}  // namespace performa::qbd
