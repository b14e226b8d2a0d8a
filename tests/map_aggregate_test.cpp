#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "linalg/ctmc.h"
#include "map/kron_aggregate.h"
#include "map/lumped_aggregate.h"
#include "medist/tpt.h"
#include "test_util.h"

namespace performa::map {
namespace {

using medist::exponential_from_mean;
using medist::make_tpt;
using medist::TptSpec;
using performa::testing::ExpectClose;

ServerModel PaperServer(unsigned t_phases) {
  return ServerModel(exponential_from_mean(90.0),
                     make_tpt(TptSpec{t_phases, 1.4, 0.2, 10.0}), 2.0, 0.2);
}

// The full Kronecker product chain of n identical servers.
Mmpp KronCluster(const ServerModel& s, unsigned n) {
  return heterogeneous_aggregate(std::vector<ServerModel>(n, s));
}

TEST(KronAggregate, StateCountIsPower) {
  const ServerModel s = PaperServer(3);
  EXPECT_EQ(KronCluster(s, 2).dim(), 16u);  // (3+1)^2
}

TEST(KronAggregate, SingleServerIsIdentity) {
  const ServerModel s = PaperServer(4);
  const Mmpp agg = KronCluster(s, 1);
  EXPECT_LT(linalg::max_abs_diff(agg.generator(), s.mmpp().generator()),
            1e-14);
  EXPECT_LT(linalg::max_abs_diff(agg.rates(), s.mmpp().rates()), 1e-14);
}

TEST(KronAggregate, MeanRateScalesLinearly) {
  const ServerModel s = PaperServer(2);
  const double one = s.mean_service_rate();
  for (unsigned n : {1u, 2u, 3u}) {
    ExpectClose(KronCluster(s, n).mean_rate(), n * one, 1e-9, "mean rate");
  }
}

TEST(KronAggregate, GeneratorValid) {
  const ServerModel s = PaperServer(2);
  EXPECT_TRUE(linalg::is_generator(KronCluster(s, 3).generator()));
}

TEST(LumpedAggregate, StateCountFormula) {
  EXPECT_EQ(lumped_state_count(2, 5), 6u);    // C(6,1)
  EXPECT_EQ(lumped_state_count(3, 5), 21u);   // C(7,2)
  EXPECT_EQ(lumped_state_count(11, 2), 66u);  // C(12,10)
  EXPECT_EQ(lumped_state_count(1, 9), 1u);

  const ServerModel s = PaperServer(10);
  const LumpedAggregate agg(s, 2);
  EXPECT_EQ(agg.state_count(), lumped_state_count(s.dim(), 2));
}

TEST(LumpedAggregate, OccupanciesSumToN) {
  const ServerModel s = PaperServer(3);
  const LumpedAggregate agg(s, 4);
  for (std::size_t i = 0; i < agg.state_count(); ++i) {
    unsigned total = 0;
    for (unsigned c : agg.occupancy(i)) total += c;
    EXPECT_EQ(total, 4u);
  }
}

TEST(LumpedAggregate, IndexRoundTrip) {
  const ServerModel s = PaperServer(2);
  const LumpedAggregate agg(s, 3);
  for (std::size_t i = 0; i < agg.state_count(); ++i) {
    EXPECT_EQ(agg.index_of(agg.occupancy(i)), i);
  }
  EXPECT_THROW(agg.index_of(Occupancy{1, 1}), InvalidArgument);
  EXPECT_THROW(agg.index_of(Occupancy{5, 0, 0}), InvalidArgument);
}

TEST(LumpedAggregate, GeneratorValid) {
  const ServerModel s = PaperServer(5);
  const LumpedAggregate agg(s, 3);
  EXPECT_TRUE(linalg::is_generator(agg.mmpp().generator()));
}

TEST(LumpedAggregate, MeanRateMatchesKron) {
  const ServerModel s = PaperServer(3);
  for (unsigned n : {1u, 2u, 3u}) {
    ExpectClose(LumpedAggregate(s, n).mmpp().mean_rate(),
                KronCluster(s, n).mean_rate(), 1e-9, "mean rate");
  }
}

TEST(LumpedAggregate, UpCountDistributionIsBinomialForExpPhases) {
  // With 1-phase UP and 1-phase DOWN, the N servers are independent
  // Bernoulli(A) in steady state.
  const ServerModel s(exponential_from_mean(90.0), exponential_from_mean(10.0),
                      1.0, 0.0);
  const unsigned n = 4;
  const LumpedAggregate agg(s, n);
  const auto dist = agg.up_count_distribution();
  const double a = 0.9;
  for (unsigned k = 0; k <= n; ++k) {
    double binom = 1.0;
    for (unsigned j = 0; j < k; ++j) binom = binom * (n - j) / (j + 1);
    const double expected =
        binom * std::pow(a, k) * std::pow(1.0 - a, static_cast<int>(n - k));
    EXPECT_NEAR(dist[k], expected, 1e-10) << "k=" << k;
  }
}

TEST(LumpedAggregate, StationaryPhaseMassMatchesKronMarginals) {
  // Aggregate per-phase stationary mass must agree between the lumped and
  // the full Kronecker representation.
  const ServerModel s = PaperServer(2);
  const unsigned n = 2;
  const std::size_t m = s.dim();

  const Mmpp kron = KronCluster(s, n);
  const auto pi_kron = kron.stationary_phases();
  // Expected occupancy counts from the kron chain.
  linalg::Vector phase_mass_kron(m, 0.0);
  for (std::size_t idx = 0; idx < pi_kron.size(); ++idx) {
    std::size_t rem = idx;
    for (unsigned srv = 0; srv < n; ++srv) {
      const std::size_t phase = rem % m;
      rem /= m;
      phase_mass_kron[phase] += pi_kron[idx];
    }
  }

  const LumpedAggregate lumped(s, n);
  const auto pi_lumped = lumped.mmpp().stationary_phases();
  linalg::Vector phase_mass_lumped(m, 0.0);
  for (std::size_t i = 0; i < lumped.state_count(); ++i) {
    const auto& occ = lumped.occupancy(i);
    for (std::size_t ph = 0; ph < m; ++ph) {
      phase_mass_lumped[ph] += pi_lumped[i] * occ[ph];
    }
  }
  EXPECT_LT(linalg::max_abs_diff(phase_mass_kron, phase_mass_lumped), 1e-10);
}

TEST(HeterogeneousAggregate, MixedClusterRates) {
  // One fast/flaky server + one slow/solid server.
  const ServerModel fast(exponential_from_mean(30.0),
                         exponential_from_mean(10.0), 4.0, 0.0);
  const ServerModel solid(exponential_from_mean(900.0),
                          exponential_from_mean(10.0), 1.0, 0.0);
  const Mmpp agg = heterogeneous_aggregate({fast, solid});
  EXPECT_EQ(agg.dim(), 4u);
  EXPECT_TRUE(linalg::is_generator(agg.generator()));
  ExpectClose(agg.mean_rate(),
              fast.mean_service_rate() + solid.mean_service_rate(), 1e-10,
              "mean rate");
  // Peak rate = both UP.
  EXPECT_NEAR(agg.max_rate(), 5.0, 1e-12);
  EXPECT_NEAR(agg.min_rate(), 0.0, 1e-12);
}

TEST(HeterogeneousAggregate, Validation) {
  EXPECT_THROW(heterogeneous_aggregate({}), InvalidArgument);
}

// The decisive lumping test: the rate *distribution* (stationary
// probability mass per distinct modulated rate level) must coincide
// between the kron and lumped representations.
class LumpingEquivalence
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(LumpingEquivalence, RateDistributionsMatch) {
  const auto [t_phases, n] = GetParam();
  const ServerModel s = PaperServer(t_phases);

  auto rate_histogram = [](const Mmpp& mmpp) {
    const auto pi = mmpp.stationary_phases();
    std::vector<std::pair<double, double>> hist;  // (rate, mass)
    for (std::size_t i = 0; i < mmpp.dim(); ++i) {
      const double rate = mmpp.rates()[i];
      bool found = false;
      for (auto& [r, mass] : hist) {
        if (std::abs(r - rate) < 1e-9) {
          mass += pi[i];
          found = true;
          break;
        }
      }
      if (!found) hist.emplace_back(rate, pi[i]);
    }
    std::sort(hist.begin(), hist.end());
    return hist;
  };

  const auto h_kron = rate_histogram(KronCluster(s, n));
  const auto h_lumped = rate_histogram(LumpedAggregate(s, n).mmpp());
  ASSERT_EQ(h_kron.size(), h_lumped.size());
  for (std::size_t i = 0; i < h_kron.size(); ++i) {
    EXPECT_NEAR(h_kron[i].first, h_lumped[i].first, 1e-9);
    EXPECT_NEAR(h_kron[i].second, h_lumped[i].second, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LumpingEquivalence,
                         ::testing::Values(std::pair<unsigned, unsigned>{1, 2},
                                           std::pair<unsigned, unsigned>{2, 2},
                                           std::pair<unsigned, unsigned>{2, 3},
                                           std::pair<unsigned, unsigned>{3, 2},
                                           std::pair<unsigned, unsigned>{3, 3},
                                           std::pair<unsigned, unsigned>{5, 2}));

}  // namespace
}  // namespace performa::map
