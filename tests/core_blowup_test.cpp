#include "core/blowup.h"

#include <gtest/gtest.h>

#include <cstddef>

#include "linalg/errors.h"
#include "test_util.h"

namespace performa::core {
namespace {

// The paper's running example: N=2, nu_p=2, delta=0.2, A=0.9.
BlowupParams PaperParams() { return BlowupParams{2, 2.0, 0.2, 0.9}; }

TEST(Blowup, MeanServiceRateOfPaperExample) {
  // nu_bar = 2 * 2 * (0.9 + 0.2*0.1) = 3.68.
  EXPECT_NEAR(mean_service_rate(PaperParams()), 3.68, 1e-12);
}

TEST(Blowup, ServiceRateLadderOfPaperExample) {
  const auto nu = service_rate_ladder(PaperParams());
  ASSERT_EQ(nu.size(), 3u);
  EXPECT_NEAR(nu[0], 3.68, 1e-12);
  EXPECT_NEAR(nu[1], 1.84 + 0.4, 1e-12);  // one long repair
  EXPECT_NEAR(nu[2], 0.8, 1e-12);         // both in long repair
}

TEST(Blowup, PaperBlowupUtilizations) {
  // Sec. 3.1: boundaries at 21.7% and 60.9%.
  const auto rho = blowup_utilizations(PaperParams());
  ASSERT_EQ(rho.size(), 2u);
  EXPECT_NEAR(rho[0], 0.609, 5e-4);  // rho_1 = nu_1/nu_bar
  EXPECT_NEAR(rho[1], 0.217, 5e-4);  // rho_2 = nu_2/nu_bar
}

TEST(Blowup, RegionsOfPaperExample) {
  const auto p = PaperParams();
  EXPECT_EQ(blowup_region(p, 0.10), 0u);  // insensitive
  EXPECT_EQ(blowup_region(p, 0.30), 2u);  // needs both servers down
  EXPECT_EQ(blowup_region(p, 0.70), 1u);  // one long repair suffices
  EXPECT_EQ(blowup_region(p, 0.95), 1u);
  EXPECT_THROW(blowup_region(p, 1.0), InvalidArgument);
  EXPECT_THROW(blowup_region(p, -0.1), InvalidArgument);
}

TEST(Blowup, LadderIsMonotone) {
  const auto nu = service_rate_ladder(BlowupParams{5, 2.0, 0.2, 0.9});
  for (std::size_t i = 1; i < nu.size(); ++i) {
    EXPECT_LT(nu[i], nu[i - 1]) << i;
  }
}

TEST(Blowup, CrashFaultBottomsAtZero) {
  const auto nu = service_rate_ladder(BlowupParams{3, 2.0, 0.0, 0.9});
  EXPECT_NEAR(nu.back(), 0.0, 1e-14);
  // delta = 0: a blow-up region exists for every positive lambda.
  EXPECT_TRUE(has_blowup(BlowupParams{3, 2.0, 0.0, 0.9}, 0.01));
}

TEST(Blowup, NoBlowupWhenDegradedCapacitySuffices) {
  // lambda below N nu_p delta: even all-down keeps up.
  const BlowupParams p{2, 2.0, 0.5, 0.9};
  EXPECT_FALSE(has_blowup(p, 1.9));  // N nu_p delta = 2
  EXPECT_TRUE(has_blowup(p, 2.1));
}

TEST(Blowup, TailExponents) {
  // beta_i = i(alpha-1)+1 for alpha = 1.4.
  EXPECT_NEAR(tail_exponent(1, 1.4), 1.4, 1e-14);
  EXPECT_NEAR(tail_exponent(2, 1.4), 1.8, 1e-14);
  EXPECT_NEAR(tail_exponent(5, 1.4), 3.0, 1e-14);
  EXPECT_THROW(tail_exponent(0, 1.4), InvalidArgument);
  EXPECT_THROW(tail_exponent(1, 1.0), InvalidArgument);
}

TEST(Blowup, AvailabilityBoundariesFigure5) {
  // Fig. 5 setting: lambda = 1.8, nu_p = 2, delta = 0.2, N = 2.
  BlowupParams p = PaperParams();
  const double lambda = 1.8;
  // Stability threshold: lambda = nu_0(A) -> A ~ 0.3125.
  EXPECT_NEAR(stability_availability(p, lambda), 0.3125, 1e-10);
  // Region-1 boundary from Eq. (5): A_1 = ((1.8-0.4)/2 - 0.2)/0.8 = 0.625.
  EXPECT_NEAR(availability_boundary(p, 1, lambda), 0.625, 1e-10);
}

TEST(Blowup, AvailabilityBoundaryConsistentWithLadder) {
  // At A = A_i(lambda), nu_i equals lambda.
  BlowupParams p{3, 1.5, 0.3, 0.5};
  const double lambda = 2.0;
  for (unsigned i = 0; i < p.n_servers; ++i) {
    const double a_i = availability_boundary(p, i, lambda);
    if (a_i <= 0.0 || a_i >= 1.0) continue;
    BlowupParams at = p;
    at.availability = a_i;
    const auto nu = service_rate_ladder(at);
    EXPECT_NEAR(nu[i], lambda, 1e-10) << "i=" << i;
  }
}

TEST(Blowup, AvailabilityWindowsMapToRegions) {
  // For A strictly inside (A_{i-1}, A_i) the model at arrival rate lambda
  // sits exactly in blow-up region i.
  BlowupParams p{4, 2.0, 0.2, 0.9};
  const double lambda = 3.0;
  std::vector<double> bounds;  // A_0 .. A_{N-1}, increasing
  for (unsigned i = 0; i < p.n_servers; ++i) {
    bounds.push_back(availability_boundary(p, i, lambda));
  }
  for (unsigned i = 1; i + 1 <= bounds.size(); ++i) {
    ASSERT_LT(bounds[i - 1], bounds[i]);
    const double a_mid = 0.5 * (bounds[i - 1] + bounds[i]);
    if (a_mid <= 0.0 || a_mid >= 1.0) continue;
    BlowupParams at = p;
    at.availability = a_mid;
    const double rho = lambda / mean_service_rate(at);
    ASSERT_LT(rho, 1.0);
    EXPECT_EQ(blowup_region(at, rho), i) << "A=" << a_mid;
  }
  // Above A_{N-1}: region N, because lambda > N nu_p delta here.
  ASSERT_TRUE(has_blowup(p, lambda));
  BlowupParams high = p;
  high.availability = 0.5 * (bounds.back() + 1.0);
  const double rho = lambda / mean_service_rate(high);
  EXPECT_EQ(blowup_region(high, rho), p.n_servers);
}

TEST(Blowup, AvailabilityBoundaryValidation) {
  BlowupParams p = PaperParams();
  EXPECT_THROW(availability_boundary(p, 2, 1.8), InvalidArgument);  // i = N
  p.delta = 1.0;
  EXPECT_THROW(availability_boundary(p, 0, 1.8), InvalidArgument);
}

TEST(Blowup, ParamValidation) {
  EXPECT_THROW(service_rate_ladder(BlowupParams{0, 2.0, 0.2, 0.9}),
               InvalidArgument);
  EXPECT_THROW(service_rate_ladder(BlowupParams{2, -2.0, 0.2, 0.9}),
               InvalidArgument);
  EXPECT_THROW(service_rate_ladder(BlowupParams{2, 2.0, 1.2, 0.9}),
               InvalidArgument);
  EXPECT_THROW(service_rate_ladder(BlowupParams{2, 2.0, 0.2, 0.0}),
               InvalidArgument);
}

TEST(Blowup, DeltaOneDegeneratesToSingleRegionlessLadder) {
  // delta = 1: failures do not degrade anything; all nu_i equal.
  const auto nu = service_rate_ladder(BlowupParams{3, 2.0, 1.0, 0.5});
  for (double x : nu) EXPECT_NEAR(x, 6.0, 1e-12);
}

// Property: region boundaries partition (0,1) consistently with
// blowup_region across a parameter sweep.
// gtest prints a parameter without operator<< as its raw bytes, and the
// CTest name embeds that text, so the case must have no padding bytes.
struct RegionCase {
  std::size_t n;
  double delta;
  double a;
};
static_assert(sizeof(RegionCase) == sizeof(std::size_t) + 2 * sizeof(double));

class RegionProperty : public ::testing::TestWithParam<RegionCase> {};

TEST_P(RegionProperty, BoundariesMatchRegionIndex) {
  const auto [n, delta, a] = GetParam();
  const BlowupParams p{static_cast<unsigned>(n), 2.0, delta, a};
  const auto rho_bounds = blowup_utilizations(p);  // descending rho_1..rho_N
  for (double rho = 0.02; rho < 1.0; rho += 0.02) {
    const unsigned region = blowup_region(p, rho);
    if (region == 0) {
      EXPECT_LE(rho, rho_bounds.back() + 1e-12);
    } else {
      // nu_region < lambda <= nu_{region-1}
      EXPECT_GT(rho, rho_bounds[region - 1] - 1e-12);
      if (region >= 2) {
        EXPECT_LE(rho, rho_bounds[region - 2] + 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegionProperty,
    ::testing::Values(RegionCase{2, 0.2, 0.9}, RegionCase{2, 0.0, 0.9},
                      RegionCase{3, 0.1, 0.8}, RegionCase{5, 0.2, 0.9},
                      RegionCase{5, 0.0, 0.5}, RegionCase{10, 0.3, 0.95},
                      RegionCase{1, 0.2, 0.9}));

}  // namespace
}  // namespace performa::core
