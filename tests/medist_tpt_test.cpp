#include "medist/tpt.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "test_util.h"

namespace performa::medist {
namespace {

using performa::testing::ExpectClose;

// The paper's repair-time setting: alpha = 1.4, theta = 0.2, MTTR = 10.
TptSpec PaperSpec(unsigned t) { return TptSpec{t, 1.4, 0.2, 10.0}; }

TEST(TptSpec, GammaFormula) {
  const TptSpec s = PaperSpec(10);
  EXPECT_NEAR(s.gamma(), std::pow(0.2, -1.0 / 1.4), 1e-14);
  EXPECT_GT(s.gamma(), 1.0);
}

TEST(TptSpec, Validation) {
  EXPECT_THROW(make_tpt(TptSpec{0, 1.4, 0.2, 1.0}), InvalidArgument);
  EXPECT_THROW(make_tpt(TptSpec{3, -1.0, 0.2, 1.0}), InvalidArgument);
  EXPECT_THROW(make_tpt(TptSpec{3, 1.4, 0.0, 1.0}), InvalidArgument);
  EXPECT_THROW(make_tpt(TptSpec{3, 1.4, 1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(make_tpt(TptSpec{3, 1.4, 0.2, 0.0}), InvalidArgument);
}

TEST(Tpt, EntryProbabilitiesGeometricAndNormalized) {
  const Vector p = tpt_entry_probabilities(PaperSpec(5));
  EXPECT_NEAR(linalg::sum(p), 1.0, 1e-13);
  for (std::size_t i = 1; i < p.size(); ++i) {
    EXPECT_NEAR(p[i] / p[i - 1], 0.2, 1e-12) << i;
  }
}

TEST(Tpt, PhaseRatesGeometric) {
  const TptSpec spec = PaperSpec(6);
  const Vector r = tpt_phase_rates(spec);
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_NEAR(r[i - 1] / r[i], spec.gamma(), 1e-10) << i;
  }
}

TEST(Tpt, MeanMatchesTarget) {
  for (unsigned t : {1u, 2u, 5u, 9u, 10u, 20u}) {
    const MeDistribution d = make_tpt(PaperSpec(t));
    EXPECT_NEAR(d.mean(), 10.0, 1e-9) << "T=" << t;
  }
}

TEST(Tpt, TruncationOneIsExponential) {
  const MeDistribution d = make_tpt(PaperSpec(1));
  EXPECT_EQ(d.dim(), 1u);
  EXPECT_NEAR(d.scv(), 1.0, 1e-12);
  EXPECT_NEAR(d.reliability(10.0), std::exp(-1.0), 1e-10);
}

TEST(Tpt, VarianceGrowsWithTruncation) {
  // alpha = 1.4 < 2: the variance diverges as T grows.
  double prev = 0.0;
  for (unsigned t : {1u, 3u, 5u, 7u, 9u, 11u}) {
    const double var = make_tpt(PaperSpec(t)).variance();
    EXPECT_GT(var, prev) << "T=" << t;
    prev = var;
  }
  EXPECT_GT(make_tpt(PaperSpec(11)).scv(), 50.0);
}

TEST(Tpt, IsPhaseTypeAndHyperexponential) {
  const MeDistribution d = make_tpt(PaperSpec(10));
  EXPECT_TRUE(d.is_phase_type());
  // Diagonal rate matrix: a pure mixture.
  const auto& b = d.rate_matrix();
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      if (i != j) {
        EXPECT_EQ(b(i, j), 0.0);
      }
}

TEST(Tpt, ReliabilityShowsPowerLawOverMidRange) {
  // Fit a slope to log R(t) vs log t over the power-law window and check
  // it is close to -alpha. The window must stay away from both the short
  // initial transient and the exponential truncation.
  const TptSpec spec{14, 1.4, 0.2, 1.0};
  const MeDistribution d = make_tpt(spec);

  std::vector<double> xs, ys;
  for (double t = 10.0; t <= 1000.0; t *= 1.5) {
    xs.push_back(std::log(t));
    ys.push_back(std::log(d.reliability(t)));
  }
  // Least-squares slope.
  const std::size_t n = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  EXPECT_NEAR(slope, -1.4, 0.12) << "power-law exponent";
}

TEST(Tpt, TruncatedTailDropsExponentially) {
  // Far beyond the longest phase mean, the reliability must fall much
  // faster than the power law would predict.
  const TptSpec spec{5, 1.4, 0.2, 1.0};
  const MeDistribution d = make_tpt(spec);
  const double t_far = 2000.0;
  const double power_law_prediction = std::pow(t_far, -1.4);
  EXPECT_LT(d.reliability(t_far), power_law_prediction * 1e-3);
}

TEST(Tpt, RangeGrowsGeometrically) {
  const TptSpec s5 = PaperSpec(5);
  const TptSpec s6 = PaperSpec(6);
  EXPECT_NEAR(s6.range() / s5.range(), s5.gamma(), 1e-10);
}

// Property sweep over (T, alpha, theta): construction invariants.
// gtest prints a parameter without operator<< as its raw bytes, and the
// CTest name embeds that text, so the case must have no padding bytes.
struct TptCase {
  std::size_t t;
  double alpha;
  double theta;
};
static_assert(sizeof(TptCase) == sizeof(std::size_t) + 2 * sizeof(double));

class TptProperty : public ::testing::TestWithParam<TptCase> {};

TEST_P(TptProperty, ConstructionInvariants) {
  const auto [t, alpha, theta] = GetParam();
  const TptSpec spec{static_cast<unsigned>(t), alpha, theta, 3.0};
  const MeDistribution d = make_tpt(spec);
  EXPECT_EQ(d.dim(), t);
  EXPECT_NEAR(d.mean(), 3.0, 1e-8);
  EXPECT_TRUE(d.is_phase_type());
  EXPECT_NEAR(linalg::sum(d.entry_vector()), 1.0, 1e-12);
  EXPECT_GE(d.scv(), 1.0 - 1e-9);  // mixtures of exponentials: SCV >= 1
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TptProperty,
    ::testing::Values(TptCase{1, 1.4, 0.2}, TptCase{2, 1.4, 0.2},
                      TptCase{5, 1.4, 0.2}, TptCase{9, 1.4, 0.2},
                      TptCase{10, 1.4, 0.2}, TptCase{5, 1.4, 0.5},
                      TptCase{10, 1.1, 0.3}, TptCase{10, 1.9, 0.3},
                      TptCase{16, 1.5, 0.25}, TptCase{24, 1.2, 0.4}));

}  // namespace
}  // namespace performa::medist
