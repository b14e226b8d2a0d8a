#include "map/server_model.h"

#include <gtest/gtest.h>

#include "linalg/ctmc.h"
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

TEST(Mmpp, ValidatesInputs) {
  EXPECT_THROW(Mmpp(linalg::Matrix{{1.0, -1.0}, {1.0, -1.0}},
                    linalg::Vector{1.0, 1.0}),
               InvalidArgument);  // not a generator
  EXPECT_THROW(
      Mmpp(linalg::Matrix{{-1.0, 1.0}, {1.0, -1.0}}, linalg::Vector{1.0}),
      InvalidArgument);  // rate length mismatch
  EXPECT_THROW(Mmpp(linalg::Matrix{{-1.0, 1.0}, {1.0, -1.0}},
                    linalg::Vector{1.0, -2.0}),
               InvalidArgument);  // negative rate
}

TEST(Mmpp, MeanRateOfTwoStateChain) {
  // Symmetric 2-state chain: stationary (1/2, 1/2).
  const Mmpp m(linalg::Matrix{{-1.0, 1.0}, {1.0, -1.0}},
               linalg::Vector{0.0, 4.0});
  EXPECT_NEAR(m.mean_rate(), 2.0, 1e-13);
  EXPECT_EQ(m.max_rate(), 4.0);
  EXPECT_EQ(m.min_rate(), 0.0);
}

TEST(ServerModel, GeneratorIsValid) {
  const ServerModel s = PaperServer(10);
  EXPECT_TRUE(linalg::is_generator(s.mmpp().generator()));
  EXPECT_EQ(s.dim(), 11u);  // 10 TPT repair phases + 1 exp UP phase
  EXPECT_EQ(s.down_dim(), 10u);
  EXPECT_EQ(s.up_dim(), 1u);
}

TEST(ServerModel, AvailabilityMatchesRenewalFormula) {
  // A = MTTF / (MTTF + MTTR) = 90/100, regardless of repair distribution.
  for (unsigned t : {1u, 5u, 10u}) {
    const ServerModel s = PaperServer(t);
    EXPECT_NEAR(s.availability(), 0.9, 1e-10) << "T=" << t;
  }
}

TEST(ServerModel, AvailabilityWithErlangUp) {
  // The formula also holds with non-exponential TTF.
  const ServerModel s(medist::erlang_dist(4, 30.0),
                      exponential_from_mean(10.0), 1.0, 0.0);
  EXPECT_NEAR(s.availability(), 30.0 / 40.0, 1e-10);
}

TEST(ServerModel, MeanServiceRate) {
  const ServerModel s = PaperServer(10);
  // nu_p (A + delta (1-A)) = 2 (0.9 + 0.2*0.1) = 1.84.
  EXPECT_NEAR(s.mean_service_rate(), 1.84, 1e-10);
}

TEST(ServerModel, RatesAreDegradedInDownPhases) {
  const ServerModel s = PaperServer(3);
  const auto& rates = s.mmpp().rates();
  for (std::size_t i = 0; i < s.down_dim(); ++i) {
    EXPECT_NEAR(rates[i], 0.2 * 2.0, 1e-14) << i;
  }
  for (std::size_t i = s.down_dim(); i < s.dim(); ++i) {
    EXPECT_NEAR(rates[i], 2.0, 1e-14) << i;
  }
}

TEST(ServerModel, CrashFaultHasZeroDownRate) {
  const ServerModel s(exponential_from_mean(90.0), exponential_from_mean(10.0),
                      2.0, 0.0);
  EXPECT_EQ(s.mmpp().rates()[0], 0.0);
  EXPECT_NEAR(s.mean_service_rate(), 1.8, 1e-12);
}

TEST(ServerModel, ParameterValidation) {
  const auto up = exponential_from_mean(90.0);
  const auto down = exponential_from_mean(10.0);
  EXPECT_THROW(ServerModel(up, down, -1.0, 0.2), InvalidArgument);
  EXPECT_THROW(ServerModel(up, down, 1.0, -0.1), InvalidArgument);
  EXPECT_THROW(ServerModel(up, down, 1.0, 1.5), InvalidArgument);
}

TEST(ServerModel, UpDownCycleRatesBalance) {
  // Probability flux DOWN->UP equals flux UP->DOWN in steady state:
  // both equal 1/E[cycle].
  const ServerModel s = PaperServer(5);
  const auto pi = s.mmpp().stationary_phases();
  const auto& q = s.mmpp().generator();
  double down_to_up = 0.0, up_to_down = 0.0;
  for (std::size_t i = 0; i < s.down_dim(); ++i)
    for (std::size_t j = s.down_dim(); j < s.dim(); ++j)
      down_to_up += pi[i] * q(i, j);
  for (std::size_t i = s.down_dim(); i < s.dim(); ++i)
    for (std::size_t j = 0; j < s.down_dim(); ++j)
      up_to_down += pi[i] * q(i, j);
  EXPECT_NEAR(down_to_up, up_to_down, 1e-12);
  EXPECT_NEAR(down_to_up, 1.0 / 100.0, 1e-10);  // cycle = 90 + 10
}

// Property: availability formula across a sweep of MTTF/MTTR and
// distribution shapes.
// gtest prints a parameter without operator<< as its raw bytes, and the
// CTest name embeds that text, so the case must have no padding bytes.
struct AvailCase {
  double mttf;
  double mttr;
  std::size_t t_phases;
};
static_assert(sizeof(AvailCase) == 2 * sizeof(double) + sizeof(std::size_t));

class AvailabilityProperty : public ::testing::TestWithParam<AvailCase> {};

TEST_P(AvailabilityProperty, RenewalRewardHolds) {
  const auto [mttf, mttr, t] = GetParam();
  const ServerModel s(
      exponential_from_mean(mttf),
      make_tpt(TptSpec{static_cast<unsigned>(t), 1.4, 0.2, mttr}), 1.0, 0.5);
  ExpectClose(s.availability(), mttf / (mttf + mttr), 1e-9, "availability");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AvailabilityProperty,
    ::testing::Values(AvailCase{90, 10, 1}, AvailCase{90, 10, 10},
                      AvailCase{50, 50, 5}, AvailCase{999, 1, 7},
                      AvailCase{10, 90, 3}, AvailCase{70, 30, 9}));

}  // namespace
}  // namespace performa::map
