// Seeded metamorphic cross-validation drill (src/verify).
//
// Each relation runs over a battery of randomly drawn cluster
// configurations; the battery size and seed base come from the
// environment so CI can scale the drill up and any failure replays
// locally:
//
//   export PERFORMA_METAMORPHIC_MODELS=40 PERFORMA_METAMORPHIC_SEED=20260807
//   ctest -R Metamorphic
//
// Every failure message carries the seed and full model spec.
#include <gtest/gtest.h>

#include "verify/metamorphic.h"

namespace performa::verify {
namespace {

constexpr unsigned kDefaultModels = 8;
constexpr unsigned kDefaultSeedBase = 20260807;

unsigned Seed(unsigned index) {
  return metamorphic_seed_base(kDefaultSeedBase) + index;
}

class Metamorphic : public ::testing::TestWithParam<unsigned> {};

TEST_P(Metamorphic, RateScalingInvariance) {
  const RelationOutcome out = check_rate_scaling(draw_model(Seed(GetParam())));
  EXPECT_TRUE(out.pass) << out.detail;
}

TEST_P(Metamorphic, ServerPermutationInvariance) {
  const RelationOutcome out =
      check_server_permutation(draw_model(Seed(GetParam())));
  EXPECT_TRUE(out.pass) << out.detail;
}

TEST_P(Metamorphic, LumpedAgreesWithFullKroneckerChain) {
  const RelationOutcome out = check_lumped_vs_full(draw_model(Seed(GetParam())));
  EXPECT_TRUE(out.pass) << out.detail;
}

TEST_P(Metamorphic, MeanQueueLengthMonotoneInLambda) {
  const RelationOutcome out =
      check_lambda_monotonicity(draw_model(Seed(GetParam())));
  EXPECT_TRUE(out.pass) << out.detail;
}

TEST_P(Metamorphic, BlowupTailExponentMatchesBeta) {
  const RelationOutcome out = check_tail_exponent(draw_model(Seed(GetParam())));
  EXPECT_TRUE(out.pass) << out.detail;
}

TEST_P(Metamorphic, LevelDependentWithConstantServiceMatchesHomogeneous) {
  const RelationOutcome out =
      check_level_dependent_vs_homogeneous(draw_model(Seed(GetParam())));
  EXPECT_TRUE(out.pass) << out.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Battery, Metamorphic,
    ::testing::Range(0u, metamorphic_model_count(kDefaultModels)));

TEST(MetamorphicHarness, DrawIsDeterministicAndSeedSensitive) {
  const ModelDraw a = draw_model(42);
  const ModelDraw b = draw_model(42);
  const ModelDraw c = draw_model(43);
  EXPECT_EQ(a.spec(), b.spec());
  EXPECT_NE(a.spec(), c.spec());
}

TEST(MetamorphicHarness, SpecCarriesEveryParameter) {
  const ModelDraw d = draw_model(7);
  const std::string spec = d.spec();
  for (const char* field : {"seed=", "N=", "T=", "nu_p=", "delta=", "mttf=",
                            "mttr=", "alpha=", "theta=", "rho="}) {
    EXPECT_NE(spec.find(field), std::string::npos) << spec;
  }
}

}  // namespace
}  // namespace performa::verify
