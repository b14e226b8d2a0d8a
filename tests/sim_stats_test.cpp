#include "sim/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "linalg/errors.h"
#include "sim/random.h"
#include "test_util.h"

namespace performa::sim {
namespace {

TEST(SampleStats, HandComputed) {
  SampleStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-14);
  // Population variance is 4; sample variance 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(SampleStats, DegenerateCases) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.0);
}

TEST(SampleStats, LargeShiftNumericallyStable) {
  // Welford must not lose precision with a large offset.
  SampleStats s;
  const double offset = 1e12;
  for (double x : {1.0, 2.0, 3.0}) s.add(offset + x);
  EXPECT_NEAR(s.mean() - offset, 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0, 1e-3);
}

TEST(TimeWeightedStats, HandComputed) {
  TimeWeightedStats t(10);
  t.add(0, 2.0);
  t.add(3, 1.0);
  t.add(1, 1.0);
  EXPECT_NEAR(t.total_time(), 4.0, 1e-14);
  EXPECT_NEAR(t.mean(), (0 * 2 + 3 * 1 + 1 * 1) / 4.0, 1e-14);
  EXPECT_NEAR(t.pmf(0), 0.5, 1e-14);
  EXPECT_NEAR(t.pmf(3), 0.25, 1e-14);
  EXPECT_NEAR(t.tail(1), 0.5, 1e-14);
  EXPECT_NEAR(t.tail(4), 0.0, 1e-14);
}

TEST(TimeWeightedStats, CapPoolsOverflow) {
  TimeWeightedStats t(5);
  t.add(100, 1.0);  // above cap -> pooled at 5
  t.add(2, 1.0);
  EXPECT_NEAR(t.pmf(5), 0.5, 1e-14);
  EXPECT_NEAR(t.tail(5), 0.5, 1e-14);
  // The mean keeps the exact level, not the capped one.
  EXPECT_NEAR(t.mean(), 51.0, 1e-12);
}

TEST(TimeWeightedStats, ResetClears) {
  TimeWeightedStats t(5);
  t.add(1, 1.0);
  t.reset();
  EXPECT_EQ(t.total_time(), 0.0);
  EXPECT_THROW(t.mean(), InvalidArgument);
}

TEST(TimeWeightedStats, RejectsNegativeDuration) {
  TimeWeightedStats t(5);
  EXPECT_THROW(t.add(1, -0.5), InvalidArgument);
}

TEST(TQuantile, TableValues) {
  EXPECT_NEAR(t_quantile_95(1), 12.706, 1e-9);
  EXPECT_NEAR(t_quantile_95(9), 2.262, 1e-9);
  EXPECT_NEAR(t_quantile_95(30), 2.042, 1e-9);
  EXPECT_NEAR(t_quantile_95(1000), 1.96, 1e-9);
  EXPECT_EQ(t_quantile_95(0), 0.0);
}

TEST(ReplicationSummary, HandComputed) {
  const auto s = summarize_replications({1.0, 2.0, 3.0});
  EXPECT_EQ(s.replications, 3u);
  EXPECT_NEAR(s.mean, 2.0, 1e-14);
  EXPECT_NEAR(s.stddev, 1.0, 1e-12);
  // t(2, 97.5%) = 4.303; CI = 4.303 * 1/sqrt(3).
  EXPECT_NEAR(s.ci_halfwidth, 4.303 / std::sqrt(3.0), 1e-9);
}

TEST(ReplicationSummary, SingleValueNoCi) {
  const auto s = summarize_replications({5.0});
  EXPECT_EQ(s.mean, 5.0);
  EXPECT_EQ(s.ci_halfwidth, 0.0);
  EXPECT_THROW(summarize_replications({}), InvalidArgument);
}

TEST(RandomSamplers, ExponentialMean) {
  Rng rng(7);
  auto s = exponential_sampler(2.0);
  SampleStats acc;
  for (int i = 0; i < 100000; ++i) acc.add(s(rng));
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
  EXPECT_THROW(exponential_sampler(0.0), InvalidArgument);
}

TEST(RandomSamplers, Deterministic) {
  Rng rng(1);
  auto s = deterministic_sampler(3.5);
  EXPECT_EQ(s(rng), 3.5);
  EXPECT_THROW(deterministic_sampler(-1.0), InvalidArgument);
}

TEST(RandomSamplers, LognormalMoments) {
  Rng rng(3);
  auto s = lognormal_sampler(2.0, 5.3);
  SampleStats acc;
  for (int i = 0; i < 400000; ++i) acc.add(s(rng));
  EXPECT_NEAR(acc.mean(), 2.0, 0.05);
  EXPECT_NEAR(acc.variance() / (acc.mean() * acc.mean()), 5.3, 0.6);
  EXPECT_THROW(lognormal_sampler(-1.0, 1.0), InvalidArgument);
}

TEST(RandomSamplers, BoundedParetoRange) {
  Rng rng(5);
  auto s = bounded_pareto_sampler(1.4, 1.0, 100.0);
  for (int i = 0; i < 20000; ++i) {
    const double x = s(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
  EXPECT_THROW(bounded_pareto_sampler(1.4, 5.0, 1.0), InvalidArgument);
}

TEST(RandomSamplers, BoundedParetoTailExponent) {
  // Empirical CCDF slope on [2, 20] should be ~ -alpha.
  Rng rng(11);
  auto s = bounded_pareto_sampler(1.4, 1.0, 1000.0);
  const int n = 400000;
  int above2 = 0, above20 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = s(rng);
    if (x > 2.0) ++above2;
    if (x > 20.0) ++above20;
  }
  const double slope = std::log(static_cast<double>(above20) / above2) /
                       std::log(10.0);
  EXPECT_NEAR(slope, -1.4, 0.1);
}

TEST(RandomSamplers, MeSamplerMatchesDistribution) {
  Rng rng(13);
  const auto dist = medist::erlang_dist(3, 2.0);
  auto s = me_sampler(dist);
  SampleStats acc;
  for (int i = 0; i < 100000; ++i) acc.add(s(rng));
  EXPECT_NEAR(acc.mean(), 2.0, 0.03);
}

TEST(DeriveSeed, ProducesDistinctStreams) {
  const std::uint64_t a = derive_seed(42, 0);
  const std::uint64_t b = derive_seed(42, 1);
  const std::uint64_t c = derive_seed(43, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, derive_seed(42, 0));  // deterministic
}

TEST(NonFiniteGuards, SampleStatsRejectsNanAndInf) {
  SampleStats s;
  s.add(1.0);
  EXPECT_THROW(s.add(std::nan("")), NonFiniteError);
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()), NonFiniteError);
  // The accumulator stays unpoisoned after a rejected sample.
  s.add(3.0);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(NonFiniteGuards, TimeWeightedStatsRejectsNonFiniteDuration) {
  TimeWeightedStats t(8);
  t.add(1, 2.0);
  EXPECT_THROW(t.add(1, std::nan("")), NonFiniteError);
  EXPECT_THROW(t.add(2, std::numeric_limits<double>::infinity()),
               NonFiniteError);
  EXPECT_DOUBLE_EQ(t.total_time(), 2.0);
  EXPECT_DOUBLE_EQ(t.mean(), 1.0);
}

TEST(NonFiniteGuards, LogHistogramRejectsNan) {
  LogHistogram h;
  h.add(1.0);
  EXPECT_THROW(h.add(std::nan("")), NonFiniteError);
  EXPECT_EQ(h.count(), 1u);
}

TEST(NonFiniteGuards, SummarizePropagatesTypedError) {
  // A NaN replication estimate must surface as the typed error, not as a
  // silently-NaN mean.
  EXPECT_THROW(summarize_replications({1.0, std::nan(""), 2.0}),
               NonFiniteError);
}

}  // namespace
}  // namespace performa::sim
