// Level-dependent QBD solves over the shared repair facility: the c >= N
// homogeneous path must reproduce the paper's independent-repair answers
// bit-for-bit, contention configurations must come back trust-certified,
// and the economics ordering (crews and spares buy queue length and tail
// mass) must hold.
#include "qbd/level_dependent.h"

#include <gtest/gtest.h>

#include "medist/tpt.h"
#include "test_util.h"

namespace performa::qbd {
namespace {

using medist::exponential_from_mean;
using medist::make_tpt;
using medist::MeDistribution;
using medist::TptSpec;

MeDistribution PaperUp() { return exponential_from_mean(90.0); }

MeDistribution PaperDown(unsigned t_phases) {
  if (t_phases <= 1) return exponential_from_mean(10.0);
  return make_tpt(TptSpec{t_phases, 1.4, 0.2, 10.0});
}

map::RepairFacility Facility(unsigned n, unsigned crews, unsigned spares,
                             unsigned t_phases) {
  return map::RepairFacility(PaperUp(), PaperDown(t_phases), 2.0, 0.2, n,
                             crews, spares);
}

TEST(QbdRepairFacility, HomogeneousPathReproducesIndependentRepairBitForBit) {
  // c >= N, s = 0: the facility process delegates to LumpedAggregate, so
  // the level-dependent solve must agree with the existing
  // independent-repair construction to the last bit, not just to
  // tolerance.
  const map::RepairFacility fac = Facility(2, 2, 0, 3);
  const map::LumpedAggregate agg(
      map::ServerModel(PaperUp(), PaperDown(3), 2.0, 0.2), 2);
  const double lambda = 0.5 * agg.mmpp().mean_rate();

  const LevelDependentSolution via_facility(
      repair_facility_level_dependent_blocks(fac, lambda));
  const LevelDependentSolution independent(
      cluster_level_dependent_blocks(agg, 2.0, 0.2, lambda));

  EXPECT_DOUBLE_EQ(via_facility.mean_queue_length(),
                   independent.mean_queue_length());
  EXPECT_DOUBLE_EQ(via_facility.probability_empty(),
                   independent.probability_empty());
  for (std::size_t k = 0; k <= 10; ++k) {
    EXPECT_DOUBLE_EQ(via_facility.pmf(k), independent.pmf(k)) << "k=" << k;
  }
  EXPECT_DOUBLE_EQ(via_facility.tail(4), independent.tail(4));
  EXPECT_TRUE(via_facility.trust().verified);
  EXPECT_EQ(via_facility.trust().verdict, TrustVerdict::kCertified)
      << via_facility.trust().summary();
}

TEST(QbdRepairFacility, ContentionSolveIsTrustCertified) {
  const map::RepairFacility fac = Facility(2, 1, 1, 5);
  const double lambda = 0.6 * fac.mmpp().mean_rate();
  const LevelDependentSolution sol(
      repair_facility_level_dependent_blocks(fac, lambda));
  EXPECT_TRUE(sol.trust().verified);
  EXPECT_EQ(sol.trust().verdict, TrustVerdict::kCertified)
      << sol.trust().summary();
  EXPECT_TRUE(sol.report().converged);
  ASSERT_EQ(sol.trust().checks.size(), 6u);
}

TEST(QbdRepairFacility, SerialRepairMateriallyWorseAtHighVariance) {
  // One crew vs. unconstrained repairs under TPT (T = 5) repair times at
  // the same arrival rate: contention must show up as a materially longer
  // queue and heavier tail, the ext9 headline effect.
  const map::RepairFacility serial = Facility(2, 1, 0, 5);
  const map::RepairFacility parallel = Facility(2, 2, 0, 5);
  const double lambda = 0.6 * serial.mmpp().mean_rate();  // stable for both

  const LevelDependentSolution slow(
      repair_facility_level_dependent_blocks(serial, lambda));
  const LevelDependentSolution fast(
      repair_facility_level_dependent_blocks(parallel, lambda));

  EXPECT_GT(slow.mean_queue_length(), 1.05 * fast.mean_queue_length())
      << "serial E[Q]=" << slow.mean_queue_length()
      << " parallel E[Q]=" << fast.mean_queue_length();
  EXPECT_GT(slow.tail(10), fast.tail(10));
}

TEST(QbdRepairFacility, SparesShortenTheQueue) {
  const map::RepairFacility bare = Facility(2, 1, 0, 5);
  const map::RepairFacility spared = Facility(2, 1, 2, 5);
  const double lambda = 0.6 * bare.mmpp().mean_rate();
  const LevelDependentSolution without(
      repair_facility_level_dependent_blocks(bare, lambda));
  const LevelDependentSolution with(
      repair_facility_level_dependent_blocks(spared, lambda));
  EXPECT_LE(with.mean_queue_length(), without.mean_queue_length() + 1e-9);
  EXPECT_LE(with.tail(10), without.tail(10) + 1e-12);
}

TEST(QbdRepairFacility, TopLevelServiceMatchesFacilityRates) {
  const map::RepairFacility fac = Facility(3, 1, 1, 2);
  const auto blocks = repair_facility_level_dependent_blocks(fac, 1.0);
  ASSERT_EQ(blocks.service.size(), 3u);
  ASSERT_EQ(blocks.phase_dim(), fac.state_count());
  for (std::size_t s = 0; s < fac.state_count(); ++s) {
    EXPECT_DOUBLE_EQ(blocks.service.back()(s, s), fac.mmpp().rates()[s]) << s;
  }
  // Rates grow weakly with the level in every phase.
  for (std::size_t k = 1; k < blocks.service.size(); ++k) {
    for (std::size_t s = 0; s < blocks.phase_dim(); ++s) {
      EXPECT_GE(blocks.service[k](s, s), blocks.service[k - 1](s, s) - 1e-12);
    }
  }
}

TEST(QbdRepairFacility, PmfNormalizesUnderContention) {
  const map::RepairFacility fac = Facility(2, 1, 1, 3);
  const LevelDependentSolution sol(
      repair_facility_level_dependent_blocks(fac, 0.5 * fac.mmpp().mean_rate()));
  double total = 0.0;
  for (std::size_t k = 0; k < 200; ++k) total += sol.pmf(k);
  total += sol.tail(200);
  EXPECT_NEAR(total, 1.0, 1e-8);
  EXPECT_NEAR(sol.tail(0), 1.0, 1e-10);
}

TEST(QbdRepairFacility, BoundaryAccessorsExposeSolution) {
  const map::RepairFacility fac = Facility(2, 1, 0, 2);
  const LevelDependentSolution sol(
      repair_facility_level_dependent_blocks(fac, 0.4 * fac.mmpp().mean_rate()));
  EXPECT_EQ(sol.boundary_levels(), 2u);
  EXPECT_EQ(sol.pi(0).size(), fac.state_count());
  EXPECT_NEAR(linalg::sum(sol.pi(0)), sol.probability_empty(), 1e-15);
  EXPECT_EQ(sol.r().rows(), fac.state_count());
  EXPECT_THROW(sol.pi(3), InvalidArgument);
}

}  // namespace
}  // namespace performa::qbd
