// ClusterSim with the shared repair facility (repair_crews / spares):
// random (c, s) configurations must agree with the level-dependent
// analytic model within simulator confidence intervals, fault injection
// must pile onto the finite repair queue.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "map/repair_facility.h"
#include "medist/tpt.h"
#include "qbd/level_dependent.h"
#include "sim/cluster_sim.h"
#include "sim/random.h"
#include "test_util.h"

namespace performa::sim {
namespace {

using medist::exponential_from_mean;
using medist::make_tpt;
using medist::MeDistribution;
using medist::TptSpec;

// One random facility configuration drawn from a per-case deterministic
// stream: cluster size, crew count, spares, repair-time variance and
// utilization all vary, so the sweep covers the (c, s) grid while every
// run reproduces bit-for-bit.
struct RandomFacilityCase {
  unsigned n = 0;
  unsigned crews = 0;
  unsigned spares = 0;
  double nu_p = 0.0;
  double delta = 0.0;
  double rho = 0.0;
  MeDistribution up;
  MeDistribution down;

  explicit RandomFacilityCase(unsigned seed)
      : up(exponential_from_mean(1.0)), down(exponential_from_mean(1.0)) {
    std::mt19937_64 rng(seed);
    auto uni = [&rng](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    n = static_cast<unsigned>(2 + rng() % 2);
    crews = static_cast<unsigned>(1 + rng() % 2);
    spares = static_cast<unsigned>(rng() % 3);
    const auto t_phases = static_cast<unsigned>(1 + rng() % 3);
    nu_p = uni(1.0, 3.0);
    delta = uni(0.1, 0.5);
    const double mttf = uni(30.0, 120.0);
    const double mttr = uni(2.0, 10.0);
    rho = uni(0.2, 0.55);
    up = exponential_from_mean(mttf);
    down = t_phases <= 1
               ? exponential_from_mean(mttr)
               : make_tpt(TptSpec{t_phases, uni(1.2, 1.8), 0.2, mttr});
  }
};

ClusterSimConfig FacilityConfig(const RandomFacilityCase& rc, double lambda) {
  ClusterSimConfig cfg;
  cfg.n_servers = rc.n;
  cfg.nu_p = rc.nu_p;
  cfg.delta = rc.delta;
  cfg.lambda = lambda;
  cfg.up = me_sampler(rc.up);
  cfg.down = me_sampler(rc.down);
  cfg.task_work = exponential_sampler(1.0);
  cfg.repair_crews = rc.crews;
  cfg.spares = rc.spares;
  cfg.cycles = 8000;
  cfg.warmup_cycles = 1000;
  return cfg;
}

class FacilityMatch : public ::testing::TestWithParam<unsigned> {};

TEST_P(FacilityMatch, SimAgreesWithLevelDependentAnalytic) {
  const RandomFacilityCase rc(GetParam());
  const map::RepairFacility fac(rc.up, rc.down, rc.nu_p, rc.delta, rc.n,
                                rc.crews, rc.spares);
  const double lambda = rc.rho * fac.mmpp().mean_rate();

  const qbd::LevelDependentSolution exact(
      qbd::repair_facility_level_dependent_blocks(fac, lambda));
  ASSERT_EQ(exact.trust().verdict, qbd::TrustVerdict::kCertified)
      << exact.trust().summary();
  const double analytic = exact.mean_queue_length();

  std::vector<double> estimates;
  for (std::size_t rep = 0; rep < 4; ++rep) {
    ClusterSimConfig cfg = FacilityConfig(rc, lambda);
    cfg.seed = derive_seed(3000 + GetParam(), rep);
    estimates.push_back(simulate_cluster(cfg).mean_queue_length);
  }
  const ReplicationSummary summary = summarize_replications(estimates);

  // 2 CI half-widths for sampling noise plus a relative allowance for the
  // task-migration idealization of the analytic dispatcher (the same
  // modeling gap the level-dependent integration test accepts).
  const double slack = 2.0 * summary.ci_halfwidth + 0.10 * (1.0 + analytic);
  EXPECT_LE(std::abs(analytic - summary.mean), slack)
      << "analytic=" << analytic << " sim=" << summary.mean
      << " ci=" << summary.ci_halfwidth << " n=" << rc.n << " c=" << rc.crews
      << " s=" << rc.spares << " rho=" << rc.rho;
}

INSTANTIATE_TEST_SUITE_P(TwelveRandomConfigs, FacilityMatch,
                         ::testing::Range(0u, 12u));

ClusterSimConfig BaseFacility() {
  ClusterSimConfig cfg;
  cfg.n_servers = 3;
  cfg.nu_p = 2.0;
  cfg.delta = 0.2;
  cfg.lambda = 1.5;
  cfg.up = exponential_sampler_mean(60.0);
  cfg.down = exponential_sampler_mean(8.0);
  cfg.repair_crews = 1;
  cfg.spares = 1;
  cfg.cycles = 3000;
  cfg.warmup_cycles = 300;
  cfg.seed = 11;
  return cfg;
}

TEST(SimRepairFacility, CountersTrackFacilityActivity) {
  const auto res = simulate_cluster(BaseFacility());
  EXPECT_GT(res.repairs_completed, 0u);
  EXPECT_GT(res.spare_swaps, 0u);
  EXPECT_EQ(res.cycles, 3000u);  // cycles count repair completions
}

TEST(SimRepairFacility, SerialRepairWorseThanIndependentAtHighVariance) {
  // TPT repairs (T = 5) through one crew vs. one crew per server: the
  // cross-validation half of the ext9 headline effect.
  const MeDistribution down = make_tpt(TptSpec{5, 1.4, 0.2, 10.0});
  ClusterSimConfig cfg = BaseFacility();
  cfg.n_servers = 2;
  cfg.lambda = 1.6;
  cfg.up = exponential_sampler_mean(90.0);
  cfg.down = me_sampler(down);
  cfg.spares = 0;
  cfg.cycles = 8000;
  cfg.warmup_cycles = 800;

  ClusterSimConfig serial = cfg;
  serial.repair_crews = 1;
  ClusterSimConfig parallel = cfg;
  parallel.repair_crews = 2;

  const ReplicationSummary slow = mean_queue_length_summary(serial, 5);
  const ReplicationSummary fast = mean_queue_length_summary(parallel, 5);
  EXPECT_GT(slow.mean - slow.ci_halfwidth, fast.mean - fast.ci_halfwidth)
      << "serial=" << slow.mean << "+-" << slow.ci_halfwidth
      << " parallel=" << fast.mean << "+-" << fast.ci_halfwidth;
}

TEST(SimRepairFacility, CommonModeCrashPilesOntoRepairQueue) {
  // A 3-server common-mode crash against a single crew: two units must
  // queue for repair, which the backlog counter records.
  ClusterSimConfig cfg = BaseFacility();
  cfg.spares = 0;
  cfg.delta = 0.2;
  cfg.up = exponential_sampler_mean(1e5);  // renewal failures negligible
  cfg.cycles = 3;                          // the 3 injected repairs
  cfg.warmup_cycles = 0;
  cfg.faults.crashes.push_back({50.0, 3});
  const auto res = simulate_cluster(cfg);
  EXPECT_EQ(res.injected_crashes, 3u);
  EXPECT_GE(res.max_repair_backlog, 2u);
  EXPECT_EQ(res.repairs_completed, 3u);
}

TEST(SimRepairFacility, RepairPreemptionAppliesToFacilityRepairs) {
  ClusterSimConfig cfg = BaseFacility();
  cfg.faults.repair_preemption = 0.4;
  const auto res = simulate_cluster(cfg);
  EXPECT_GT(res.repair_preemptions, 0u);
}

TEST(SimRepairFacility, ValidatesFacilityConfig) {
  ClusterSimConfig cfg = BaseFacility();
  cfg.repair_crews = 0;
  cfg.spares = 1;  // spares require a facility
  EXPECT_THROW(simulate_cluster(cfg), InvalidArgument);
}

}  // namespace
}  // namespace performa::sim
