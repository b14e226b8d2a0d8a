#include "sim/cluster_sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/mm1.h"
#include "map/lumped_aggregate.h"
#include "medist/me_dist.h"
#include "qbd/solution.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "test_util.h"

namespace performa::sim {
namespace {

using performa::testing::ExpectClose;

// Baseline configuration: paper parameters with exponential repairs and a
// cycle budget small enough for fast unit tests.
ClusterSimConfig BaseConfig() {
  ClusterSimConfig cfg;
  cfg.n_servers = 2;
  cfg.nu_p = 2.0;
  cfg.delta = 0.2;
  cfg.lambda = 1.84;  // rho = 0.5 at nu_bar = 3.68
  cfg.up = exponential_sampler_mean(90.0);
  cfg.down = exponential_sampler_mean(10.0);
  cfg.task_work = exponential_sampler(1.0);
  cfg.cycles = 30000;
  cfg.warmup_cycles = 3000;
  cfg.seed = 42;
  return cfg;
}

TEST(ClusterSim, ReducesToMm2WithPerfectServers) {
  // Near-perfect availability and delta irrelevant: M/M/2 with mu = nu_p.
  ClusterSimConfig cfg = BaseConfig();
  cfg.up = exponential_sampler_mean(1e9);
  cfg.down = deterministic_sampler(1e-9);
  cfg.delta = 0.0;
  cfg.lambda = 2.4;  // rho = 0.6 on two servers of rate 2
  cfg.cycles = 10;   // cycles are useless as a clock here...
  cfg.warmup_cycles = 0;

  // ... so instead drive the run length through a huge up-time: with
  // MTTF=1e9 the first toggle practically never happens; use arrivals as
  // the budget by bounding cycles via a short up time on a third scale.
  // Simpler: shrink MTTF so cycles pass quickly but availability stays
  // ~ 1: MTTF=1e4, MTTR=1e-6.
  cfg.up = exponential_sampler_mean(1e4);
  cfg.down = deterministic_sampler(1e-6);
  cfg.cycles = 2000;
  cfg.warmup_cycles = 100;

  const auto res = simulate_cluster(cfg);
  // M/M/2 closed form at rho = 0.6: E[N] = 2 rho + rho/(1-rho) P_wait.
  const double rho = 0.6, a = 1.2;
  const double p0 = 1.0 / (1.0 + a + a * a / (2.0 * (1.0 - rho)));
  const double p_wait = a * a / (2.0 * (1.0 - rho)) * p0;
  const double expected = a + rho / (1.0 - rho) * p_wait;
  ExpectClose(res.mean_queue_length, expected, 0.06, "E[N] vs M/M/2");
}

TEST(ClusterSim, SingleServerPerfectIsMm1) {
  ClusterSimConfig cfg = BaseConfig();
  cfg.n_servers = 1;
  cfg.nu_p = 1.0;
  cfg.delta = 0.0;
  cfg.lambda = 0.7;
  cfg.up = exponential_sampler_mean(1e4);
  cfg.down = deterministic_sampler(1e-6);
  cfg.cycles = 3000;
  cfg.warmup_cycles = 200;
  const auto res = simulate_cluster(cfg);
  ExpectClose(res.mean_queue_length, core::mm1::mean_queue_length(0.7), 0.08,
              "E[N] vs M/M/1");
  // Little's law: E[T] = E[N]/lambda.
  ExpectClose(res.system_time.mean(), res.mean_queue_length / 0.7, 0.08,
              "Little's law");
}

TEST(ClusterSim, FlowBalanceAndCounters) {
  const auto res = simulate_cluster(BaseConfig());
  EXPECT_GT(res.arrivals, 0u);
  EXPECT_EQ(res.discarded, 0u);  // delta > 0: no crashes, nothing dropped
  // Completions track arrivals within stochastic noise.
  ExpectClose(static_cast<double>(res.completed),
              static_cast<double>(res.arrivals), 0.05, "flow balance");
  EXPECT_EQ(res.cycles, BaseConfig().cycles);
  EXPECT_GT(res.sim_time, 0.0);
}

TEST(ClusterSim, ArrivalRateRecovered) {
  const auto res = simulate_cluster(BaseConfig());
  ExpectClose(static_cast<double>(res.arrivals) / res.sim_time, 1.84, 0.03,
              "arrival rate");
}

TEST(ClusterSim, DeterministicGivenSeed) {
  const auto a = simulate_cluster(BaseConfig());
  const auto b = simulate_cluster(BaseConfig());
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.arrivals, b.arrivals);
  ClusterSimConfig other = BaseConfig();
  other.seed = 43;
  const auto c = simulate_cluster(other);
  EXPECT_NE(a.mean_queue_length, c.mean_queue_length);
}

TEST(ClusterSim, DiscardDropsTasksUnderCrashes) {
  ClusterSimConfig cfg = BaseConfig();
  cfg.delta = 0.0;
  cfg.strategy = FailureStrategy::kDiscard;
  cfg.lambda = 1.0;
  const auto res = simulate_cluster(cfg);
  EXPECT_GT(res.discarded, 0u);
  // Dropped + completed ~ arrivals.
  ExpectClose(static_cast<double>(res.completed + res.discarded),
              static_cast<double>(res.arrivals), 0.05, "task conservation");
}

TEST(ClusterSim, StrategyOrderingUnderCrashes) {
  // Paper Sec. 2/4: Discard <= Resume <= Restart in mean queue length.
  ClusterSimConfig cfg = BaseConfig();
  cfg.delta = 0.0;
  cfg.lambda = 1.2;
  cfg.cycles = 40000;
  cfg.warmup_cycles = 4000;

  auto run = [&](FailureStrategy s) {
    ClusterSimConfig c = cfg;
    c.strategy = s;
    return mean_queue_length_summary(c, 5).mean;
  };
  const double discard = run(FailureStrategy::kDiscard);
  const double resume = run(FailureStrategy::kResumeBack);
  const double restart = run(FailureStrategy::kRestartBack);
  EXPECT_LE(discard, resume * 1.05);
  EXPECT_LE(resume, restart * 1.05);
}

TEST(ClusterSim, DegradedModeSlowsServiceDown) {
  // Lower delta -> strictly worse mean queue length, all else equal.
  ClusterSimConfig cfg = BaseConfig();
  cfg.lambda = 1.5;
  ClusterSimConfig degraded = cfg;
  degraded.delta = 0.05;
  ClusterSimConfig healthy = cfg;
  healthy.delta = 0.8;
  const auto bad = simulate_cluster(degraded);
  const auto good = simulate_cluster(healthy);
  EXPECT_GT(bad.mean_queue_length, good.mean_queue_length);
}

TEST(ClusterSim, SystemTimeRecordedForCompletedTasks) {
  const auto res = simulate_cluster(BaseConfig());
  EXPECT_EQ(res.system_time.count(), res.completed);
  EXPECT_GT(res.system_time.mean(), 0.0);
  // A task needs at least its own service time: mean system time above
  // mean pure-service time 1/nu_p = 0.5 (for the UP case).
  EXPECT_GT(res.system_time.mean(), 0.4);
}

TEST(ClusterSim, ReplicationPlumbing) {
  ClusterSimConfig cfg = BaseConfig();
  cfg.cycles = 2000;
  cfg.warmup_cycles = 100;
  const auto results = replicate_cluster(cfg, 4);
  ASSERT_EQ(results.size(), 4u);
  // Replications use derived seeds: all runs differ.
  EXPECT_NE(results[0].mean_queue_length, results[1].mean_queue_length);
  const auto summary = mean_queue_length_summary(cfg, 4);
  EXPECT_GT(summary.ci_halfwidth, 0.0);
  EXPECT_EQ(summary.replications, 4u);
}

// The split the fig8/fig9 harnesses rely on: one run per replication r on
// seed derive_seed(seed, r), summarized in replication order, reproduces
// mean_queue_length_summary bit for bit.
TEST(ClusterSim, PerReplicationRunsSummarizeLikeTheSummary) {
  ClusterSimConfig cfg = BaseConfig();
  cfg.cycles = 2000;
  cfg.warmup_cycles = 100;
  std::vector<double> means;
  for (std::uint64_t r = 0; r < 5; ++r) {
    ClusterSimConfig run = cfg;
    run.seed = derive_seed(cfg.seed, r);
    means.push_back(simulate_cluster(run).mean_queue_length);
  }
  const auto split = summarize_replications(means);
  const auto whole = mean_queue_length_summary(cfg, 5);
  EXPECT_EQ(split.mean, whole.mean);
  EXPECT_EQ(split.ci_halfwidth, whole.ci_halfwidth);
  EXPECT_GT(whole.ci_halfwidth, 0.0);
}

TEST(ClusterSim, Validation) {
  ClusterSimConfig cfg = BaseConfig();
  cfg.n_servers = 0;
  EXPECT_THROW(simulate_cluster(cfg), InvalidArgument);
  cfg = BaseConfig();
  cfg.delta = 1.5;
  EXPECT_THROW(simulate_cluster(cfg), InvalidArgument);
  cfg = BaseConfig();
  cfg.lambda = 0.0;
  EXPECT_THROW(simulate_cluster(cfg), InvalidArgument);
  cfg = BaseConfig();
  cfg.cycles = 0;
  EXPECT_THROW(simulate_cluster(cfg), InvalidArgument);
  EXPECT_THROW(replicate_cluster(BaseConfig(), 0), InvalidArgument);
}

TEST(ClusterSim, RenewalArrivalsSmoothTheQueue) {
  // Deterministic interarrivals (SCV 0) vs Poisson at the same rate:
  // strictly shorter queue.
  ClusterSimConfig poisson = BaseConfig();
  ClusterSimConfig det = BaseConfig();
  det.interarrival = deterministic_sampler(1.0 / det.lambda);
  const auto a = simulate_cluster(poisson);
  const auto b = simulate_cluster(det);
  EXPECT_LT(b.mean_queue_length, a.mean_queue_length);
  // Arrival rate preserved.
  EXPECT_NEAR(static_cast<double>(b.arrivals) / b.sim_time, det.lambda,
              0.05);
}

TEST(ClusterSim, ErlangArrivalsMatchMapAnalyticModel) {
  // Cross-validation of the MAP-arrivals analytic path: Erlang-2 renewal
  // arrivals into the (load-independent-comparable) cluster. At high rho
  // the multiprocessor sim approaches the ME/MMPP/1 QBD solution.
  ClusterSimConfig cfg = BaseConfig();
  cfg.lambda = 0.8 * 3.68;
  cfg.interarrival = me_sampler(medist::erlang_dist(2, 1.0 / cfg.lambda));
  cfg.cycles = 60000;
  cfg.warmup_cycles = 6000;
  const auto summary = mean_queue_length_summary(cfg, 5);

  const map::ServerModel server(medist::exponential_from_mean(90.0),
                                medist::exponential_from_mean(10.0), 2.0,
                                0.2);
  const map::LumpedAggregate agg(server, 2);
  const auto arrivals =
      map::renewal_map(medist::erlang_dist(2, 1.0 / cfg.lambda));
  const qbd::QbdSolution exact(qbd::map_mmpp_1(arrivals, agg.mmpp()));
  performa::testing::ExpectClose(summary.mean, exact.mean_queue_length(),
                                 0.12, "E[Q] Erlang arrivals");
}

TEST(ClusterSim, StrategyNames) {
  EXPECT_STREQ(to_string(FailureStrategy::kDiscard), "Discard");
  EXPECT_STREQ(to_string(FailureStrategy::kRestartFront), "Restart(front)");
  EXPECT_STREQ(to_string(FailureStrategy::kResumeBack), "Resume(back)");
}

// Property: stability and level accounting across deltas and loads.
struct SimCase {
  double delta;
  double rho;
};

class ClusterSimProperty : public ::testing::TestWithParam<SimCase> {};

TEST_P(ClusterSimProperty, PmfNormalizedAndMeanConsistent) {
  const auto [delta, rho] = GetParam();
  ClusterSimConfig cfg = BaseConfig();
  cfg.delta = delta;
  const double nu_bar = 2 * 2.0 * (0.9 + delta * 0.1);
  cfg.lambda = rho * nu_bar;
  cfg.cycles = 8000;
  cfg.warmup_cycles = 800;
  const auto res = simulate_cluster(cfg);

  // pmf sums to 1.
  double total = 0.0;
  for (std::size_t k = 0; k <= res.queue_stats.histogram_cap(); ++k) {
    total += res.queue_stats.pmf(k);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // tail(0) = 1 and tail is monotone.
  EXPECT_NEAR(res.queue_stats.tail(0), 1.0, 1e-12);
  EXPECT_GE(res.queue_stats.tail(1), res.queue_stats.tail(2));

  // Simulated mean is positive and finite.
  EXPECT_GT(res.mean_queue_length, 0.0);
  EXPECT_LT(res.mean_queue_length, 1e6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClusterSimProperty,
                         ::testing::Values(SimCase{0.0, 0.3}, SimCase{0.0, 0.6},
                                           SimCase{0.2, 0.3}, SimCase{0.2, 0.6},
                                           SimCase{0.5, 0.5},
                                           SimCase{1.0, 0.7}));

// --- FailureStrategy edge cases -----------------------------------------

TEST(ClusterSimEdge, CrashWithZeroLengthRepairTerminates) {
  // Crash faults (delta = 0) whose repairs take exactly zero time: the
  // server bounces back in the same instant, but the interrupted task must
  // still go through the strategy's handling. The run must terminate with
  // the full cycle count for every strategy.
  for (const FailureStrategy s :
       {FailureStrategy::kDiscard, FailureStrategy::kRestartFront,
        FailureStrategy::kRestartBack, FailureStrategy::kResumeFront,
        FailureStrategy::kResumeBack}) {
    ClusterSimConfig cfg = BaseConfig();
    cfg.delta = 0.0;
    cfg.strategy = s;
    cfg.cycles = 2000;
    cfg.warmup_cycles = 200;
    cfg.faults.zero_length_repairs = true;
    const auto res = simulate_cluster(cfg);
    EXPECT_FALSE(res.degraded) << to_string(s);
    EXPECT_EQ(res.cycles, cfg.cycles) << to_string(s);
    EXPECT_GT(res.completed, 0u) << to_string(s);
  }
}

TEST(ClusterSimEdge, SimultaneousCrashAndArrivalDeterministic) {
  // Deterministic interarrivals put an arrival at every integer time; a
  // common-mode crash scheduled at t = 5.0 collides with the t = 5.0
  // arrival exactly. The tie must resolve in a fixed order (arrival
  // first, crash immediately after at the same timestamp) so reruns are
  // bit-identical.
  ClusterSimConfig cfg = BaseConfig();
  cfg.delta = 0.0;
  cfg.strategy = FailureStrategy::kResumeBack;
  cfg.interarrival = deterministic_sampler(1.0);
  cfg.cycles = 500;
  cfg.warmup_cycles = 0;
  cfg.faults.crashes.push_back({5.0, 2});

  const auto a = simulate_cluster(cfg);
  const auto b = simulate_cluster(cfg);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.injected_crashes, 2u);
  EXPECT_DOUBLE_EQ(a.mean_queue_length, b.mean_queue_length);
}

TEST(ClusterSimEdge, ResumePreservesWorkAcrossRepeatedCrashes) {
  // A 10-unit task on a server that crashes every ~3 time units: Resume
  // accumulates service across interruptions, so every completed task has
  // received exactly its work requirement; Restart loses the progress and
  // only finishes a task when a single up-period covers all 10 units
  // (probability e^{-10/3}), so it completes far fewer tasks.
  ClusterSimConfig cfg;
  cfg.n_servers = 1;
  cfg.nu_p = 1.0;
  cfg.delta = 0.0;
  cfg.lambda = 0.02;
  cfg.up = exponential_sampler_mean(3.0);
  cfg.down = exponential_sampler_mean(1.0);
  cfg.task_work = deterministic_sampler(10.0);
  cfg.strategy = FailureStrategy::kResumeBack;
  cfg.cycles = 4000;
  cfg.warmup_cycles = 400;
  cfg.seed = 5;

  const auto resume = simulate_cluster(cfg);
  ASSERT_GT(resume.completed, 0u);
  // Work conservation: a completed 10-unit task spent >= 10 time units in
  // the system (speed is 1), no matter how many crashes interrupted it.
  EXPECT_GE(resume.system_time.min(), 10.0 - 1e-9);

  ClusterSimConfig restart_cfg = cfg;
  restart_cfg.strategy = FailureStrategy::kRestartBack;
  const auto restart = simulate_cluster(restart_cfg);
  EXPECT_GT(resume.completed, restart.completed);
}

}  // namespace
}  // namespace performa::sim
