// Figure 9: the strategy comparison of Fig. 8 repeated with
// non-exponential (HYP-2, variance 5.3) task service times.
//
// Expected shape (paper): the ordering Discard <= Resume <= Restart holds,
// but the differences grow substantially -- a restarted high-variance task
// repeats a potentially enormous work requirement from scratch ([4] shows
// the completion time then becomes power-tailed). The blow-up behaviour
// remains visible for all three strategies.
#include <cstdio>

#include "bench_util.h"
#include "core/cluster_model.h"
#include "core/mm1.h"
#include "medist/moment_fit.h"
#include "sim/cluster_sim.h"

using namespace performa;

int main() {
  bench::banner("Figure 9",
                "failure-handling strategies, HYP-2 task times (var 5.3)",
                "N=2, nu_p=2, delta=0 (crash), UP=exp(90), DOWN=TPT(T=10, "
                "alpha=1.4, theta=0.2, mean=10), task work ~ HYP-2 with "
                "mean 1, variance 5.3");

  core::ClusterParams params;
  params.delta = 0.0;
  params.down = medist::make_tpt(medist::TptSpec{10, 1.4, 0.2, 10.0});
  const core::ClusterModel model(params);

  const auto task_dist = medist::hyperexp_from_mean_scv(1.0, 5.3);
  std::printf("# task work: HYP-2 p=(%.4f, %.4f), rates=(%.4f, %.4f)\n",
              task_dist.entry_vector()[0], task_dist.entry_vector()[1],
              task_dist.rate_matrix()(0, 0), task_dist.rate_matrix()(1, 1));

  const std::size_t cycles = bench::scaled(40000);
  const std::size_t reps = std::max<std::size_t>(
      5, static_cast<std::size_t>(5 * bench::scale_factor()));
  std::printf("# simulation: %zu cycles x %zu replications "
              "(paper: 2e5 x 10; PERFORMA_BENCH_SCALE=5 gives 2e5 x 25)\n",
              cycles, reps);
  std::printf("# note: under Restart, high-variance tasks can make the "
              "effective load exceed 1 (completion times become power-"
              "tailed, see Fiorini et al. 2006); very large values at "
              "high rho indicate that regime, not estimator noise\n");

  std::printf("rho,discard_nql,resume_nql,restart_nql\n");
  for (double rho = 0.1; rho < 0.85; rho += 0.1) {
    const double lambda = model.lambda_for_rho(rho);
    const double mm1 = core::mm1::mean_queue_length(rho);

    auto run = [&](sim::FailureStrategy s) {
      sim::ClusterSimConfig cs;
      cs.delta = 0.0;
      cs.lambda = lambda;
      cs.up = sim::me_sampler(params.up);
      cs.down = sim::me_sampler(params.down);
      cs.task_work = sim::me_sampler(task_dist);
      cs.strategy = s;
      cs.cycles = cycles;
      cs.warmup_cycles = cycles / 10;
      // Common random numbers across strategies (paired comparison).
      cs.seed = 777 + static_cast<std::uint64_t>(rho * 1000);
      return sim::mean_queue_length_summary(cs, reps).mean / mm1;
    };

    std::printf("%.1f,%.4f,%.4f,%.4f\n", rho,
                run(sim::FailureStrategy::kDiscard),
                run(sim::FailureStrategy::kResumeBack),
                run(sim::FailureStrategy::kRestartBack));
  }
  return 0;
}
