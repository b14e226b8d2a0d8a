// Figure 9: the strategy comparison of Fig. 8 repeated with
// non-exponential (HYP-2, variance 5.3) task service times.
//
// Expected shape (paper): the ordering Discard <= Resume <= Restart holds,
// but the differences grow substantially -- a restarted high-variance task
// repeats a potentially enormous work requirement from scratch ([4] shows
// the completion time then becomes power-tailed). The blow-up behaviour
// remains visible for all three strategies.
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/cluster_model.h"
#include "core/mm1.h"
#include "medist/moment_fit.h"
#include "sim/cluster_sim.h"
#include "sim/random.h"

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

  // One supervised point per (rho, replication r), running the three
  // strategies on seed derive_seed(row_seed, r): common random numbers
  // across strategies (paired comparison), and columns bit-identical to
  // mean_queue_length_summary(row config, reps). The strategies run as
  // pool tasks.
  std::vector<runner::SweepPointSpec> points;
  std::vector<std::pair<double, std::vector<std::string>>> rows;
  // rho accumulates in 0.1 steps (the last row is 0.7999...): the seeds
  // and lambda_for_rho are taken from these exact values.
  for (double rho = 0.1; rho < 0.85; rho += 0.1) {
    const double lambda = model.lambda_for_rho(rho);
    const auto row_seed = 777 + static_cast<std::uint64_t>(rho * 1000);
    auto replication = [&params, &task_dist, lambda, cycles,
                        row_seed](std::size_t r) {
      static constexpr std::pair<const char*, sim::FailureStrategy>
          kStrategies[] = {{"discard", sim::FailureStrategy::kDiscard},
                           {"resume", sim::FailureStrategy::kResumeBack},
                           {"restart", sim::FailureStrategy::kRestartBack}};
      const auto values =
          bench::parallel_map(std::size(kStrategies), [&](std::size_t i) {
            sim::ClusterSimConfig cs;
            cs.delta = 0.0;
            cs.lambda = lambda;
            cs.up = sim::me_sampler(params.up);
            cs.down = sim::me_sampler(params.down);
            cs.task_work = sim::me_sampler(task_dist);
            cs.strategy = kStrategies[i].second;
            cs.cycles = cycles;
            cs.warmup_cycles = cycles / 10;
            cs.seed = sim::derive_seed(row_seed, r);
            return sim::simulate_cluster(cs).mean_queue_length;
          });
      runner::PointResult out;
      for (std::size_t i = 0; i < values.size(); ++i) {
        out.metrics.emplace_back(kStrategies[i].first, values[i]);
      }
      return out;
    };
    char label[32];
    std::snprintf(label, sizeof label, "rho=%.1f", rho);
    rows.emplace_back(
        rho, bench::add_replications(points, label, reps, replication));
  }

  runner::install_signal_handlers();
  const auto sweep = runner::run_sweep("fig9-nonexp-tasks", points,
                                       bench::sweep_options_from_env());
  const auto ok = bench::ok_points(sweep);

  std::printf("rho,discard_nql,resume_nql,restart_nql\n");
  for (const auto& [rho, ids] : rows) {
    const double mm1 = core::mm1::mean_queue_length(rho);
    std::printf("%.1f,%.4f,%.4f,%.4f\n", rho,
                bench::replication_summary(ok, ids, "discard").mean / mm1,
                bench::replication_summary(ok, ids, "resume").mean / mm1,
                bench::replication_summary(ok, ids, "restart").mean / mm1);
  }
  return bench::finish_sweep("fig9-nonexp-tasks", sweep);
}
