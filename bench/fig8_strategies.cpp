// Figure 8: failure-handling strategies under crash faults (delta = 0)
// with exponential task times -- Discard vs Resume vs Restart simulations
// against the analytic M/MMPP/1 computation, with a 95% CI for Discard.
//
// Expected shape (paper): the three strategies behave almost identically
// for exponential task times, ordered Discard <= Resume <= Restart; the
// analytic curve (which models Resume semantics exactly, by memorylessness)
// tracks them.
//
// An extra section reproduces the paper's closing remark of Sec. 4: for
// Resume and Restart, back-of-queue placement beats front-of-queue.
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/cluster_model.h"
#include "core/mm1.h"
#include "sim/cluster_sim.h"
#include "sim/random.h"

using namespace performa;

namespace {

sim::ClusterSimConfig BaseSim(const core::ClusterParams& params,
                              double lambda, std::size_t cycles) {
  sim::ClusterSimConfig cs;
  cs.n_servers = params.n_servers;
  cs.nu_p = params.nu_p;
  cs.delta = 0.0;
  cs.lambda = lambda;
  cs.up = sim::me_sampler(params.up);
  cs.down = sim::me_sampler(params.down);
  cs.cycles = cycles;
  cs.warmup_cycles = cycles / 10;
  return cs;
}

}  // namespace

int main() {
  bench::banner("Figure 8",
                "failure-handling strategies, crash faults, exp tasks",
                "N=2, nu_p=2, delta=0 (crash), UP=exp(90), DOWN=TPT(T=10, "
                "alpha=1.4, theta=0.2, mean=10)");

  core::ClusterParams params;
  params.delta = 0.0;
  params.down = medist::make_tpt(medist::TptSpec{10, 1.4, 0.2, 10.0});
  const core::ClusterModel model(params);

  const std::size_t cycles = bench::scaled(40000);
  const std::size_t reps = std::max<std::size_t>(
      5, static_cast<std::size_t>(5 * bench::scale_factor()));
  std::printf("# nu_bar = %.2f; simulation: %zu cycles x %zu replications "
              "(paper: 2e5 x 10; PERFORMA_BENCH_SCALE=5 gives 2e5 x 25)\n",
              model.mean_service_rate(), cycles, reps);

  // One supervised point per (rho, replication r). Each point runs every
  // strategy of its row on seed derive_seed(row_seed, r), the seed
  // replicate_cluster gives replication r: common random numbers across
  // strategies (a paired comparison cancels the enormous repair-time
  // sampling noise), and the columns summarize to exactly what
  // mean_queue_length_summary(row config, reps) returns. The r = 0 point
  // of each rho also carries the analytic solve. The analytic solve and
  // the strategies' simulations run side by side as pool tasks.
  using Strategies = std::vector<std::pair<const char*, sim::FailureStrategy>>;
  std::vector<runner::SweepPointSpec> points;
  auto add_row = [&](const std::string& label, double rho,
                     std::uint64_t row_seed, Strategies strategies,
                     bool analytic) {
    const double lambda = model.lambda_for_rho(rho);
    return bench::add_replications(
        points, label, reps,
        [&model, &params, lambda, cycles, row_seed, strategies,
         analytic](std::size_t r) {
          const std::size_t first = analytic && r == 0 ? 1 : 0;
          const auto values = bench::parallel_map(
              first + strategies.size(), [&](std::size_t i) {
                if (i < first) return model.solve(lambda).mean_queue_length();
                auto cs = BaseSim(params, lambda, cycles);
                cs.strategy = strategies[i - first].second;
                cs.seed = sim::derive_seed(row_seed, r);
                return sim::simulate_cluster(cs).mean_queue_length;
              });
          runner::PointResult out;
          if (first == 1) out.metrics.emplace_back("analytic", values[0]);
          for (std::size_t i = 0; i < strategies.size(); ++i) {
            out.metrics.emplace_back(strategies[i].first, values[first + i]);
          }
          return out;
        });
  };

  std::vector<std::pair<double, std::vector<std::string>>> rows;
  // rho accumulates in 0.1 steps (the last row is 0.7999...): the seeds
  // and lambda_for_rho are taken from these exact values.
  for (double rho = 0.1; rho < 0.85; rho += 0.1) {
    char label[32];
    std::snprintf(label, sizeof label, "rho=%.1f", rho);
    rows.emplace_back(
        rho, add_row(label, rho, 1234 + static_cast<std::uint64_t>(rho * 1000),
                     {{"discard", sim::FailureStrategy::kDiscard},
                      {"resume", sim::FailureStrategy::kResumeBack},
                      {"restart", sim::FailureStrategy::kRestartBack}},
                     true));
  }
  // Placement study (paper Sec. 4, closing remark): common random numbers
  // across placements.
  const double placement_rho = 0.6;
  const auto placement =
      add_row("placement", placement_rho, 4321,
              {{"resume_front", sim::FailureStrategy::kResumeFront},
               {"resume_back", sim::FailureStrategy::kResumeBack},
               {"restart_front", sim::FailureStrategy::kRestartFront},
               {"restart_back", sim::FailureStrategy::kRestartBack}},
              false);

  runner::install_signal_handlers();
  const auto sweep = runner::run_sweep("fig8-strategies", points,
                                       bench::sweep_options_from_env());
  const auto ok = bench::ok_points(sweep);

  std::printf(
      "rho,analytic_nql,discard_nql,discard_ci,resume_nql,restart_nql\n");
  for (const auto& [rho, ids] : rows) {
    const double mm1 = core::mm1::mean_queue_length(rho);
    const auto first = ok.find(ids.front());
    const double analytic =
        first == ok.end() ? std::numeric_limits<double>::quiet_NaN()
                          : first->second->metric("analytic") / mm1;
    const auto discard = bench::replication_summary(ok, ids, "discard");
    const auto resume = bench::replication_summary(ok, ids, "resume");
    const auto restart = bench::replication_summary(ok, ids, "restart");
    std::printf("%.1f,%.4f,%.4f,%.4f,%.4f,%.4f\n", rho, analytic,
                discard.mean / mm1, discard.ci_halfwidth / mm1,
                resume.mean / mm1, restart.mean / mm1);
  }

  std::printf("\n# placement study at rho = 0.6: back-of-queue insertion "
              "should not exceed front-of-queue in mean queue length\n");
  std::printf("strategy,front_nql,back_nql\n");
  const double mm1 = core::mm1::mean_queue_length(placement_rho);
  for (auto [name, front, back] :
       {std::tuple{"Resume", "resume_front", "resume_back"},
        std::tuple{"Restart", "restart_front", "restart_back"}}) {
    std::printf("%s,%.4f,%.4f\n", name,
                bench::replication_summary(ok, placement, front).mean / mm1,
                bench::replication_summary(ok, placement, back).mean / mm1);
  }
  return bench::finish_sweep("fig8-strategies", sweep);
}
