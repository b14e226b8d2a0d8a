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
#include <vector>

#include "bench_util.h"
#include "core/cluster_model.h"
#include "core/mm1.h"
#include "sim/cluster_sim.h"

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

  std::printf(
      "rho,analytic_nql,discard_nql,discard_ci,resume_nql,restart_nql\n");
  for (double rho = 0.1; rho < 0.85; rho += 0.1) {
    const double lambda = model.lambda_for_rho(rho);
    const double mm1 = core::mm1::mean_queue_length(rho);
    const double analytic = model.solve(lambda).mean_queue_length() / mm1;

    auto run = [&](sim::FailureStrategy s) {
      auto cs = BaseSim(params, lambda, cycles);
      cs.strategy = s;
      // Common random numbers across strategies: paired comparison
      // cancels the enormous repair-time sampling noise.
      cs.seed = 1234 + static_cast<std::uint64_t>(rho * 1000);
      return sim::mean_queue_length_summary(cs, reps);
    };
    const auto discard = run(sim::FailureStrategy::kDiscard);
    const auto resume = run(sim::FailureStrategy::kResumeBack);
    const auto restart = run(sim::FailureStrategy::kRestartBack);

    std::printf("%.1f,%.4f,%.4f,%.4f,%.4f,%.4f\n", rho, analytic,
                discard.mean / mm1, discard.ci_halfwidth / mm1,
                resume.mean / mm1, restart.mean / mm1);
  }

  // Placement study (paper Sec. 4, closing remark).
  std::printf("\n# placement study at rho = 0.6: back-of-queue insertion "
              "should not exceed front-of-queue in mean queue length\n");
  std::printf("strategy,front_nql,back_nql\n");
  const double rho = 0.6;
  const double lambda = model.lambda_for_rho(rho);
  const double mm1 = core::mm1::mean_queue_length(rho);
  for (auto [name, front, back] :
       {std::tuple{"Resume", sim::FailureStrategy::kResumeFront,
                   sim::FailureStrategy::kResumeBack},
        std::tuple{"Restart", sim::FailureStrategy::kRestartFront,
                   sim::FailureStrategy::kRestartBack}}) {
    auto run = [&](sim::FailureStrategy s) {
      auto cs = BaseSim(params, lambda, cycles);
      cs.strategy = s;
      cs.seed = 4321;  // common random numbers across placements
      return sim::mean_queue_length_summary(cs, reps).mean / mm1;
    };
    std::printf("%s,%.4f,%.4f\n", name, run(front), run(back));
  }
  return 0;
}
