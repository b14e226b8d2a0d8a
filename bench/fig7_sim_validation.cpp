// Figure 7: validation of the analytic model by simulation.
// Four series over utilization:
//   (1) the exact matrix-geometric M/2-Burst/1 solution,
//   (2) a simulation of exactly that load-independent process (crosses),
//   (3) a simulation of the physical multiprocessor system (circles),
//   (4) the M/M/1 mean for reference,
// plus (5) the level-dependent analytic extension (ablation A3), which
// should land between (1) and (3).
//
// Expected shape (paper): (2) matches (1); (3) exceeds (1) at small rho
// (a lone task cannot use both servers) and converges to it as rho grows.
// Following the paper, T = 5 and theta = 0.5 keep the repair tail
// samplable in reasonable simulated time.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/cluster_model.h"
#include "core/mm1.h"
#include "sim/cluster_sim.h"
#include "sim/mmpp_queue_sim.h"
#include "sim/random.h"

using namespace performa;

int main() {
  bench::banner("Figure 7", "analytic model vs simulations",
                "N=2, nu_p=2, delta=0.2, UP=exp(90), DOWN=TPT(T=5, "
                "alpha=1.4, theta=0.5, mean=10)");

  core::ClusterParams params;
  params.down = medist::make_tpt(medist::TptSpec{5, 1.4, 0.5, 10.0});
  const core::ClusterModel model(params);

  const std::size_t cycles = bench::scaled(20000);
  const std::size_t reps = std::max<std::size_t>(
      3, static_cast<std::size_t>(3 * bench::scale_factor()));
  std::printf("# simulation: %zu UP/DOWN cycles per run, %zu replications "
              "(paper: 2e5 x 10; PERFORMA_BENCH_SCALE=10 gives 2e5 x 30)\n",
              cycles, reps);

  // Each rho is one supervised point (the expensive stage of this figure
  // is simulation, so the per-point timeout/retry protection and
  // checkpoint reuse matter most here). Inside a point, the two analytic
  // solves, the M/MMPP/1 simulation and the `reps` cluster replications
  // run as pool tasks; the replications keep replicate_cluster's seeds
  // and summarize in index order, bit-identical to
  // mean_queue_length_summary.
  std::vector<runner::SweepPointSpec> points;
  for (double rho = 0.1; rho < 0.95; rho += 0.1) {
    char id[32];
    std::snprintf(id, sizeof id, "rho=%.1f", rho);
    points.push_back({id, [&model, &params, cycles, reps, rho]() {
      const double lambda = model.lambda_for_rho(rho);
      enum : std::size_t { kAnalytic, kAnalyticLd, kSimMmpp, kFirstRep };
      const auto values =
          bench::parallel_map(kFirstRep + reps, [&](std::size_t i) {
            if (i == kAnalytic) return model.solve(lambda).mean_queue_length();
            if (i == kAnalyticLd) {
              return model.solve_load_dependent(lambda).mean_queue_length();
            }
            if (i == kSimMmpp) {
              // Load-independent M/MMPP/1 simulation.
              sim::MmppQueueSimConfig mq;
              mq.lambda = lambda;
              mq.horizon = 50.0 * static_cast<double>(cycles);
              mq.warmup = 0.1 * mq.horizon;
              mq.seed = 7001 + static_cast<std::uint64_t>(rho * 100);
              return sim::simulate_mmpp_queue(model.aggregate().mmpp(), mq)
                  .mean_queue_length;
            }
            // Multiprocessor simulation, replication i - kFirstRep.
            sim::ClusterSimConfig cs;
            cs.lambda = lambda;
            cs.up = sim::me_sampler(params.up);
            cs.down = sim::me_sampler(params.down);
            cs.cycles = cycles;
            cs.warmup_cycles = cycles / 10;
            cs.seed = sim::derive_seed(
                9001 + static_cast<std::uint64_t>(rho * 100), i - kFirstRep);
            return sim::simulate_cluster(cs).mean_queue_length;
          });
      const auto mp = sim::summarize_replications(
          {values.begin() + kFirstRep, values.end()});

      runner::PointResult out;
      out.metrics.emplace_back("analytic", values[kAnalytic]);
      out.metrics.emplace_back("analytic_ld", values[kAnalyticLd]);
      out.metrics.emplace_back("sim_mmpp", values[kSimMmpp]);
      out.metrics.emplace_back("sim_multiproc", mp.mean);
      out.metrics.emplace_back("sim_multiproc_ci", mp.ci_halfwidth);
      out.metrics.emplace_back("mm1", core::mm1::mean_queue_length(rho));
      return out;
    }});
  }
  runner::install_signal_handlers();
  const auto sweep = runner::run_sweep("fig7-sim-validation", points,
                                       bench::sweep_options_from_env());

  std::printf(
      "rho,analytic,sim_mmpp,sim_multiproc,sim_multiproc_ci,analytic_level_"
      "dependent,mm1\n");
  for (const auto& pt : sweep.points) {
    std::printf("%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n", pt.id.c_str() + 4,
                pt.metric("analytic"), pt.metric("sim_mmpp"),
                pt.metric("sim_multiproc"), pt.metric("sim_multiproc_ci"),
                pt.metric("analytic_ld"), pt.metric("mm1"));
  }
  return bench::finish_sweep("fig7-sim-validation", sweep);
}
