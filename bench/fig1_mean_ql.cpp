// Figure 1: normalized mean queue length of the 2-node cluster vs
// utilization, for TPT repair times with truncation T = 1, 5, 9, 10.
//
// Expected shape (paper): the T=1 (exponential) curve grows smoothly and
// stays within one decade of M/M/1; the large-T curves are insensitive
// below rho_2 = 21.7%, elevated between 21.7% and 60.9%, and blow up (two
// orders of magnitude above M/M/1) beyond rho_1 = 60.9%.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/cluster_model.h"
#include "core/mm1.h"

using namespace performa;

int main() {
  bench::banner("Figure 1", "normalized mean queue length vs utilization",
                "N=2, nu_p=2, delta=0.2, UP=exp(90), DOWN=TPT(alpha=1.4, "
                "theta=0.2, mean=10), T in {1,5,9,10}");

  const std::vector<unsigned> t_values{1, 5, 9, 10};
  std::vector<core::ClusterModel> models;
  models.reserve(t_values.size());
  for (unsigned t : t_values) {
    core::ClusterParams p;
    p.down = medist::make_tpt(medist::TptSpec{t, 1.4, 0.2, 10.0});
    models.emplace_back(std::move(p));
  }

  const auto rho_bounds =
      core::blowup_utilizations(models.front().blowup_params());
  std::printf("# blow-up utilizations: rho_1 = %.4f, rho_2 = %.4f "
              "(paper: 0.609, 0.217)\n",
              rho_bounds[0], rho_bounds[1]);

  // Each rho is one supervised point; metrics round-trip through the
  // runner, so the sweep is checkpointable and golden-comparable. The
  // four T-models of a point solve as pool tasks.
  std::vector<runner::SweepPointSpec> points;
  for (double rho = 0.05; rho < 0.96; rho += 0.05) {
    char id[32];
    std::snprintf(id, sizeof id, "rho=%.2f", rho);
    points.push_back({id, [&models, &t_values, rho]() {
      const auto nql = bench::parallel_map(models.size(), [&](std::size_t i) {
        return models[i].normalized_mean_queue_length(rho);
      });
      runner::PointResult out;
      for (std::size_t i = 0; i < models.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "nql_T%u", t_values[i]);
        out.metrics.emplace_back(name, nql[i]);
      }
      return out;
    }});
  }
  runner::install_signal_handlers();
  const auto sweep =
      runner::run_sweep("fig1-mean-ql", points, bench::sweep_options_from_env());

  std::printf("rho");
  for (unsigned t : t_values) std::printf(",nql_T%u", t);
  std::printf("\n");
  for (const auto& pt : sweep.points) {
    std::printf("%s", pt.id.c_str() + 4);  // strip the "rho=" prefix
    for (unsigned t : t_values) {
      char name[32];
      std::snprintf(name, sizeof name, "nql_T%u", t);
      std::printf(",%.4f", pt.metric(name));
    }
    std::printf("\n");
  }
  return bench::finish_sweep("fig1-mean-ql", sweep);
}
