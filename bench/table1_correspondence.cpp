// Section 2.3 table: parameter correspondence between the cluster model
// (M/MMPP/1) and the N-Burst teletraffic model (MMPP/M/1), evaluated on
// the paper's running example so both columns carry actual numbers.
#include <cstdio>

#include "bench_util.h"
#include "core/cluster_model.h"
#include "core/nburst.h"

using namespace performa;

int main() {
  bench::banner("Table (Sec. 2.3)",
                "cluster model vs N-Burst teletraffic model",
                "cluster: N=2, nu_p=2, delta=0, UP=exp(90), DOWN=exp(10); "
                "telco dual: ON<->DOWN, OFF<->UP, lambda_p = nu_p");

  core::ClusterParams cp;
  cp.delta = 0.0;  // the paper's table states the delta = 0 case
  const core::ClusterModel cluster(cp);

  core::NBurstParams np;
  np.n_sources = cp.n_servers;
  np.lambda_p = cp.nu_p;
  np.on = cp.down;
  np.off = cp.up;
  const core::NBurstModel telco(np);

  std::printf("%-38s | %-38s\n", "Cluster Model", "Telco Model");
  std::printf("%-38s | %-38s\n", "M/MMPP/1 queue", "MMPP/M/1 queue");
  std::printf("%-38s | %-38s\n", "number of servers N = 2",
              "number of sources N = 2");
  char left[64], right[64];
  std::snprintf(left, sizeof left, "service during UP nu_p = %.2f", cp.nu_p);
  std::snprintf(right, sizeof right, "arrival rate during ON lambda_p = %.2f",
                np.lambda_p);
  std::printf("%-38s | %-38s\n", left, right);
  std::snprintf(left, sizeof left, "avail. A = MTTF/(MTTF+MTTR) = %.3f",
                cluster.availability());
  std::snprintf(right, sizeof right, "burstiness b = OFF/(ON+OFF) = %.3f",
                telco.burstiness());
  std::printf("%-38s | %-38s\n", left, right);
  std::snprintf(left, sizeof left, "avg svc rate N nu_p A = %.3f",
                cluster.mean_service_rate());
  std::snprintf(right, sizeof right, "avg arr rate N lambda_p (1-b) = %.3f",
                telco.mean_arrival_rate());
  std::printf("%-38s | %-38s\n", left, right);

  // Demonstrate the duality numerically: both queues at utilization 0.7.
  const double rho = 0.7;
  const auto cluster_sol = cluster.solve(cluster.lambda_for_rho(rho));
  const auto telco_sol = telco.solve(telco.mu_for_rho(rho));
  std::printf("\n# both models solved at the same utilization:\n");
  std::printf("rho,cluster_mean_ql,telco_mean_ql\n");
  std::printf("%.1f,%.4f,%.4f\n", rho, cluster_sol.mean_queue_length(),
              telco_sol.mean_queue_length());
  std::printf("# (the queue-length processes are analogous, not identical: "
              "arrival- vs service-side modulation)\n");
  return 0;
}
