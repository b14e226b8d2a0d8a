// Extension 9: shared repair facility. The paper repairs every server
// independently; here N = 2 servers share c repair crews and an s-slot
// spares pool, so a second failure during a long (heavy-tailed) repair
// queues behind the first crew instead of healing in parallel.
//
// Expected shape: at the same offered load (rho of the *independent*
// model's capacity), c = 1 loses availability and queue length exactly in
// the high-variance regime (TPT T = 5); adding a spare buys most of it
// back for a fraction of a crew's cost, because the spare hides the
// repair queue from the service process until the pool drains.
//
// Every (c, s) point is one supervised runner point, so the grid is
// checkpointable, resumable, and golden-comparable: ctest (golden.ext9)
// and CI compare this CSV with bench/golden/ext9_repair_contention.csv
// after dropping the "# kernel:" banner line, the one line that records
// the pool width (the numbers are bit-identical for any thread count and
// --jobs value).
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "map/repair_facility.h"
#include "medist/tpt.h"
#include "qbd/level_dependent.h"

using namespace performa;

int main() {
  bench::banner("Extension (shared repair facility)",
                "availability and queueing vs crews (c) and spares (s)",
                "N=2, nu_p=2, delta=0.2, UP=exp(90), DOWN=TPT(T=5, "
                "alpha=1.4, theta=0.2, mean=10), rho=0.7 of independent "
                "capacity, c in {1,2}, s in {0,1,2}");

  const auto up = medist::exponential_from_mean(90.0);
  const auto down = medist::make_tpt(medist::TptSpec{5, 1.4, 0.2, 10.0});

  // Every configuration faces the load the independent-repair cluster
  // (c >= N, no spares -- the paper's model) was sized for.
  const map::RepairFacility reference(up, down, 2.0, 0.2, 2, 2, 0);
  const double lambda = 0.7 * reference.mmpp().mean_rate();
  std::printf("# lambda = %.6f (0.7 x independent nu_bar %.6f)\n", lambda,
              reference.mmpp().mean_rate());

  std::vector<runner::SweepPointSpec> points;
  std::vector<std::pair<unsigned, unsigned>> grid;
  for (unsigned c = 1; c <= 2; ++c) {
    for (unsigned s = 0; s <= 2; ++s) {
      char id[32];
      std::snprintf(id, sizeof id, "c=%u,s=%u", c, s);
      grid.emplace_back(c, s);
      points.push_back({id, [&up, &down, c, s, lambda]() {
        runner::PointResult out;
        const map::RepairFacility fac(up, down, 2.0, 0.2, 2, c, s);
        out.metrics.emplace_back("availability", fac.availability());
        out.metrics.emplace_back("crew_util", fac.crew_utilization());
        out.metrics.emplace_back("repair_q", fac.mean_repair_queue());
        out.metrics.emplace_back("util", lambda / fac.mmpp().mean_rate());
        const qbd::LevelDependentSolution sol(
            qbd::repair_facility_level_dependent_blocks(fac, lambda));
        out.metrics.emplace_back("mean_ql", sol.mean_queue_length());
        out.metrics.emplace_back("tail50", sol.tail(50));
        out.metrics.emplace_back("trust",
                                 static_cast<double>(sol.trust().verdict));
        return out;
      }});
    }
  }
  runner::install_signal_handlers();
  const auto sweep = runner::run_sweep("ext9-repair-contention", points,
                                       bench::sweep_options_from_env());

  std::printf(
      "crews,spares,availability,crew_util,repair_q,util,mean_ql,tail50,"
      "trust\n");
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const auto& pt = sweep.points[i];
    std::printf("%u,%u,%.6f,%.4f,%.4f,%.4f,%.4f,%.4e", grid[i].first,
                grid[i].second, pt.metric("availability"),
                pt.metric("crew_util"), pt.metric("repair_q"),
                pt.metric("util"), pt.metric("mean_ql"), pt.metric("tail50"));
    const double trust = pt.metric("trust");
    std::printf(",%s\n",
                std::isnan(trust)
                    ? "n/a"
                    : qbd::to_string(static_cast<qbd::TrustVerdict>(
                          static_cast<int>(trust))));
  }
  return bench::finish_sweep("ext9-repair-contention", sweep);
}
