// perfctl -- command-line front end to the performa library.
//
//   perfctl blowup  [N nu_p delta A alpha]         blow-up structure
//   perfctl solve   [N nu_p delta mttf mttr rho T] one stationary solution
//   perfctl sweep   [N nu_p delta mttf mttr T]     supervised rho sweep (CSV)
//   perfctl simulate [N nu_p delta mttf mttr rho cycles seed]
//                                                  multiprocessor simulation
//   perfctl repair-econ [N nu_p delta mttf mttr T rho cmax smax cc sc]
//                                                  crew/spares trade-off (CSV)
//
// Flags (anywhere on the command line):
//   --report             solve: print the solver's SolveReport
//   --inject <scenario>  simulate: run a fault-injection scenario
//   --checkpoint <path>  sweep: append completed points to a checkpoint
//   --resume             sweep: reuse completed points from --checkpoint
//   --sync               sweep: fsync every checkpoint append
//   --golden <path>      sweep: regression-compare against a golden file
//   --timeout <seconds>  sweep: per-point wall-clock budget (0 = none)
//   --retries <n>        sweep: attempts per point for transient failures
//   --sim-cycles <n>     sweep: also simulate each point (n UP/DOWN cycles)
//   --no-isolate         sweep: run points in-process (no fork, no timeout)
//   -j/--jobs <n>        sweep: points in flight at once (default: nproc)
//   --progress           sweep: live pool status on stderr (plain lines
//                        when stderr is not a tty)
//   --trace <path>       write a Chrome trace_event JSONL trace (loads in
//                        Perfetto / about://tracing); $PERFORMA_TRACE too
//   --metrics <path>     dump the metrics registry at exit as Prometheus
//                        text (0.0.4, what performad's /metrics serves);
//                        $PERFORMA_METRICS too
//   --trust-floor <x>    clamp every verification threshold to x (0 forces
//                        the TrustRejected exit-4 path for drills)
//   --threads <n>        linalg pool width for the blocked kernels
//                        (default $PERFORMA_THREADS, else hardware);
//                        results are bit-identical for every value
//   --kernel <name>      dense-kernel backend: blocked (default) or
//                        reference ($PERFORMA_KERNEL_BACKEND too)
//
// The sweep runs up to --jobs points at once, each in a supervised
// worker subprocess: hung points are SIGKILLed at the timeout and
// retried with backoff, solver failures become degraded placeholder
// rows instead of aborting, and SIGINT/SIGTERM wind the sweep down
// (in-flight workers drain, nothing new starts) with the checkpoint
// flushed -- `--resume` then picks up where it stopped, reproducing
// completed points bit-exactly. The CSV on stdout is byte-identical for
// every --jobs value.
//
// Arguments are positional with defaults matching the paper's running
// example; `perfctl <cmd>` with no arguments reproduces paper numbers.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/cluster_model.h"
#include "core/mm1.h"
#include "core/qos.h"
#include "linalg/kernels.h"
#include "linalg/pool.h"
#include "map/repair_facility.h"
#include "qbd/level_dependent.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qbd/solve_report.h"
#include "qbd/trust.h"
#include "runner/golden.h"
#include "runner/sweep.h"
#include "sim/cluster_sim.h"

using namespace performa;

int FinishObservability(int code);

namespace {

// Flags stripped from argv before positional parsing.
struct Flags {
  bool report = false;
  std::string inject;      // fault-injection scenario spec (empty = none)
  std::string checkpoint;  // sweep checkpoint path (empty = off)
  std::string golden;      // golden-result file to compare against
  std::string trace;       // trace_event JSONL output path (empty = off)
  std::string metrics;     // metrics output path (empty = off)
  double trust_floor = -1.0;  // >= 0: clamp every trust threshold to this
  bool resume = false;
  bool sync = false;
  bool isolate = true;
  bool progress = false;
  double timeout_seconds = 0.0;
  unsigned retries = 3;
  unsigned jobs = 0;  // points in flight; 0 = one per hardware thread
  unsigned threads = 0;  // linalg pool width; 0 = environment default
  std::size_t sim_cycles = 0;  // per-point simulation effort (0 = analytic only)
};

double Arg(int argc, char** argv, int index, double fallback) {
  return argc > index ? std::atof(argv[index]) : fallback;
}

// CSV provenance comment: which dense-kernel backend and pool width
// produced the numbers. Both are bit-transparent (every combination
// computes identical doubles), so a byte-diff against a golden CSV only
// needs the environment pinned, not the hardware.
void PrintProvenance() {
  std::printf("# kernel: %s, threads: %u\n",
              linalg::to_string(linalg::kernel_backend()),
              linalg::pool_threads());
}

core::ClusterParams MakeParams(double n, double nu_p, double delta,
                               double mttf, double mttr, double t_phases) {
  core::ClusterParams p;
  p.n_servers = static_cast<unsigned>(n);
  p.nu_p = nu_p;
  p.delta = delta;
  p.up = medist::exponential_from_mean(mttf);
  const auto t = static_cast<unsigned>(t_phases);
  p.down = t <= 1 ? medist::exponential_from_mean(mttr)
                  : medist::make_tpt(medist::TptSpec{t, 1.4, 0.2, mttr});
  return p;
}

int CmdBlowup(int argc, char** argv) {
  core::BlowupParams p;
  p.n_servers = static_cast<unsigned>(Arg(argc, argv, 2, 2));
  p.nu_p = Arg(argc, argv, 3, 2.0);
  p.delta = Arg(argc, argv, 4, 0.2);
  p.availability = Arg(argc, argv, 5, 0.9);
  const double alpha = Arg(argc, argv, 6, 1.4);

  std::printf("nu_bar = %.4f\n", core::mean_service_rate(p));
  const auto nu = core::service_rate_ladder(p);
  const auto rho = core::blowup_utilizations(p);
  std::printf("%3s %10s %12s %10s\n", "i", "nu_i", "rho_i", "beta_i");
  for (unsigned i = 1; i <= p.n_servers; ++i) {
    std::printf("%3u %10.4f %12.4f %10.4f\n", i, nu[i], rho[i - 1],
                core::tail_exponent(i, alpha));
  }
  return 0;
}

// --trust-floor X: clamp every verification threshold (certified and
// rejected alike) to X. X=0 rejects any answer with a measurable defect
// -- the supported way to force the TrustRejected exit path (used by the
// CI drill asserting telemetry sinks flush on exit 4).
qbd::SolverOptions SolveOptions(const Flags& flags) {
  qbd::SolverOptions opts;
  if (flags.trust_floor >= 0.0) {
    qbd::TrustPolicy& t = opts.trust;
    t.escalate = false;  // fail fast; healing cannot beat a zero floor
    t.r_residual_certified = t.r_residual_rejected = flags.trust_floor;
    t.boundary_residual_certified = t.boundary_residual_rejected =
        flags.trust_floor;
    t.mass_defect_certified = t.mass_defect_rejected = flags.trust_floor;
    t.phase_agreement_certified = t.phase_agreement_rejected =
        flags.trust_floor;
    t.forward_error_certified = t.forward_error_rejected = flags.trust_floor;
  }
  return opts;
}

int CmdSolve(int argc, char** argv, const Flags& flags) {
  const auto p = MakeParams(Arg(argc, argv, 2, 2), Arg(argc, argv, 3, 2.0),
                            Arg(argc, argv, 4, 0.2), Arg(argc, argv, 5, 90.0),
                            Arg(argc, argv, 6, 10.0),
                            Arg(argc, argv, 8, 10));
  const double rho = Arg(argc, argv, 7, 0.7);
  const core::ClusterModel model(p);
  const auto sol = model.solve(model.lambda_for_rho(rho),
                               SolveOptions(flags));
  const double nu_bar = model.mean_service_rate();

  std::printf("availability      %.4f\n", model.availability());
  std::printf("nu_bar            %.4f\n", nu_bar);
  std::printf("lambda            %.4f\n", model.lambda_for_rho(rho));
  std::printf("E[Q]              %.4f\n", sol.mean_queue_length());
  std::printf("E[Q] normalized   %.4f\n",
              sol.mean_queue_length() / core::mm1::mean_queue_length(rho));
  std::printf("P(empty)          %.4f\n", sol.probability_empty());
  std::printf("sp(R)             %.6f\n", sol.decay_rate());
  for (std::size_t k : {100u, 500u}) {
    std::printf("Pr(Q >= %-4zu)     %.4e\n", k, sol.tail(k));
  }
  std::printf("min d, eps=1e-4   %.2f time units\n",
              core::min_deadline_for(sol, 1e-4, nu_bar));
  std::printf("trust             %s\n", sol.trust().summary().c_str());
  if (flags.report) {
    std::printf("--- solve report ---\n%s", sol.report().to_string().c_str());
    std::printf("--- trust report ---\n%s", sol.trust().to_string().c_str());
  }
  return 0;
}

int CmdSweep(int argc, char** argv, const Flags& flags) {
  const auto p = MakeParams(Arg(argc, argv, 2, 2), Arg(argc, argv, 3, 2.0),
                            Arg(argc, argv, 4, 0.2), Arg(argc, argv, 5, 90.0),
                            Arg(argc, argv, 6, 10.0),
                            Arg(argc, argv, 7, 10));
  const core::ClusterModel model(p);

  // One supervised point per utilization. The worker computes in a
  // subprocess, so a hang or crash at one rho cannot take the sweep down.
  std::vector<runner::SweepPointSpec> points;
  for (double rho = 0.05; rho < 0.96; rho += 0.05) {
    char id[32];
    std::snprintf(id, sizeof id, "rho=%.2f", rho);
    const std::size_t index = points.size();
    points.push_back({id, [&model, &p, &flags, rho, index]() {
      runner::PointResult out;
      const auto sol = model.solve(model.lambda_for_rho(rho));
      out.metrics.emplace_back("mean_ql", sol.mean_queue_length());
      out.metrics.emplace_back(
          "normalized",
          sol.mean_queue_length() / core::mm1::mean_queue_length(rho));
      out.metrics.emplace_back("p_empty", sol.probability_empty());
      out.metrics.emplace_back("tail500", sol.tail(500));
      // Verdict travels as its ordinal (checkpoint metrics are doubles);
      // the CSV printer maps it back to a word.
      out.metrics.emplace_back(
          "trust", static_cast<double>(sol.trust().verdict));
      if (flags.sim_cycles > 0) {
        sim::ClusterSimConfig cfg;
        cfg.n_servers = p.n_servers;
        cfg.nu_p = p.nu_p;
        cfg.delta = p.delta;
        cfg.lambda = model.lambda_for_rho(rho);
        cfg.up = sim::me_sampler(p.up);
        cfg.down = sim::me_sampler(p.down);
        cfg.cycles = flags.sim_cycles;
        cfg.warmup_cycles = flags.sim_cycles / 10;
        cfg.seed = sim::derive_seed(4242, index);
        const auto res = sim::simulate_cluster(cfg);
        out.metrics.emplace_back("sim_mean_ql", res.mean_queue_length);
        out.rng_state = res.final_rng_state;
      }
      return out;
    }});
  }

  runner::SweepOptions opts;
  opts.checkpoint_path = flags.checkpoint;
  opts.resume = flags.resume;
  opts.sync_checkpoint = flags.sync;
  opts.timeout_seconds = flags.timeout_seconds;
  opts.retry.max_attempts = flags.retries;
  opts.isolate = flags.isolate;
  opts.jobs = flags.isolate ? flags.jobs : 1;  // inline mode is sequential
  opts.verbose = flags.report;
  opts.progress = flags.progress;
  runner::install_signal_handlers();
  const auto sweep = runner::run_sweep("perfctl-sweep", points, opts);

  PrintProvenance();
  std::printf("rho,mean_ql,normalized,p_empty,tail500,trust%s\n",
              flags.sim_cycles > 0 ? ",sim_mean_ql" : "");
  for (const auto& pt : sweep.points) {
    // Degraded points print as NaN placeholder rows; metric() returns
    // NaN for anything the worker never delivered.
    std::printf("%s,%.4f,%.4f,%.4f,%.4e", pt.id.c_str() + 4,
                pt.metric("mean_ql"), pt.metric("normalized"),
                pt.metric("p_empty"), pt.metric("tail500"));
    const double trust = pt.metric("trust");
    std::printf(",%s",
                std::isnan(trust)
                    ? "n/a"
                    : qbd::to_string(static_cast<qbd::TrustVerdict>(
                          static_cast<int>(trust))));
    if (flags.sim_cycles > 0) std::printf(",%.4f", pt.metric("sim_mean_ql"));
    std::printf("\n");
    if (pt.outcome != runner::Outcome::kOk) {
      std::printf("# degraded %s: %s after %u attempt(s): %s\n",
                  pt.id.c_str(), runner::to_string(pt.outcome), pt.attempts,
                  pt.message.c_str());
    }
  }
  if (sweep.reused > 0) {
    std::printf("# resumed: %zu point(s) reused from %s\n", sweep.reused,
                flags.checkpoint.c_str());
  }
  if (sweep.interrupted) {
    std::fprintf(stderr,
                 "perfctl: sweep interrupted; checkpoint is flushed, rerun "
                 "with --resume to continue\n");
    return 130;
  }

  if (!flags.golden.empty()) {
    const auto golden = runner::load_checkpoint(flags.golden);
    runner::SweepCheckpoint actual;
    actual.sweep_name = "perfctl-sweep";
    actual.points = sweep.points;
    const auto report = runner::compare_to_golden(golden, actual);
    std::fprintf(stderr, "%s", report.to_string().c_str());
    if (!report.ok()) return 3;
  }
  return 0;
}

// Repair-economics report: sweep the (crews, spares) grid at one fixed
// arrival rate (rho times the *independent-repair* capacity, the budget a
// deployment was sized for) and price each configuration with a linear
// cost model. Contention-starved corners can be unstable at that rate;
// those points come back as degraded facility-only rows with the blow-up
// utilization still printed, which is the point of the exercise.
int CmdRepairEcon(int argc, char** argv, const Flags& flags) {
  const auto p = MakeParams(Arg(argc, argv, 2, 2), Arg(argc, argv, 3, 2.0),
                            Arg(argc, argv, 4, 0.2), Arg(argc, argv, 5, 90.0),
                            Arg(argc, argv, 6, 10.0),
                            Arg(argc, argv, 7, 5));
  const double rho = Arg(argc, argv, 8, 0.7);
  const unsigned n = p.n_servers;
  const auto cmax =
      static_cast<unsigned>(Arg(argc, argv, 9, static_cast<double>(n)));
  const auto smax = static_cast<unsigned>(Arg(argc, argv, 10, 2));
  const double crew_cost = Arg(argc, argv, 11, 10.0);
  const double spare_cost = Arg(argc, argv, 12, 3.0);

  // The reference capacity: c >= N crews, no spares, i.e. the paper's
  // independent-repair cluster. Every grid point faces this same lambda.
  const map::RepairFacility reference(p.up, p.down, p.nu_p, p.delta, n, n, 0);
  const double lambda = rho * reference.mmpp().mean_rate();

  std::vector<runner::SweepPointSpec> points;
  std::vector<std::pair<unsigned, unsigned>> grid;
  for (unsigned c = 1; c <= cmax; ++c) {
    for (unsigned s = 0; s <= smax; ++s) {
      char id[32];
      std::snprintf(id, sizeof id, "c=%u,s=%u", c, s);
      grid.emplace_back(c, s);
      points.push_back({id, [&p, n, c, s, lambda, crew_cost, spare_cost]() {
        runner::PointResult out;
        const map::RepairFacility fac(p.up, p.down, p.nu_p, p.delta, n, c, s);
        out.metrics.emplace_back("cost", crew_cost * c + spare_cost * s);
        out.metrics.emplace_back("availability", fac.availability());
        out.metrics.emplace_back("crew_util", fac.crew_utilization());
        out.metrics.emplace_back("repair_q", fac.mean_repair_queue());
        out.metrics.emplace_back("util", lambda / fac.mmpp().mean_rate());
        try {
          const qbd::LevelDependentSolution sol(
              qbd::repair_facility_level_dependent_blocks(fac, lambda));
          out.metrics.emplace_back("mean_ql", sol.mean_queue_length());
          out.metrics.emplace_back("tail50", sol.tail(50));
          out.metrics.emplace_back(
              "trust", static_cast<double>(sol.trust().verdict));
        } catch (const qbd::UnstableModel&) {
          // util >= 1 at this (c, s): the facility cannot carry the
          // reference load. Keep the facility metrics; the queue columns
          // stay NaN and the blow-up shows in the util column.
        }
        return out;
      }});
    }
  }

  runner::SweepOptions opts;
  opts.checkpoint_path = flags.checkpoint;
  opts.resume = flags.resume;
  opts.sync_checkpoint = flags.sync;
  opts.timeout_seconds = flags.timeout_seconds;
  opts.retry.max_attempts = flags.retries;
  opts.isolate = flags.isolate;
  opts.jobs = flags.isolate ? flags.jobs : 1;  // inline mode is sequential
  opts.verbose = flags.report;
  opts.progress = flags.progress;
  runner::install_signal_handlers();
  const auto sweep = runner::run_sweep("perfctl-repair-econ", points, opts);

  PrintProvenance();
  std::printf("# lambda = %.6f (rho = %g of independent-repair capacity "
              "%.6f), cost = %g*crews + %g*spares\n",
              lambda, rho, reference.mmpp().mean_rate(), crew_cost,
              spare_cost);
  std::printf(
      "crews,spares,cost,availability,crew_util,repair_q,util,mean_ql,"
      "tail50,trust\n");
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const auto& pt = sweep.points[i];
    std::printf("%u,%u,%.1f,%.6f,%.4f,%.4f,%.4f,%.4f,%.4e", grid[i].first,
                grid[i].second, pt.metric("cost"), pt.metric("availability"),
                pt.metric("crew_util"), pt.metric("repair_q"),
                pt.metric("util"), pt.metric("mean_ql"), pt.metric("tail50"));
    const double trust = pt.metric("trust");
    std::printf(",%s\n",
                std::isnan(trust)
                    ? "n/a"
                    : qbd::to_string(static_cast<qbd::TrustVerdict>(
                          static_cast<int>(trust))));
    if (pt.outcome != runner::Outcome::kOk) {
      std::printf("# degraded %s: %s after %u attempt(s): %s\n",
                  pt.id.c_str(), runner::to_string(pt.outcome), pt.attempts,
                  pt.message.c_str());
    }
  }
  if (sweep.reused > 0) {
    std::printf("# resumed: %zu point(s) reused from %s\n", sweep.reused,
                flags.checkpoint.c_str());
  }
  if (sweep.interrupted) {
    std::fprintf(stderr,
                 "perfctl: sweep interrupted; checkpoint is flushed, rerun "
                 "with --resume to continue\n");
    return 130;
  }
  if (!flags.golden.empty()) {
    const auto golden = runner::load_checkpoint(flags.golden);
    runner::SweepCheckpoint actual;
    actual.sweep_name = "perfctl-repair-econ";
    actual.points = sweep.points;
    const auto report = runner::compare_to_golden(golden, actual);
    std::fprintf(stderr, "%s", report.to_string().c_str());
    if (!report.ok()) return 3;
  }
  return 0;
}

int CmdSimulate(int argc, char** argv, const Flags& flags) {
  const auto p = MakeParams(Arg(argc, argv, 2, 2), Arg(argc, argv, 3, 2.0),
                            Arg(argc, argv, 4, 0.2), Arg(argc, argv, 5, 90.0),
                            Arg(argc, argv, 6, 10.0), 10);
  const double rho = Arg(argc, argv, 7, 0.5);
  const core::ClusterModel model(p);

  sim::ClusterSimConfig cfg;
  cfg.n_servers = p.n_servers;
  cfg.nu_p = p.nu_p;
  cfg.delta = p.delta;
  cfg.lambda = model.lambda_for_rho(rho);
  cfg.up = sim::me_sampler(p.up);
  cfg.down = sim::me_sampler(p.down);
  cfg.cycles = static_cast<std::size_t>(Arg(argc, argv, 8, 20000));
  cfg.warmup_cycles = cfg.cycles / 10;
  cfg.seed = static_cast<std::uint64_t>(Arg(argc, argv, 9, 1));
  if (!flags.inject.empty()) {
    cfg.faults = sim::parse_scenario(flags.inject);
    // Injected scenarios can make the system unstable; cap the run so a
    // runaway queue returns degraded partial statistics instead of hanging.
    cfg.budget.max_events = 50'000'000;
    cfg.budget.max_wall_seconds = 60.0;
  }

  const auto res = sim::simulate_cluster(cfg);
  std::printf("simulated time    %.1f\n", res.sim_time);
  std::printf("arrivals          %zu\n", res.arrivals);
  std::printf("completed         %zu\n", res.completed);
  std::printf("E[Q] (sim)        %.4f\n", res.mean_queue_length);
  std::printf("E[Q] (analytic)   %.4f\n",
              model.solve(cfg.lambda).mean_queue_length());
  if (res.system_time.count() > 0) {
    std::printf("E[system time]    %.4f\n", res.system_time.mean());
  }
  if (!flags.inject.empty()) {
    std::printf("injected crashes  %zu\n", res.injected_crashes);
    std::printf("injected arrivals %zu\n", res.injected_arrivals);
    std::printf("repair preempts   %zu\n", res.repair_preemptions);
  }
  if (res.degraded) {
    std::printf("DEGRADED          %s\n", res.degraded_reason.c_str());
  }
  return 0;
}

void Usage() {
  std::printf(
      "usage: perfctl <command> [args] [flags]\n"
      "  blowup   [N nu_p delta A alpha]\n"
      "  solve    [N nu_p delta mttf mttr rho T]\n"
      "  sweep    [N nu_p delta mttf mttr T]\n"
      "  simulate [N nu_p delta mttf mttr rho cycles seed]\n"
      "  repair-econ [N nu_p delta mttf mttr T rho cmax smax cc sc]\n"
      "           (c, s) crew/spares trade-off CSV; cc/sc = unit costs\n"
      "flags:\n"
      "  --report             print solver diagnostics (solve) / progress (sweep)\n"
      "  --inject <scenario>  run a fault-injection scenario (simulate)\n"
      "  --checkpoint <path>  sweep: append completed points to a checkpoint\n"
      "  --resume             sweep: reuse completed points from --checkpoint\n"
      "  --sync               sweep: fsync every checkpoint append (power-loss\n"
      "                       durability at a disk round-trip per point)\n"
      "  --golden <path>      sweep: compare results against a golden file\n"
      "  --timeout <seconds>  sweep: per-point wall-clock budget (0 = none)\n"
      "  --retries <n>        sweep: attempts per point on transient failure\n"
      "  --sim-cycles <n>     sweep: also simulate each point (n cycles)\n"
      "  --no-isolate         sweep: run points in-process (no fork/timeout)\n"
      "  -j, --jobs <n>       sweep: points in flight at once (default nproc;\n"
      "                       CSV output is identical for every value)\n"
      "  --progress           sweep: live pool status on stderr (plain\n"
      "                       lines when stderr is not a tty)\n"
      "  --trace <path>       write a Perfetto-loadable trace_event JSONL\n"
      "                       trace ($PERFORMA_TRACE works too)\n"
      "  --metrics <path>     dump the metrics registry at exit as\n"
      "                       Prometheus text, format 0.0.4\n"
      "                       ($PERFORMA_METRICS works too)\n"
      "  --trust-floor <x>    clamp every verification threshold to x\n"
      "                       (0 forces rejection of any imperfect answer;\n"
      "                       exercises the exit-4 trust-rejection path)\n"
      "  --threads <n>        linalg pool width for the blocked kernels\n"
      "                       (default $PERFORMA_THREADS, else hardware;\n"
      "                       every value computes identical bits)\n"
      "  --kernel <name>      dense-kernel backend: blocked (default)\n"
      "                       or reference ($PERFORMA_KERNEL_BACKEND too)\n"
      "%s",
      sim::scenario_grammar().c_str());
}

// Usage errors exit through the same observability flush as every other
// path: an env-configured metrics sink ($PERFORMA_METRICS) still gets
// its dump even when the command line was malformed.
[[noreturn]] void UsageExit() {
  obs::init_trace_from_env();
  obs::init_metrics_from_env();
  std::exit(FinishObservability(1));
}

// Strips flags out of argv; remaining arguments keep their relative
// order so positional parsing is unaffected.
Flags StripFlags(int& argc, char** argv) {
  Flags flags;
  // Flags taking a value; missing values are a usage error.
  const auto value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfctl: %s needs a value\n", flag);
      UsageExit();
    }
    return argv[++i];
  };
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0) {
      flags.report = true;
    } else if (std::strcmp(argv[i], "--inject") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfctl: --inject needs a scenario\n%s",
                     sim::scenario_grammar().c_str());
        UsageExit();
      }
      flags.inject = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      flags.checkpoint = value(i, "--checkpoint");
    } else if (std::strcmp(argv[i], "--golden") == 0) {
      flags.golden = value(i, "--golden");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      flags.trace = value(i, "--trace");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      flags.metrics = value(i, "--metrics");
    } else if (std::strcmp(argv[i], "--trust-floor") == 0) {
      flags.trust_floor = std::atof(value(i, "--trust-floor"));
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      flags.resume = true;
    } else if (std::strcmp(argv[i], "--sync") == 0) {
      flags.sync = true;
    } else if (std::strcmp(argv[i], "--no-isolate") == 0) {
      flags.isolate = false;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      flags.progress = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 ||
               std::strcmp(argv[i], "-j") == 0) {
      flags.jobs = static_cast<unsigned>(std::atoi(value(i, "--jobs")));
      if (flags.jobs == 0) {
        std::fprintf(stderr, "perfctl: --jobs needs a positive count\n");
        UsageExit();
      }
    } else if (std::strncmp(argv[i], "-j", 2) == 0 && argv[i][2] != '\0') {
      flags.jobs = static_cast<unsigned>(std::atoi(argv[i] + 2));
      if (flags.jobs == 0) {
        std::fprintf(stderr, "perfctl: -jN needs a positive count\n");
        UsageExit();
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      flags.threads = static_cast<unsigned>(std::atoi(value(i, "--threads")));
      if (flags.threads == 0) {
        std::fprintf(stderr, "perfctl: --threads needs a positive count\n");
        UsageExit();
      }
    } else if (std::strcmp(argv[i], "--kernel") == 0) {
      const char* name = value(i, "--kernel");
      if (std::strcmp(name, "reference") == 0) {
        linalg::set_kernel_backend(linalg::KernelBackend::kReference);
      } else if (std::strcmp(name, "blocked") == 0) {
        linalg::set_kernel_backend(linalg::KernelBackend::kBlocked);
      } else {
        std::fprintf(stderr,
                     "perfctl: --kernel wants 'reference' or 'blocked', "
                     "got '%s'\n",
                     name);
        UsageExit();
      }
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      flags.timeout_seconds = std::atof(value(i, "--timeout"));
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      flags.retries = static_cast<unsigned>(std::atoi(value(i, "--retries")));
    } else if (std::strcmp(argv[i], "--sim-cycles") == 0) {
      flags.sim_cycles =
          static_cast<std::size_t>(std::atoll(value(i, "--sim-cycles")));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return flags;
}

}  // namespace

// Flush observability outputs on every exit path: the trace sink closes
// cleanly and the metrics snapshot lands where --metrics pointed. The
// linalg pool is joined first so the snapshot reports zero live workers
// and no thread outlives main (the TSan drill asserts both). Error
// exits flush too -- a rejected answer (exit 4) must still leave its
// counters behind, or the rejection itself is invisible to monitoring.
int FinishObservability(int code) {
  try {
    linalg::pool_shutdown();
    obs::flush_trace();
    obs::disable_trace();
    obs::write_metrics_if_configured();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfctl: observability flush failed: %s\n",
                 e.what());
    if (code == 0) code = 2;
  }
  return code;
}

int main(int argc, char** argv) {
  const Flags flags = StripFlags(argc, argv);
  try {
    if (flags.threads != 0) {
      linalg::set_pool_threads(flags.threads);
    }
    if (!flags.trace.empty()) {
      obs::enable_trace_file(flags.trace);
    } else {
      obs::init_trace_from_env();
    }
    if (!flags.metrics.empty()) {
      obs::set_metrics_path(flags.metrics);
    } else {
      obs::init_metrics_from_env();
    }
    obs::init_log_from_env();
    // One qid per perfctl invocation: every span and SolveReport this
    // run produces carries it, mirroring the daemon's per-request ids.
    obs::QueryIdScope qid_scope(obs::mint_query_id());
    if (argc < 2) {
      Usage();
      return FinishObservability(1);
    }
    int code = 1;
    if (std::strcmp(argv[1], "blowup") == 0) {
      code = CmdBlowup(argc, argv);
    } else if (std::strcmp(argv[1], "solve") == 0) {
      code = CmdSolve(argc, argv, flags);
    } else if (std::strcmp(argv[1], "sweep") == 0) {
      code = CmdSweep(argc, argv, flags);
    } else if (std::strcmp(argv[1], "repair-econ") == 0) {
      code = CmdRepairEcon(argc, argv, flags);
    } else if (std::strcmp(argv[1], "simulate") == 0) {
      code = CmdSimulate(argc, argv, flags);
    } else {
      Usage();
    }
    return FinishObservability(code);
  } catch (const qbd::SolverFailure& e) {
    std::fprintf(stderr, "perfctl: solver failed\n%s\n", e.what());
    return FinishObservability(2);
  } catch (const qbd::TrustRejected& e) {
    // The answer exists but is wrong in digits a caller would read;
    // refusing it beats printing it.
    std::fprintf(stderr, "perfctl: answer rejected by verification\n%s\n",
                 e.trust().to_string().c_str());
    return FinishObservability(4);
  } catch (const qbd::UnstableModel& e) {
    std::fprintf(stderr, "perfctl: %s\n", e.what());
    return FinishObservability(2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfctl: %s\n", e.what());
    return FinishObservability(2);
  }
}
