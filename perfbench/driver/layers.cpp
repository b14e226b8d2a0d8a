#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "common.h"
#include "daemon/journal.h"
#include "daemon/jsonio.h"
#include "daemon/query.h"
#include "linalg/kernels.h"
#include "linalg/lu.h"
#include "linalg/pool.h"
#include "obs/metrics.h"
#include "runner/sweep.h"
#include "sim/cluster_sim.h"
#include "sim/random.h"

namespace perfbench {

namespace pd = performa::daemon;
namespace pl = performa::linalg;

namespace {

double total_ms_since(std::size_t from, const char* name) {
  double total = 0.0;
  const auto& spans = tracer().spans;
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == name) {
      total += ms_between(spans[i].start_ns, spans[i].end_ns);
    }
  }
  return total;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double seconds_of(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

bool missing_any(const Metrics& have, std::initializer_list<const char*> keys) {
  for (const char* k : keys) {
    if (!have.count(k)) return true;
  }
  return false;
}

void merge_missing(Metrics& have, const Metrics& add) {
  for (const auto& [k, v] : add) have.emplace(k, v);
}

}  // namespace

std::vector<ModelCase> probe_homogeneous_cases() {
  std::vector<ModelCase> out;
  for (const ModelCase& c : grid("cold_paper")) {
    if (c.id == "fig1:N=2:T=10:rho=0.70" || c.id == "fig1:N=2:T=5:rho=0.50" ||
        c.id == "fig6:N=5:T=10:rho=0.80:hyp2" ||
        c.id == "a1:N=20:T=2:rho=0.50" || c.id == "a1:N=200:T=1:rho=0.70") {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<ModelCase> probe_level_dependent_cases() {
  std::vector<ModelCase> out;
  for (const ModelCase& c : grid("cold_level_dependent")) {
    if (c.id == "ld:N=3:T=8:rho=0.80" || c.id == "ld:N=2:T=10:rho=0.60" ||
        c.id == "ext9:N=2:T=5:rho=0.70:c=1:s=1") {
      out.push_back(c);
    }
  }
  return out;
}

Metrics split_pass(const std::vector<ModelCase>& cases,
                   const std::map<std::string, Reference>* refs,
                   std::vector<std::string>& failures, PassSizes* sizes) {
  Tracer& t = tracer();
  const bool was_enabled = t.enabled;
  t.enabled = true;
  const std::size_t from = t.spans.size();
  auto& escalations = performa::obs::counter("qbd.trust.escalations");
  const std::uint64_t esc0 = escalations.value();

  SplitStats stats;
  double phase_dim = 0.0, ld_unknowns = 0.0;
  bool level_dependent = false;
  for (const ModelCase& c : cases) {
    ++t.rid;
    const Answer a = solve_case_split(c, stats);
    phase_dim += static_cast<double>(a.phase_dim);
    ld_unknowns += static_cast<double>(a.ld_unknowns);
    if (sizes != nullptr) {
      sizes->phase_dim = std::max(sizes->phase_dim, a.phase_dim);
      sizes->ld_unknowns = std::max(sizes->ld_unknowns, a.ld_unknowns);
    }
    level_dependent = level_dependent || c.kind != Kind::kHomogeneous;
    if (refs != nullptr) {
      const std::string err = check_answer(c, a, *refs);
      if (!err.empty()) failures.push_back("split: " + err);
    }
  }
  t.enabled = was_enabled;

  const double n = static_cast<double>(cases.size());
  Metrics m;
  m["map.build_ms"] = total_ms_since(from, "map.build") / n;
  m["map.phase_dim"] = phase_dim / n;
  m["qbd.blocks_ms"] = total_ms_since(from, "qbd.blocks") / n;
  m["qbd.r_iterations"] = stats.r_iterations / n;
  m["qbd.r_attempts"] = stats.r_attempts / n;
  m["qbd.r_win_ratio"] = n / std::max(1u, stats.r_attempts);
  m["qbd.trust_escalations"] =
      static_cast<double>(escalations.value() - esc0);
  if (level_dependent) {
    const double ld_ms = total_ms_since(from, "qbd.level_dependent");
    m["qbd.level_dependent_ms"] = ld_ms / n;
    m["qbd.ld_unknowns"] = ld_unknowns / n;
    m["qbd.solve_r_ms"] = stats.ctor_r_ms / n;
    m["qbd.boundary_certify_ms"] = (ld_ms - stats.ctor_r_ms) / n;
  } else {
    const double solve_r_ms = total_ms_since(from, "qbd.solve_r");
    m["qbd.solve_r_ms"] = solve_r_ms / n;
    m["qbd.boundary_certify_ms"] =
        (total_ms_since(from, "qbd.solution") - stats.ctor_r_ms) / n;
    m["qbd.verify_ms"] = total_ms_since(from, "qbd.verify") / n;
    m["linalg.solve_r_gflops_computed"] =
        stats.gemm_flops_in_solve_r / (solve_r_ms * 1e-3) / 1e9;
  }
  return m;
}

Metrics linalg_metrics(std::size_t gemm_dim, std::size_t lu_dim,
                       const std::vector<ModelCase>& speedup_cases) {
  Metrics m;
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> u(0.0, 1.0);

  {
    const std::size_t d = gemm_dim;
    std::vector<double> a(d * d), b(d * d), c(d * d);
    for (double& x : a) x = u(rng);
    for (double& x : b) x = u(rng);
    std::vector<double> rates;
    for (int batch = 0; batch < 3; ++batch) {
      std::size_t reps = 0;
      const double s = seconds_of([&] {
        const std::int64_t until = now_ns() + 20'000'000;
        while (now_ns() < until) {
          Span span("linalg.gemm");
          pl::kern::gemm(d, d, d, a.data(), d, b.data(), d, c.data(), d);
          ++reps;
        }
      });
      rates.push_back(2.0 * d * d * d * reps / s / 1e9);
    }
    m["linalg.gemm_gflops"] = median(rates);
  }
  {
    const std::size_t d = lu_dim;
    pl::Matrix a(d, d);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) a(i, j) = u(rng);
      a(i, i) += static_cast<double>(d);
    }
    std::vector<double> times;
    for (int batch = 0; batch < 3; ++batch) {
      std::size_t reps = 0;
      const double s = seconds_of([&] {
        const std::int64_t until = now_ns() + 20'000'000;
        while (now_ns() < until) {
          Span span("linalg.lu");
          const pl::Lu lu(a);
          ++reps;
        }
      });
      times.push_back(s * 1e3 / static_cast<double>(reps));
    }
    m["linalg.lu_ms"] = median(times);
  }
  {
    // Best of two alternating rounds per width: the speedup is a property
    // of the pool, and the minimum is least disturbed by other tenants.
    std::map<unsigned, double> best;
    for (int round = 0; round < 2; ++round) {
      for (unsigned w : {1u, 2u, 4u}) {
        pl::set_pool_threads(w);
        const double s = seconds_of([&] {
          for (const ModelCase& c : speedup_cases) solve_case(c);
        });
        if (!best.count(w) || s < best[w]) best[w] = s;
      }
    }
    pl::set_pool_threads(0);
    m["linalg.pool_speedup_2"] = best[1] / best[2];
    m["linalg.pool_speedup_4"] = best[1] / best[4];
  }
  return m;
}

namespace {

// In-process performad engine: parse, key, warm hit, cold miss (solve +
// cache + journal append), journal append alone. `workdir` holds the
// temporary journals.
Metrics daemon_engine_metrics(const std::string& workdir) {
  Metrics m;
  const std::string engine_journal = workdir + "/probe-engine.journal";
  const std::string append_journal = workdir + "/probe-append.journal";
  ::unlink(engine_journal.c_str());
  ::unlink(append_journal.c_str());

  pd::EngineConfig cfg;
  cfg.journal_path = engine_journal;
  pd::QueryEngine engine(cfg);
  engine.rehydrate();

  const std::vector<ModelCase> hot = grid("daemon_hot");
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    lines.push_back(daemon_request(hot[i], kHotOps[i % 3], std::to_string(i)));
  }
  for (const std::string& line : lines) engine.handle_line(line);  // warm

  constexpr int kReps = 4000;
  {
    pd::JsonObject obj;
    std::string err;
    const double s = seconds_of([&] {
      for (int i = 0; i < kReps; ++i) {
        Span span("daemon.parse");
        pd::parse_json_object(lines[i % lines.size()], obj, err);
      }
    });
    m["daemon.parse_us"] = s * 1e6 / kReps;
  }
  {
    std::vector<pd::JsonObject> objs(lines.size());
    std::string err;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      pd::parse_json_object(lines[i], objs[i], err);
    }
    std::size_t total = 0;
    const double s = seconds_of([&] {
      for (int i = 0; i < kReps; ++i) {
        Span span("daemon.key");
        pd::ModelSpec spec;
        pd::parse_model(objs[i % objs.size()], spec, err);
        total += pd::canonical_model_key(spec).size();
      }
    });
    m["daemon.key_us"] = s * 1e6 / kReps;
    if (total == 0) throw std::runtime_error("empty canonical model keys");
  }
  {
    const double s = seconds_of([&] {
      for (int i = 0; i < kReps; ++i) {
        Span span("daemon.hit");
        engine.handle_line(lines[i % lines.size()]);
      }
    });
    m["daemon.hit_us"] = s * 1e6 / kReps;
  }
  {
    const std::vector<ModelCase> unique = grid("daemon_unique");
    constexpr int kMisses = 40;
    const double s = seconds_of([&] {
      for (int i = 0; i < kMisses; ++i) {
        Span span("daemon.miss");
        engine.handle_line(daemon_request(unique[unique.size() - 1 - i],
                                          "solve", "m"));
      }
    });
    m["daemon.miss_ms"] = s * 1e3 / kMisses;
  }
  {
    std::vector<std::pair<std::string, pd::CachedSolution>> entries;
    for (const std::string& line : lines) {
      pd::JsonObject obj;
      std::string err;
      pd::parse_json_object(line, obj, err);
      pd::ModelSpec spec;
      pd::parse_model(obj, spec, err);
      const std::string key = pd::canonical_model_key(spec);
      pd::CachedSolution entry;
      if (engine.cache().get(key, entry, false)) entries.emplace_back(key, entry);
    }
    pd::CacheJournal journal(append_journal, /*sync=*/true);
    constexpr int kAppends = 40;
    const double s = seconds_of([&] {
      for (int i = 0; i < kAppends; ++i) {
        const auto& [key, entry] = entries[i % entries.size()];
        Span span("daemon.journal_append");
        journal.append(key, entry);
      }
    });
    m["daemon.journal_append_ms"] = s * 1e3 / kAppends;
  }
  ::unlink(engine_journal.c_str());
  ::unlink(append_journal.c_str());
  return m;
}

// Supervised-runner cost per no-op point, and simulator events/s on the
// fig7 and fig8 configurations.
Metrics runner_sim_metrics() {
  namespace pr = performa::runner;
  namespace ps = performa::sim;
  Metrics m;
  {
    std::vector<pr::SweepPointSpec> points;
    for (int i = 0; i < 24; ++i) {
      points.push_back({"noop-" + std::to_string(i), [] {
                          pr::PointResult out;
                          out.metrics.emplace_back("x", 1.0);
                          return out;
                        }});
    }
    pr::SweepOptions opts;
    opts.jobs = 1;
    pr::SweepResult res;
    const double s = seconds_of([&] {
      Span span("runner.sweep");
      res = pr::run_sweep("perfbench-noop", points, opts);
    });
    m["runner.point_overhead_ms"] = s * 1e3 / static_cast<double>(points.size());
  }
  {
    // fig7 (T=5, theta=0.5, rho=0.7) and fig8 (crash faults, T=10) configs.
    std::size_t events = 0;
    double seconds = 0.0;
    for (int fig : {7, 8}) {
      ModelCase c;
      c.tpt_t = fig == 7 ? 5 : 10;
      c.tpt_theta = fig == 7 ? 0.5 : 0.2;
      c.delta = fig == 7 ? 0.2 : 0.0;
      c.rho = fig == 7 ? 0.7 : 0.6;
      const auto params = cluster_params(c);
      ps::ClusterSimConfig cs;
      cs.delta = c.delta;
      cs.lambda = case_lambda(c);
      cs.up = ps::me_sampler(params.up);
      cs.down = ps::me_sampler(params.down);
      cs.cycles = 3000;
      cs.warmup_cycles = 300;
      cs.seed = 9001 + static_cast<std::uint64_t>(fig);
      if (fig == 8) cs.strategy = ps::FailureStrategy::kDiscard;
      ps::ClusterSimResult r;
      seconds += seconds_of([&] {
        Span span("sim.simulate_cluster");
        r = ps::simulate_cluster(cs);
      });
      events += r.events;
    }
    m["sim.events_per_s"] = static_cast<double>(events) / seconds;
  }
  return m;
}

// Fractional wall-time cost of recording spans on `cases`: alternating
// untraced and traced passes, median against median.
double trace_overhead_frac(const std::vector<ModelCase>& cases, int rounds) {
  Tracer& t = tracer();
  const bool was_enabled = t.enabled;
  std::vector<double> off, on;
  for (int r = 0; r < rounds; ++r) {
    for (bool traced : {false, true}) {
      t.enabled = traced;
      const double s = seconds_of([&] {
        for (const ModelCase& c : cases) {
          ++t.rid;
          Span span("answer");
          solve_case(c);
        }
      });
      (traced ? on : off).push_back(s);
    }
  }
  t.enabled = was_enabled;
  return median(on) / median(off) - 1.0;
}

}  // namespace

void layer_probe(Metrics& have, const std::string& workdir,
                 const std::map<std::string, Reference>& refs,
                 std::vector<std::string>& failures) {
  if (missing_any(have, {"map.build_ms", "map.phase_dim", "qbd.blocks_ms",
                         "qbd.solve_r_ms", "qbd.r_iterations",
                         "qbd.r_attempts", "qbd.r_win_ratio",
                         "qbd.boundary_certify_ms", "qbd.verify_ms",
                         "qbd.trust_escalations",
                         "linalg.solve_r_gflops_computed"})) {
    merge_missing(have, split_pass(probe_homogeneous_cases(), &refs, failures));
  }
  if (missing_any(have, {"qbd.level_dependent_ms", "qbd.ld_unknowns"})) {
    merge_missing(have,
                  split_pass(probe_level_dependent_cases(), &refs, failures));
  }
  if (missing_any(have, {"linalg.gemm_gflops", "linalg.lu_ms",
                         "linalg.pool_speedup_2", "linalg.pool_speedup_4"})) {
    std::vector<ModelCase> speedup;
    for (const ModelCase& c : probe_homogeneous_cases()) {
      if (c.n >= 20) speedup.push_back(c);
    }
    merge_missing(have, linalg_metrics(231, 231, speedup));
  }
  if (missing_any(have, {"daemon.parse_us", "daemon.key_us", "daemon.hit_us",
                         "daemon.miss_ms", "daemon.journal_append_ms"})) {
    merge_missing(have, daemon_engine_metrics(workdir));
  }
  if (missing_any(have, {"runner.point_overhead_ms", "sim.events_per_s"})) {
    merge_missing(have, runner_sim_metrics());
  }
  if (!have.count("obs.trace_overhead_frac")) {
    have["obs.trace_overhead_frac"] =
        trace_overhead_frac(probe_homogeneous_cases(), 3);
  }
}

}  // namespace perfbench
