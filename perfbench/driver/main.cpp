// pbdriver: the compiled half of the performa benchmark (perfbench/run.py
// is the other). It links the library's static archives and calls their
// public functions directly.
//
//   pbdriver refs GRID                      reference CSV for a model grid
//   pbdriver cold --workload W --refs-dir D --workdir O --seed N
//                 --seconds S --trace 0|1 [--setup-only]
//   pbdriver probe --refs-dir D --workdir O  in-process layer metrics
//   pbdriver loadgen --socket P --refs-dir D --workdir O --seed N [--warm-only]
//                                           open-loop performad client
//
// `cold` and `probe` print "ready" once set-up is done, then one JSON
// object as the last line of stdout.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "common.h"
#include "grid.h"
#include "layers.h"
#include "linalg/kernels.h"
#include "linalg/pool.h"
#include "loadgen.h"

namespace pb = perfbench;

namespace {

struct Args {
  std::map<std::string, std::string> kv;
  bool flag(const std::string& k) const { return kv.count(k) != 0; }
  std::string get(const std::string& k, const std::string& fallback = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) {
      a.kv.insert_or_assign("_pos", k);
      continue;
    }
    k.erase(0, 2);
    const bool has_value = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    a.kv.insert_or_assign(k, std::string(has_value ? argv[++i] : "1"));
  }
  return a;
}

std::map<std::string, pb::Reference> cold_refs(const std::string& dir) {
  auto refs = pb::load_references(dir + "/cold_paper.csv");
  for (auto& kv : pb::load_references(dir + "/cold_level_dependent.csv")) {
    refs.insert(kv);
  }
  return refs;
}

std::string failures_json(const std::vector<std::string>& failures) {
  std::string out = "[";
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    if (i) out += ",";
    out += pb::json_string(failures[i]);
  }
  return out + "]";
}

std::string metrics_json(const pb::Metrics& m) {
  pb::JsonOut o;
  for (const auto& [k, v] : m) o.num(k, v);
  return o.finish();
}

void ready() {
  std::printf("ready\n");
  std::fflush(stdout);
}

// Closed loop, one caller: every answer is solved cold from the model
// parameters, then checked against its committed reference.
int run_cold(const Args& a) {
  const std::string workload = a.get("workload");
  const std::string refs_dir = a.get("refs-dir");
  const std::string workdir = a.get("workdir", ".");
  const std::uint64_t seed = std::strtoull(a.get("seed", "1").c_str(), nullptr, 10);
  const double seconds = std::atof(a.get("seconds", "5").c_str());
  const bool traced = a.get("trace", "0") == "1";

  const auto cases = pb::grid(workload);
  const auto refs = cold_refs(refs_dir);
  ready();
  if (a.flag("setup-only")) return 0;

  std::vector<std::string> failures;
  std::size_t answers = 0;
  pb::JsonOut out;
  std::mt19937_64 rng(seed);
  const double cpu0 = pb::process_cpu_seconds();
  const std::int64_t t_start = pb::now_ns();

  // One pass = the whole grid once, in a seed-chosen order.
  const auto run_pass = [&](std::vector<double>* latencies) {
    const auto order = pb::shuffled(cases.size(), rng);
    const std::int64_t p0 = pb::now_ns();
    for (std::size_t i : order) {
      const pb::ModelCase& c = cases[i];
      ++pb::tracer().rid;
      const std::int64_t t0 = pb::now_ns();
      pb::Answer ans;
      {
        pb::Span span("answer");
        ans = pb::solve_case(c);
      }
      const std::int64_t t1 = pb::now_ns();
      if (latencies) latencies->push_back(pb::ms_between(t0, t1));
      ++answers;
      const std::string err = pb::check_answer(c, ans, refs);
      if (!err.empty()) failures.push_back(err);
    }
    return static_cast<double>(pb::now_ns() - p0) * 1e-9;
  };

  if (!traced) {
    std::vector<double> pass_s, latencies;
    do {
      pass_s.push_back(run_pass(&latencies));
    } while (static_cast<double>(pb::now_ns() - t_start) * 1e-9 < seconds);
    const double measure_s = static_cast<double>(pb::now_ns() - t_start) * 1e-9;
    out.array("pass_s", pass_s);
    out.array("latency_ms", latencies);
    out.num("measure_s", measure_s);
    out.num("cpu_s", pb::process_cpu_seconds() - cpu0);
  } else {
    // Tracing overhead: alternate untraced and traced passes of the same
    // work list. Spans stay in memory; the file is written at exit.
    std::vector<double> off, on;
    do {
      pb::tracer().enabled = false;
      off.push_back(run_pass(nullptr));
      pb::tracer().enabled = true;
      on.push_back(run_pass(nullptr));
    } while (static_cast<double>(pb::now_ns() - t_start) * 1e-9 < seconds / 2);
    std::sort(off.begin(), off.end());
    std::sort(on.begin(), on.end());
    pb::Metrics layers;
    layers["obs.trace_overhead_frac"] = on[on.size() / 2] / off[off.size() / 2] - 1.0;

    // Layer split of the full grid, then linalg at this grid's sizes.
    pb::PassSizes sizes;
    for (const auto& [k, v] : pb::split_pass(cases, &refs, failures, &sizes)) {
      layers[k] = v;
    }
    answers += cases.size();
    std::vector<pb::ModelCase> speedup;
    if (workload == "cold_level_dependent") {
      speedup = pb::probe_level_dependent_cases();
    } else {
      for (const pb::ModelCase& c : cases) {
        if (c.n >= 20) speedup.push_back(c);
      }
    }
    for (const auto& [k, v] : pb::linalg_metrics(
             sizes.phase_dim, std::max(sizes.phase_dim, sizes.ld_unknowns),
             speedup)) {
      layers[k] = v;
    }
    pb::Metrics own = layers;
    pb::layer_probe(layers, workdir, refs, failures);
    pb::JsonOut src;
    for (const auto& [k, v] : layers) {
      src.str(k, own.count(k) ? "workload" : "probe");
    }
    out.raw("layers", metrics_json(layers));
    out.raw("layer_source", src.finish());
    const std::string trace_path =
        workdir + "/trace-" + workload + "-" + std::to_string(seed) + ".jsonl";
    pb::tracer().write(trace_path);
    out.str("trace_file", trace_path);
    out.integer("spans", pb::tracer().spans.size());
  }
  out.integer("answers", answers);
  out.integer("failed", failures.size());
  out.raw("failures", failures_json(failures));
  out.num("peak_rss_mb", pb::peak_rss_mb());
  out.integer("pool_threads", performa::linalg::pool_threads());
  out.str("kernel", performa::linalg::to_string(performa::linalg::kernel_backend()));
  std::printf("%s\n", out.finish().c_str());
  return 0;
}

int run_probe(const Args& a) {
  const std::string workdir = a.get("workdir", ".");
  const auto refs = cold_refs(a.get("refs-dir"));
  ready();
  pb::Metrics layers;
  std::vector<std::string> failures;
  pb::layer_probe(layers, workdir, refs, failures);
  pb::JsonOut out;
  out.raw("layers", metrics_json(layers));
  out.integer("failed", failures.size());
  out.raw("failures", failures_json(failures));
  out.integer("spans", pb::tracer().spans.size());
  std::printf("%s\n", out.finish().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbdriver refs|cold|probe|loadgen ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "refs" && argc == 3) {
      pb::write_references(pb::grid(argv[2]));
      return 0;
    }
    const Args a = parse_args(argc, argv, 2);
    if (cmd == "cold") return run_cold(a);
    if (cmd == "probe") return run_probe(a);
    if (cmd == "loadgen") return pb::run_loadgen(a.kv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbdriver %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "pbdriver: unknown command '%s'\n", cmd.c_str());
  return 2;
}
