#include "grid.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common.h"
#include "map/repair_facility.h"
#include "medist/moment_fit.h"
#include "medist/tpt.h"
#include "obs/metrics.h"
#include "qbd/level_dependent.h"
#include "qbd/rsolver.h"

namespace perfbench {

namespace pc = performa::core;
namespace pq = performa::qbd;
namespace pm = performa::medist;

namespace {

std::string fmt(const char* f, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

ModelCase tpt_case(const std::string& fig, unsigned n, unsigned t, double rho,
                   std::size_t k) {
  ModelCase c;
  c.n = n;
  c.tpt_t = t;
  c.rho = rho;
  c.tail_k = k;
  c.id = fig + ":N=" + std::to_string(n) + ":T=" + std::to_string(t) +
         ":rho=" + fmt("%.2f", rho);
  return c;
}

// Paper grids. cold_paper covers the homogeneous M/MMPP/1 headline models;
// cold_level_dependent the level-dependent boundary path (cluster and
// repair facility). Both lists are fixed: the seed only permutes them.
std::vector<ModelCase> cold_paper_grid() {
  std::vector<ModelCase> out;
  // Fig. 1: N=2, TPT(alpha=1.4, theta=0.2, mean=10), T = 1..10.
  for (unsigned t = 1; t <= 10; ++t) {
    for (int r = 1; r <= 9; ++r) {
      out.push_back(tpt_case("fig1", 2, t, 0.1 * r, 50));
    }
  }
  // Figs. 4 and 6: HYP-2 repairs fitted to TPT(T), N=2 and N=5.
  for (unsigned n : {2u, 5u}) {
    for (unsigned t : {9u, 10u}) {
      for (double rho : {0.2, 0.4, 0.6, 0.8, 0.92}) {
        ModelCase c = tpt_case(n == 2 ? "fig4" : "fig6", n, t, rho,
                               n == 2 ? 50 : 500);
        c.repair = "hyp2";
        c.id += ":hyp2";
        out.push_back(c);
      }
    }
  }
  // Scaling models: N=20 at T=2 and the N=200 lumped solve at T=1.
  for (double rho : {0.5, 0.8}) out.push_back(tpt_case("a1", 20, 2, rho, 100));
  out.push_back(tpt_case("a1", 200, 1, 0.7, 100));
  return out;
}

std::vector<ModelCase> cold_level_dependent_grid() {
  std::vector<ModelCase> out;
  const auto ld = [&](unsigned n, unsigned t, double rho) {
    ModelCase c = tpt_case("ld", n, t, rho, 50);
    c.kind = Kind::kLdCluster;
    out.push_back(c);
  };
  for (unsigned t : {2u, 5u, 8u, 10u}) {
    for (double rho : {0.3, 0.6, 0.85}) ld(2, t, rho);
  }
  for (unsigned t : {2u, 5u, 8u}) {
    for (double rho : {0.5, 0.8}) ld(3, t, rho);
  }
  for (unsigned t : {2u, 4u}) {
    for (double rho : {0.5, 0.8}) ld(4, t, rho);
  }
  // Repair facility (c crews, s spares) in the shape of ext9.
  const auto fac = [&](unsigned n, unsigned t, unsigned crews, unsigned spares,
                       double rho) {
    ModelCase c = tpt_case("ext9", n, t, rho, 50);
    c.kind = Kind::kLdFacility;
    c.crews = crews;
    c.spares = spares;
    c.id += ":c=" + std::to_string(crews) + ":s=" + std::to_string(spares);
    out.push_back(c);
  };
  for (unsigned crews = 1; crews <= 2; ++crews) {
    for (unsigned spares = 0; spares <= 2; ++spares) fac(2, 5, crews, spares, 0.7);
  }
  for (unsigned crews = 1; crews <= 3; ++crews) {
    for (unsigned spares = 0; spares <= 1; ++spares) fac(3, 3, crews, spares, 0.6);
  }
  return out;
}

// performad's model space: TPT repairs use the daemon's default
// theta = 0.5; every field is sent explicitly on the wire.
ModelCase daemon_case(unsigned n, const std::string& repair, unsigned t,
                      double rho) {
  ModelCase c;
  c.n = n;
  c.repair = repair;
  c.tpt_t = t;
  c.tpt_theta = 0.5;
  c.rho = rho;
  c.tail_k = 25;
  c.id = "daemon:N=" + std::to_string(n) + ":" + repair +
         (repair == "tpt" ? std::to_string(t) : std::string()) +
         ":rho=" + fmt("%.8f", rho);
  return c;
}

std::vector<ModelCase> daemon_hot_grid() {
  std::vector<ModelCase> out;
  // Small phase spaces (3..21 phases): a hit costs metric evaluation on a
  // cached solution, so the daemon's own path dominates.
  for (const auto& [n, repair, t] :
       {std::tuple{2u, "exp", 1u}, std::tuple{3u, "exp", 1u},
        std::tuple{4u, "exp", 1u}, std::tuple{2u, "tpt", 3u},
        std::tuple{3u, "tpt", 3u}, std::tuple{2u, "tpt", 5u}}) {
    for (double rho : {0.4, 0.6, 0.75, 0.85}) {
      out.push_back(daemon_case(n, repair, t, rho));
    }
  }
  return out;
}

/// Never-seen keys: distinct utilizations of one cheap model, so each
/// forces a cold solve and a journal append.
std::vector<ModelCase> daemon_unique_grid() {
  std::vector<ModelCase> out;
  constexpr int kPool = 256;
  for (int i = 0; i < kPool; ++i) {
    const double rho =
        std::stod(fmt("%.8f", 0.2 + 0.7 * (i + 0.5) / kPool));
    out.push_back(daemon_case(2, "tpt", 5, rho));
  }
  return out;
}

bool certified(const pq::TrustReport& t) {
  return t.verified && t.verdict == pq::TrustVerdict::kCertified;
}

Answer finish_homogeneous(const ModelCase& c, const pq::QbdSolution& sol,
                          bool certified) {
  Span span("qbd.metrics");
  Answer a;
  a.mean = sol.mean_queue_length();
  a.tail = sol.tail(c.tail_k);
  a.decay = sol.decay_rate();
  a.phase_dim = sol.phase_dim();
  a.certified = certified;
  return a;
}

Answer finish_ld(const ModelCase& c, const pq::LevelDependentSolution& sol,
                 std::size_t m) {
  Span span("qbd.metrics");
  Answer a;
  a.mean = sol.mean_queue_length();
  a.tail = sol.tail(c.tail_k);
  a.decay = pq::spectral_radius(sol.r());
  a.phase_dim = m;
  a.ld_unknowns = (sol.boundary_levels() + 1) * m;
  a.certified = certified(sol.trust());
  return a;
}

}  // namespace

std::vector<ModelCase> grid(const std::string& name) {
  if (name == "cold_paper") return cold_paper_grid();
  if (name == "cold_level_dependent") return cold_level_dependent_grid();
  if (name == "daemon_hot") return daemon_hot_grid();
  if (name == "daemon_unique") return daemon_unique_grid();
  throw std::invalid_argument("unknown grid '" + name + "'");
}

pc::ClusterParams cluster_params(const ModelCase& c) {
  pc::ClusterParams p;
  p.n_servers = c.n;
  p.nu_p = c.nu_p;
  p.delta = c.delta;
  p.up = pm::exponential_from_mean(c.mttf);
  if (c.repair == "exp") {
    p.down = pm::exponential_from_mean(c.mttr);
  } else {
    const auto tpt =
        pm::make_tpt(pm::TptSpec{c.tpt_t, c.tpt_alpha, c.tpt_theta, c.mttr});
    p.down = c.repair == "hyp2" ? pm::fit_hyp2(tpt).to_distribution() : tpt;
  }
  return p;
}

double case_lambda(const ModelCase& c) {
  const double a = c.mttf / (c.mttf + c.mttr);
  return c.rho * c.n * c.nu_p * (a + c.delta * (1.0 - a));
}

Answer solve_case(const ModelCase& c) {
  if (c.kind == Kind::kLdFacility) {
    const pc::ClusterParams p = cluster_params(c);
    const auto fac = [&] {
      Span span("map.build");
      return performa::map::RepairFacility(p.up, p.down, c.nu_p, c.delta, c.n,
                                           c.crews, c.spares);
    }();
    const auto sol = [&] {
      Span span("qbd.solve");
      return pq::LevelDependentSolution(
          pq::repair_facility_level_dependent_blocks(fac, case_lambda(c)));
    }();
    return finish_ld(c, sol, fac.state_count());
  }
  const auto model = [&] {
    Span span("map.build");
    return pc::ClusterModel(cluster_params(c));
  }();
  const double lambda = model.lambda_for_rho(c.rho);
  if (c.kind == Kind::kLdCluster) {
    const auto sol = [&] {
      Span span("qbd.solve");
      return model.solve_load_dependent(lambda);
    }();
    return finish_ld(c, sol, model.aggregate().state_count());
  }
  const auto sol = [&] {
    Span span("qbd.solve");
    return model.solve(lambda);
  }();
  return finish_homogeneous(c, sol, certified(sol.trust()));
}

Answer solve_case_split(const ModelCase& c, SplitStats& stats) {
  const pc::ClusterParams p = cluster_params(c);
  if (c.kind != Kind::kHomogeneous) {
    std::size_t m = 0;
    pq::LevelDependentBlocks blocks;
    if (c.kind == Kind::kLdFacility) {
      const auto fac = [&] {
        Span span("map.build");
        return performa::map::RepairFacility(p.up, p.down, c.nu_p, c.delta,
                                             c.n, c.crews, c.spares);
      }();
      m = fac.state_count();
      Span span("qbd.blocks");
      blocks = pq::repair_facility_level_dependent_blocks(fac, case_lambda(c));
    } else {
      const auto model = [&] {
        Span span("map.build");
        return pc::ClusterModel(p);
      }();
      m = model.aggregate().state_count();
      Span span("qbd.blocks");
      blocks = pq::cluster_level_dependent_blocks(
          model.aggregate(), c.nu_p, c.delta, model.lambda_for_rho(c.rho));
    }
    const auto sol = [&] {
      Span span("qbd.level_dependent");
      return pq::LevelDependentSolution(blocks);
    }();
    for (const auto& at : sol.report().attempts) {
      stats.ctor_r_ms += at.seconds * 1e3;
    }
    stats.r_iterations += sol.report().iterations;
    stats.r_attempts += static_cast<unsigned>(sol.report().attempts.size());
    return finish_ld(c, sol, m);
  }

  const auto model = [&] {
    Span span("map.build");
    return pc::ClusterModel(p);
  }();
  const pq::QbdBlocks blocks = [&] {
    Span span("qbd.blocks");
    return pq::m_mmpp_1(model.aggregate().mmpp(),
                        model.lambda_for_rho(c.rho));
  }();
  {
    auto& flops = performa::obs::counter("linalg.gemm.flops");
    const std::uint64_t before = flops.value();
    Span span("qbd.solve_r");
    const pq::RSolveResult rs = pq::solve_r(blocks);
    stats.gemm_flops_in_solve_r += static_cast<double>(flops.value() - before);
    stats.r_iterations += rs.iterations;
    stats.r_attempts += static_cast<unsigned>(rs.report.attempts.size());
  }
  auto sol = [&] {
    Span span("qbd.solution");
    return pq::QbdSolution(blocks);
  }();
  for (const auto& at : sol.report().attempts) stats.ctor_r_ms += at.seconds * 1e3;
  const bool ok = certified(sol.trust());
  {
    Span span("qbd.verify");
    sol.verify(blocks);
  }
  return finish_homogeneous(c, sol, ok && certified(sol.trust()));
}

std::string daemon_request(const ModelCase& c, const std::string& op,
                           const std::string& id) {
  std::string line = "{\"id\":\"" + id + "\",\"op\":\"" + op +
                     "\",\"n\":" + std::to_string(c.n) +
                     ",\"nu_p\":" + json_double(c.nu_p) +
                     ",\"delta\":" + json_double(c.delta) +
                     ",\"mttf\":" + json_double(c.mttf) +
                     ",\"mttr\":" + json_double(c.mttr) +
                     ",\"repair\":\"" + c.repair + "\"";
  if (c.repair == "tpt") {
    line += ",\"tpt_phases\":" + std::to_string(c.tpt_t) +
            ",\"tpt_alpha\":" + json_double(c.tpt_alpha) +
            ",\"tpt_theta\":" + json_double(c.tpt_theta);
  }
  line += ",\"rho\":" + json_double(c.rho);
  if (op == "tail") line += ",\"k\":" + std::to_string(c.tail_k);
  return line + "}";
}

std::map<std::string, Reference> load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::map<std::string, Reference> refs;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string id, field;
    std::getline(ss, id, ',');
    Reference r;
    std::getline(ss, field, ',');
    r.mean = std::stod(field);
    std::getline(ss, field, ',');
    r.tail_k = std::stoul(field);
    std::getline(ss, field, ',');
    r.tail = std::stod(field);
    std::getline(ss, field, ',');
    r.decay = std::stod(field);
    refs[id] = r;
  }
  return refs;
}

void write_references(const std::vector<ModelCase>& cases) {
  std::printf("id,mean_q,tail_k,tail,decay_rate\n");
  for (const ModelCase& c : cases) {
    const Answer a = solve_case(c);
    if (!a.certified) {
      throw std::runtime_error("reference model " + c.id + " not certified");
    }
    std::printf("%s,%.17g,%zu,%.17g,%.17g\n", c.id.c_str(), a.mean,
                c.tail_k, a.tail, a.decay);
  }
}

std::string check_answer(const ModelCase& c, const Answer& a,
                         const std::map<std::string, Reference>& refs) {
  const auto it = refs.find(c.id);
  if (it == refs.end()) return c.id + ": no reference";
  const Reference& r = it->second;
  if (!a.certified) return c.id + ": answer not certified";
  if (r.tail_k != c.tail_k) return c.id + ": reference tail index differs";
  if (!close_rel(a.mean, r.mean, kRefRelTol)) {
    return c.id + ": E[Q] " + json_double(a.mean) + " vs " +
           json_double(r.mean);
  }
  if (!close_rel(a.tail, r.tail, kRefRelTol)) {
    return c.id + ": tail " + json_double(a.tail) + " vs " +
           json_double(r.tail);
  }
  if (!close_rel(a.decay, r.decay, kRefRelTol)) {
    return c.id + ": sp(R) " + json_double(a.decay) + " vs " +
           json_double(r.decay);
  }
  return {};
}

}  // namespace perfbench
