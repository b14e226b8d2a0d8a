#include "verify/metamorphic.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "core/blowup.h"
#include "linalg/errors.h"
#include "map/kron_aggregate.h"
#include "medist/me_dist.h"
#include "medist/tpt.h"
#include "qbd/level_dependent.h"
#include "qbd/qbd.h"
#include "qbd/solution.h"
#include "qbd/trust.h"

namespace performa::verify {
namespace {

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

medist::MeDistribution repair_dist(unsigned t_phases, double alpha,
                                   double theta, double mttr) {
  return t_phases <= 1
             ? medist::exponential_from_mean(mttr)
             : medist::make_tpt(medist::TptSpec{t_phases, alpha, theta, mttr});
}

qbd::QbdSolution solve(const map::Mmpp& mmpp, double lambda) {
  return qbd::QbdSolution(qbd::m_mmpp_1(mmpp, lambda));
}

double rel_diff(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale > 0.0 ? std::abs(a - b) / scale : 0.0;
}

/// Fail with the measured quantities and the spec that reproduces them.
RelationOutcome fail(const ModelDraw& draw, std::string detail) {
  return {false, detail + " [" + draw.spec() + "]"};
}

}  // namespace

std::string ModelDraw::spec() const {
  return format(
      "seed=%u N=%u T=%u nu_p=%.6g delta=%.6g mttf=%.6g mttr=%.6g "
      "alpha=%.6g theta=%.6g rho=%.6g",
      seed, n_servers, t_phases, nu_p, delta, mttf, mttr, alpha, theta, rho);
}

map::ServerModel ModelDraw::server() const {
  return map::ServerModel(medist::exponential_from_mean(mttf),
                          repair_dist(t_phases, alpha, theta, mttr), nu_p,
                          delta);
}

map::Mmpp ModelDraw::mmpp() const {
  return map::LumpedAggregate(server(), n_servers).mmpp();
}

ModelDraw draw_model(unsigned seed) {
  std::mt19937_64 rng(seed);
  auto uni = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  ModelDraw d;
  d.seed = seed;
  d.n_servers = static_cast<unsigned>(1 + rng() % 3);
  d.t_phases = static_cast<unsigned>(1 + rng() % 4);
  d.nu_p = uni(1.0, 3.0);
  d.delta = uni(0.1, 0.5);
  d.mttf = uni(30.0, 120.0);
  d.mttr = uni(2.0, 15.0);
  d.alpha = uni(1.2, 1.8);
  d.theta = uni(0.15, 0.5);
  d.rho = uni(0.2, 0.7);
  return d;
}

RelationOutcome check_rate_scaling(const ModelDraw& draw) {
  const map::Mmpp base = draw.mmpp();
  const double lambda = draw.rho * base.mean_rate();

  // Log-uniform time-scale change over 8 decades: dimensional analysis
  // says the *dimensionless* stationary distribution cannot move.
  std::mt19937_64 rng(0x5ca1eu ^ draw.seed);
  const double c = std::pow(
      10.0, std::uniform_real_distribution<double>(-4.0, 4.0)(rng));
  linalg::Vector scaled_rates = base.rates();
  for (double& r : scaled_rates) r *= c;
  const map::Mmpp scaled(base.generator() * c, std::move(scaled_rates));

  const qbd::QbdSolution a = solve(base, lambda);
  const qbd::QbdSolution b = solve(scaled, lambda * c);

  const double d_mean = rel_diff(a.mean_queue_length(), b.mean_queue_length());
  const double d_empty = rel_diff(a.probability_empty(), b.probability_empty());
  const double d_tail = rel_diff(a.tail(25), b.tail(25));
  const std::string detail = format(
      "c=%.3e dmean=%.3e dempty=%.3e dtail=%.3e", c, d_mean, d_empty, d_tail);
  if (d_mean > 1e-9 || d_empty > 1e-9 || d_tail > 1e-8) {
    return fail(draw, "rate-scaling violated: " + detail);
  }
  return {true, detail};
}

RelationOutcome check_server_permutation(const ModelDraw& draw) {
  // Two *different* servers so the permutation is not vacuous: the
  // second is the draw with perturbed speed, reliability and repair law.
  const map::ServerModel s1 = draw.server();
  std::mt19937_64 rng(0xbad5eedu ^ draw.seed);
  auto uni = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const unsigned t2 = static_cast<unsigned>(1 + rng() % 3);
  const map::ServerModel s2(
      medist::exponential_from_mean(draw.mttf * uni(0.5, 2.0)),
      repair_dist(t2, 1.5, 0.3, draw.mttr * uni(0.5, 2.0)),
      draw.nu_p * uni(0.6, 1.6), std::min(0.9, draw.delta * uni(0.5, 1.8)));

  const map::Mmpp fwd = map::heterogeneous_aggregate({s1, s2});
  const map::Mmpp rev = map::heterogeneous_aggregate({s2, s1});
  const double lambda = draw.rho * fwd.mean_rate();

  const qbd::QbdSolution a = solve(fwd, lambda);
  const qbd::QbdSolution b = solve(rev, lambda);
  const double d_mean = rel_diff(a.mean_queue_length(), b.mean_queue_length());
  const double d_empty = rel_diff(a.probability_empty(), b.probability_empty());
  const std::string detail = format("dmean=%.3e dempty=%.3e", d_mean, d_empty);
  if (d_mean > 1e-9 || d_empty > 1e-9) {
    return fail(draw, "server-permutation violated: " + detail);
  }
  return {true, detail};
}

RelationOutcome check_lumped_vs_full(const ModelDraw& draw) {
  // The full product space is m^N; clamp the draw so the exact chain
  // stays small while the lumping still has something to merge.
  ModelDraw clamped = draw;
  clamped.n_servers = std::min(draw.n_servers, 3u);
  clamped.t_phases = std::min(draw.t_phases, 3u);
  const map::ServerModel server = clamped.server();

  const map::Mmpp lumped =
      map::LumpedAggregate(server, clamped.n_servers).mmpp();
  const map::Mmpp full = map::heterogeneous_aggregate(
      std::vector<map::ServerModel>(clamped.n_servers, server));
  const double lambda = clamped.rho * lumped.mean_rate();

  const qbd::QbdSolution a = solve(lumped, lambda);
  const qbd::QbdSolution b = solve(full, lambda);
  const double d_mean = rel_diff(a.mean_queue_length(), b.mean_queue_length());
  const double d_empty = rel_diff(a.probability_empty(), b.probability_empty());
  const double d_tail = rel_diff(a.tail(10), b.tail(10));
  const std::string detail = format(
      "lumped_dim=%zu full_dim=%zu dmean=%.3e dempty=%.3e dtail=%.3e",
      lumped.dim(), full.dim(), d_mean, d_empty, d_tail);
  if (d_mean > 1e-8 || d_empty > 1e-8 || d_tail > 1e-7) {
    return fail(draw, "lumped-vs-full violated: " + detail);
  }
  return {true, detail};
}

RelationOutcome check_lambda_monotonicity(const ModelDraw& draw) {
  const map::Mmpp mmpp = draw.mmpp();
  const double nu_bar = mmpp.mean_rate();
  double prev = -1.0;
  std::string detail;
  for (const double rho : {0.25, 0.45, 0.65, 0.80, 0.92}) {
    const double eq = solve(mmpp, rho * nu_bar).mean_queue_length();
    detail += format("E[Q](%.2f)=%.6g ", rho, eq);
    if (eq <= prev) {
      return fail(draw,
                  "lambda-monotonicity violated: " + detail +
                      format("(%.6g after %.6g)", eq, prev));
    }
    prev = eq;
  }
  return {true, detail};
}

RelationOutcome check_tail_exponent(const ModelDraw& draw) {
  // Purpose-built blow-up configuration: region i needs i simultaneous
  // long repairs to oversaturate, so use N = i servers with power-tail
  // repair wide enough (T = 20 phases, power-law range gamma^19 ~ 1e4)
  // that the pmf shows a clean power-law window before the truncation
  // kicks in. Only alpha and the region index come from the draw; the
  // paper's prediction is beta_i = i (alpha - 1) + 1.
  const unsigned region = 1 + (draw.seed % 2);
  const double alpha = draw.alpha;
  ModelDraw cfg = draw;
  cfg.n_servers = region;
  cfg.t_phases = 20;
  cfg.alpha = alpha;
  cfg.theta = 0.5;
  cfg.nu_p = 2.0;
  cfg.delta = 0.05;
  cfg.mttf = 90.0;
  cfg.mttr = 10.0;

  const map::Mmpp mmpp = cfg.mmpp();
  core::BlowupParams bp;
  bp.n_servers = cfg.n_servers;
  bp.nu_p = cfg.nu_p;
  bp.delta = cfg.delta;
  bp.availability = cfg.mttf / (cfg.mttf + cfg.mttr);
  const std::vector<double> rhos = core::blowup_utilizations(bp);
  // Sit well inside region i: midway between its boundaries (the upper
  // boundary of region 1 is rho = 1).
  const double hi = region == 1 ? 1.0 : rhos[region - 2];
  const double lo = rhos[region - 1];
  const double rho = lo + 0.5 * (hi - lo);
  const double lambda = rho * mmpp.mean_rate();

  const qbd::QbdSolution sol = solve(mmpp, lambda);
  const double beta = core::tail_exponent(region, alpha);

  // Least-squares slope of log pmf against log k over a geometric grid
  // inside the power-law window (past the boundary levels, before the
  // TPT truncation at ~gamma^{T-1} repair time scales).
  const std::size_t k_lo = 100, k_hi = 2000;
  const linalg::Vector pmf = sol.pmf_upto(k_hi);
  std::vector<double> xs, ys;
  for (std::size_t k = k_lo; k <= k_hi; k = (k * 5) / 4) {
    if (pmf[k] <= 0.0) break;
    xs.push_back(std::log(static_cast<double>(k)));
    ys.push_back(std::log(pmf[k]));
  }
  if (xs.size() < 5) {
    return fail(cfg, "tail-exponent: pmf window collapsed");
  }
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double n = static_cast<double>(xs.size());
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);

  const std::string detail = format(
      "region=%u alpha=%.3f rho=%.3f fitted=%.3f expected=-%.3f", region,
      alpha, rho, slope, beta);
  // Empirically the window's fit sits within 0.03 (region 1) / 0.15
  // (region 2) of beta_i across alpha in [1.2, 1.8]; 0.25 leaves margin
  // while still separating beta_1 = alpha from beta_2 = 2 alpha - 1 and
  // both from a geometric decay, which leaves the band entirely.
  if (std::abs(slope + beta) > 0.25) {
    return fail(cfg, "tail-exponent violated: " + detail);
  }
  return {true, detail};
}

RelationOutcome check_level_dependent_vs_homogeneous(const ModelDraw& draw) {
  // At least two servers, so the level-dependent solve really runs C >= 2
  // boundary levels.
  ModelDraw cfg = draw;
  cfg.n_servers = std::max(draw.n_servers, 2u);
  const map::LumpedAggregate cluster(cfg.server(), cfg.n_servers);
  const double lambda = cfg.rho * cluster.mmpp().mean_rate();
  qbd::LevelDependentBlocks blocks =
      qbd::cluster_level_dependent_blocks(cluster, cfg.nu_p, cfg.delta, lambda);
  for (linalg::Matrix& svc : blocks.service) svc = blocks.service.back();

  const qbd::QbdSolution ld(blocks);
  const qbd::QbdSolution hom = solve(cluster.mmpp(), lambda);
  const double d_mean =
      rel_diff(ld.mean_queue_length(), hom.mean_queue_length());
  const double d_tail = rel_diff(ld.tail(10), hom.tail(10));
  const std::string detail = format("C=%zu dmean=%.3e dtail=%.3e",
                                    ld.boundary_levels(), d_mean, d_tail);
  if (d_mean > 1e-9 || d_tail > 1e-9) {
    return fail(cfg, "ld-vs-homogeneous violated: " + detail);
  }
  return {true, detail};
}

unsigned metamorphic_model_count(unsigned fallback) {
  const char* env = std::getenv("PERFORMA_METAMORPHIC_MODELS");
  if (env == nullptr || *env == '\0') return fallback;
  const unsigned long v = std::strtoul(env, nullptr, 10);
  return v > 0 ? static_cast<unsigned>(v) : fallback;
}

unsigned metamorphic_seed_base(unsigned fallback) {
  const char* env = std::getenv("PERFORMA_METAMORPHIC_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
}

}  // namespace performa::verify
