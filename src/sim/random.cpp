#include "sim/random.h"

#include <cmath>
#include <memory>

#include "linalg/errors.h"
#include "medist/sampler.h"

namespace performa::sim {

Sampler exponential_sampler(double rate) {
  PERFORMA_EXPECTS(rate > 0.0, "exponential_sampler: rate must be positive");
  return [rate](Rng& rng) {
    return std::exponential_distribution<double>(rate)(rng);
  };
}

Sampler exponential_sampler_mean(double mean) {
  PERFORMA_EXPECTS(mean > 0.0, "exponential_sampler_mean: mean > 0");
  return exponential_sampler(1.0 / mean);
}

Sampler me_sampler(const medist::MeDistribution& dist) {
  // Shared so copies of the Sampler stay cheap.
  auto phase_sampler = std::make_shared<medist::PhaseSampler>(dist);
  return [phase_sampler](Rng& rng) { return phase_sampler->sample(rng); };
}

Sampler deterministic_sampler(double value) {
  PERFORMA_EXPECTS(value >= 0.0, "deterministic_sampler: value must be >= 0");
  return [value](Rng&) { return value; };
}

Sampler lognormal_sampler(double mean, double scv) {
  PERFORMA_EXPECTS(mean > 0.0 && scv > 0.0,
                   "lognormal_sampler: mean and scv must be positive");
  // E[X] = exp(mu + s^2/2), Var/E^2 = exp(s^2) - 1.
  const double s2 = std::log(1.0 + scv);
  const double mu = std::log(mean) - 0.5 * s2;
  const double s = std::sqrt(s2);
  return [mu, s](Rng& rng) {
    return std::lognormal_distribution<double>(mu, s)(rng);
  };
}

Sampler bounded_pareto_sampler(double alpha, double x_min, double x_max) {
  PERFORMA_EXPECTS(alpha > 0.0, "bounded_pareto_sampler: alpha > 0");
  PERFORMA_EXPECTS(0.0 < x_min && x_min < x_max,
                   "bounded_pareto_sampler: need 0 < x_min < x_max");
  const double lo = std::pow(x_min, -alpha);
  const double hi = std::pow(x_max, -alpha);
  return [alpha, lo, hi](Rng& rng) {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return std::pow(lo - u * (lo - hi), -1.0 / alpha);
  };
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  // splitmix64 of (base + golden-ratio * (stream+1)).
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace performa::sim
