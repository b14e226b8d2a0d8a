#include "medist/me_dist.h"

#include <cmath>
#include <ostream>
#include <utility>

#include "linalg/expm.h"
#include "linalg/lu.h"

namespace performa::medist {

MeDistribution::MeDistribution(Vector p, Matrix b, std::string name)
    : p_(std::move(p)), b_(std::move(b)), name_(std::move(name)) {
  PERFORMA_EXPECTS(!p_.empty(), "MeDistribution: empty entry vector");
  PERFORMA_EXPECTS(b_.is_square() && b_.rows() == p_.size(),
                   "MeDistribution: p/B shape mismatch");
  double total = 0.0;
  for (double x : p_) {
    PERFORMA_EXPECTS(x >= -1e-12, "MeDistribution: negative entry probability");
    total += x;
  }
  PERFORMA_EXPECTS(std::abs(total - 1.0) < 1e-9,
                   "MeDistribution: entry vector must sum to 1");
  const double m = moment(1);
  PERFORMA_EXPECTS(std::isfinite(m) && m > 0.0,
                   "MeDistribution: mean must be finite and positive");
}

double MeDistribution::moment(unsigned k) const {
  PERFORMA_EXPECTS(k >= 1, "MeDistribution::moment: k must be >= 1");
  // E[X^k] = k! p (B^{-1})^k e: repeated solves against B.
  const linalg::Lu lu(b_);
  Vector v = linalg::ones(dim());
  double factorial = 1.0;
  for (unsigned i = 1; i <= k; ++i) {
    v = lu.solve(v);
    factorial *= i;
  }
  return factorial * linalg::dot(p_, v);
}

double MeDistribution::variance() const {
  const double m1 = moment(1);
  return moment(2) - m1 * m1;
}

double MeDistribution::scv() const {
  const double m1 = moment(1);
  return variance() / (m1 * m1);
}

double MeDistribution::reliability(double t) const {
  PERFORMA_EXPECTS(t >= 0.0, "reliability: t must be >= 0");
  if (t == 0.0) return 1.0;
  const Matrix e = linalg::expm(-t * b_);
  return linalg::dot(p_, e * linalg::ones(dim()));
}

double MeDistribution::density(double t) const {
  PERFORMA_EXPECTS(t >= 0.0, "density: t must be >= 0");
  const Matrix e = linalg::expm(-t * b_);
  return linalg::dot(p_, e * exit_rates());
}

Vector MeDistribution::exit_rates() const {
  return b_ * linalg::ones(dim());
}

MeDistribution MeDistribution::scaled_to_mean(double new_mean) const {
  PERFORMA_EXPECTS(new_mean > 0.0, "scaled_to_mean: mean must be positive");
  const double factor = mean() / new_mean;
  return MeDistribution(p_, factor * b_, name_);
}

bool MeDistribution::is_phase_type(double tol) const noexcept {
  for (std::size_t i = 0; i < dim(); ++i) {
    if (b_(i, i) <= 0.0) return false;
    for (std::size_t j = 0; j < dim(); ++j) {
      if (i != j && b_(i, j) > tol) return false;
    }
  }
  const Vector exits = b_ * linalg::ones(dim());
  for (double x : exits) {
    if (x < -tol) return false;
  }
  return true;
}

MeDistribution exponential_dist(double rate) {
  PERFORMA_EXPECTS(rate > 0.0, "exponential_dist: rate must be positive");
  return MeDistribution(Vector{1.0}, Matrix{{rate}}, "exp");
}

MeDistribution exponential_from_mean(double mean) {
  PERFORMA_EXPECTS(mean > 0.0, "exponential_from_mean: mean must be positive");
  return exponential_dist(1.0 / mean);
}

MeDistribution erlang_dist(unsigned k, double mean) {
  PERFORMA_EXPECTS(k >= 1, "erlang_dist: k must be >= 1");
  PERFORMA_EXPECTS(mean > 0.0, "erlang_dist: mean must be positive");
  const double rate = static_cast<double>(k) / mean;
  Matrix b(k, k, 0.0);
  for (unsigned i = 0; i < k; ++i) {
    b(i, i) = rate;
    if (i + 1 < k) b(i, i + 1) = -rate;
  }
  Vector p(k, 0.0);
  p[0] = 1.0;
  return MeDistribution(std::move(p), std::move(b), "erlang-" + std::to_string(k));
}

MeDistribution hyperexponential_dist(const Vector& probs, const Vector& rates,
                                     std::string name) {
  PERFORMA_EXPECTS(!probs.empty() && probs.size() == rates.size(),
                   "hyperexponential_dist: probs/rates length mismatch");
  for (double r : rates) {
    PERFORMA_EXPECTS(r > 0.0, "hyperexponential_dist: rates must be positive");
  }
  return MeDistribution(probs, Matrix::diag(rates), std::move(name));
}

std::ostream& operator<<(std::ostream& os, const MeDistribution& d) {
  return os << d.name() << " order=" << d.dim() << " mean=" << d.mean();
}

}  // namespace performa::medist
