// Matrix-exponential (ME) distributions in LAQT vector-matrix notation.
//
// A distribution is the pair <p, B> (Lipsky, "Queueing Theory: A Linear
// Algebraic Approach"): p is the entry (startup) row vector and B the
// service-rate matrix, giving
//
//   reliability  R(t) = Pr(X > t) = p exp(-B t) e
//   moments      E[X^k]           = k! * p B^{-k} e
//
// For phase-type members of the family (everything this paper needs:
// exponential, Erlang, hyperexponential, truncated power-tail), B = -T
// where T is the transient generator block, so B has positive diagonal
// and non-positive off-diagonal entries.
#pragma once

#include <iosfwd>
#include <string>

#include "linalg/matrix.h"

namespace performa::medist {

using linalg::Matrix;
using linalg::Vector;

/// Immutable matrix-exponential distribution <p, B>.
class MeDistribution {
 public:
  /// Construct from an entry vector and rate matrix. `name` is carried
  /// along for diagnostics and plot legends.
  /// Throws InvalidArgument if p/B shapes mismatch, p is not a probability
  /// vector, or the implied mean is not finite and positive.
  MeDistribution(Vector p, Matrix b, std::string name = "me");

  const Vector& entry_vector() const noexcept { return p_; }
  const Matrix& rate_matrix() const noexcept { return b_; }
  const std::string& name() const noexcept { return name_; }
  std::size_t dim() const noexcept { return p_.size(); }

  /// k-th raw moment E[X^k] (k >= 1): k! * p B^{-k} e.
  double moment(unsigned k) const;

  double mean() const { return moment(1); }
  double variance() const;
  /// Squared coefficient of variation Var/Mean^2.
  double scv() const;

  /// Reliability function Pr(X > t); evaluated via the matrix exponential.
  double reliability(double t) const;
  /// CDF Pr(X <= t).
  double cdf(double t) const { return 1.0 - reliability(t); }
  /// Density f(t) = p exp(-B t) B e.
  double density(double t) const;

  /// Exit-rate (absorption) vector b = B e.
  Vector exit_rates() const;

  /// Copy rescaled so that the mean equals `new_mean` (time-scale change:
  /// B is multiplied by mean()/new_mean).
  MeDistribution scaled_to_mean(double new_mean) const;

  /// True iff <p,B> has phase-type sign structure (positive diagonal,
  /// non-positive off-diagonal, non-negative exit rates), so the phase
  /// interpretation -- and exact simulation -- is valid.
  bool is_phase_type(double tol = 1e-12) const noexcept;

 private:
  Vector p_;
  Matrix b_;
  std::string name_;
};

// --- factories --------------------------------------------------------------

/// Exponential distribution with the given rate (1 phase).
MeDistribution exponential_dist(double rate);

/// Exponential distribution with the given mean.
MeDistribution exponential_from_mean(double mean);

/// Erlang-k with given overall mean (k sequential phases of rate k/mean).
MeDistribution erlang_dist(unsigned k, double mean);

/// General hyperexponential: entry probability probs[i] into an
/// exponential phase of rate rates[i]. probs must sum to 1.
MeDistribution hyperexponential_dist(const Vector& probs, const Vector& rates,
                                     std::string name = "hyperexp");

/// One-line summary "<name> order=<dim> mean=<mean>" for diagnostics and
/// test names; prints no addresses, so the text is reproducible.
std::ostream& operator<<(std::ostream& os, const MeDistribution& d);

}  // namespace performa::medist
