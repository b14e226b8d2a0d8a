#include "qbd/qbd.h"

#include <cmath>

#include "linalg/ctmc.h"
#include "linalg/kron.h"

namespace performa::qbd {

void QbdBlocks::validate() const {
  const std::size_t m = a1.rows();
  PERFORMA_EXPECTS(m > 0, "QbdBlocks: empty phase space");
  auto check_shape = [m](const Matrix& blk, const char* name) {
    PERFORMA_EXPECTS(blk.rows() == m && blk.cols() == m,
                     std::string("QbdBlocks: block ") + name +
                         " has wrong shape");
  };
  check_shape(b00, "B00");
  check_shape(b01, "B01");
  check_shape(b10, "B10");
  check_shape(a0, "A0");
  check_shape(a1, "A1");
  check_shape(a2, "A2");

  // Sentinel at the model -> solver boundary: a NaN in a block would
  // otherwise survive the sign/row-sum checks in surprising ways and
  // poison every iteration downstream.
  for (const Matrix* blk : {&b00, &b01, &b10, &a0, &a1, &a2}) {
    linalg::check_finite(*blk, "QbdBlocks");
  }

  // Off-level blocks must be non-negative (they are transition rates).
  auto check_nonneg = [](const Matrix& blk, const char* name) {
    for (double x : blk.data()) {
      PERFORMA_EXPECTS(x >= -1e-12, std::string("QbdBlocks: block ") + name +
                                        " has a negative rate");
    }
  };
  check_nonneg(b01, "B01");
  check_nonneg(b10, "B10");
  check_nonneg(a0, "A0");
  check_nonneg(a2, "A2");

  // Each block row of the full generator must sum to zero:
  // boundary: B00 + B01; level 1: B10 + A1 + A0; levels >= 2: A2 + A1 + A0.
  auto check_rowsum = [m](const Matrix& total, const char* what) {
    for (std::size_t r = 0; r < m; ++r) {
      double s = 0.0;
      double scale = 1.0;
      for (std::size_t c = 0; c < m; ++c) {
        s += total(r, c);
        scale = std::max(scale, std::abs(total(r, c)));
      }
      PERFORMA_EXPECTS(std::abs(s) <= 1e-9 * scale,
                       std::string("QbdBlocks: ") + what +
                           " rows do not sum to zero");
    }
  };
  check_rowsum(b00 + b01, "boundary level");
  check_rowsum(b10 + a1 + a0, "level 1");
  check_rowsum(a2 + a1 + a0, "repeating levels");
}

QbdBlocks m_mmpp_1(const map::Mmpp& service, double lambda) {
  PERFORMA_EXPECTS(lambda > 0.0, "m_mmpp_1: lambda must be positive");
  const std::size_t m = service.dim();
  const Matrix& q = service.generator();
  const Matrix lam = lambda * Matrix::identity(m);
  const Matrix svc = service.rate_matrix();

  QbdBlocks blocks;
  blocks.b00 = q - lam;
  blocks.b01 = lam;
  blocks.b10 = svc;
  blocks.a0 = lam;
  blocks.a1 = q - lam - svc;
  blocks.a2 = svc;
  blocks.validate();
  return blocks;
}

QbdBlocks mmpp_m_1(const map::Mmpp& arrivals, double mu) {
  PERFORMA_EXPECTS(mu > 0.0, "mmpp_m_1: mu must be positive");
  const std::size_t m = arrivals.dim();
  const Matrix& q = arrivals.generator();
  const Matrix arr = arrivals.rate_matrix();
  const Matrix srv = mu * Matrix::identity(m);

  QbdBlocks blocks;
  blocks.b00 = q - arr;
  blocks.b01 = arr;
  blocks.b10 = srv;
  blocks.a0 = arr;
  blocks.a1 = q - arr - srv;
  blocks.a2 = srv;
  blocks.validate();
  return blocks;
}

QbdBlocks map_mmpp_1(const map::Map& arrivals, const map::Mmpp& service) {
  const std::size_t a = arrivals.dim();
  const std::size_t m = service.dim();
  const Matrix ia = Matrix::identity(a);
  const Matrix im = Matrix::identity(m);
  const Matrix svc = service.rate_matrix();

  QbdBlocks blocks;
  blocks.a0 = linalg::kron(arrivals.d1(), im);
  blocks.a2 = linalg::kron(ia, svc);
  blocks.a1 = linalg::kron(arrivals.d0(), im) +
              linalg::kron(ia, service.generator() - svc);
  blocks.b00 = linalg::kron(arrivals.d0(), im) +
               linalg::kron(ia, service.generator());
  blocks.b01 = blocks.a0;
  blocks.b10 = blocks.a2;
  blocks.validate();
  return blocks;
}

QbdBlocks map_m_1(const map::Map& arrivals, double mu) {
  PERFORMA_EXPECTS(mu > 0.0, "map_m_1: mu must be positive");
  const map::Mmpp server(Matrix{{0.0}}, Vector{mu});
  return map_mmpp_1(arrivals, server);
}

QbdBlocks m_map_1(const map::Map& service, double lambda) {
  PERFORMA_EXPECTS(lambda > 0.0, "m_map_1: lambda must be positive");
  const std::size_t m = service.dim();
  const Matrix lam = lambda * Matrix::identity(m);

  QbdBlocks blocks;
  blocks.a0 = lam;
  blocks.a1 = service.d0() - lam;
  blocks.a2 = service.d1();
  blocks.b00 = service.generator() - lam;
  blocks.b01 = lam;
  blocks.b10 = service.d1();
  blocks.validate();
  return blocks;
}

namespace {

// Crash-transition matrix of a lumped cluster: the portion of the
// generator in which the number of UP servers decreases (an UP server
// fails). In the Discard model each such transition also removes the task
// the failing server was executing.
Matrix crash_transitions(const map::LumpedAggregate& cluster) {
  const Matrix& q = cluster.mmpp().generator();
  const std::size_t m = cluster.state_count();
  Matrix c(m, m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j || q(i, j) <= 0.0) continue;
      if (cluster.up_count(j) < cluster.up_count(i)) c(i, j) = q(i, j);
    }
  }
  return c;
}

}  // namespace

QbdBlocks m_mmpp_1_discard(const map::LumpedAggregate& cluster,
                           double lambda) {
  PERFORMA_EXPECTS(lambda > 0.0, "m_mmpp_1_discard: lambda must be positive");
  const map::Mmpp& mmpp = cluster.mmpp();
  // Discard semantics require crash faults (delta = 0): a degraded server
  // keeps executing its task, so nothing is discarded. delta > 0 shows up
  // as a positive service rate in all-DOWN states.
  for (std::size_t s = 0; s < cluster.state_count(); ++s) {
    if (cluster.up_count(s) == 0) {
      PERFORMA_EXPECTS(mmpp.rates()[s] == 0.0,
                       "m_mmpp_1_discard: cluster has delta > 0; the Discard "
                       "model applies to crash faults only");
    }
  }
  const std::size_t m = mmpp.dim();
  const Matrix lam = lambda * Matrix::identity(m);
  const Matrix svc = mmpp.rate_matrix();
  const Matrix crash = crash_transitions(cluster);

  QbdBlocks blocks;
  blocks.a0 = lam;
  blocks.a2 = svc + crash;
  blocks.a1 = mmpp.generator() - crash - lam - svc;
  blocks.b00 = mmpp.generator() - lam;
  blocks.b01 = lam;
  blocks.b10 = blocks.a2;
  blocks.validate();
  return blocks;
}

double discard_fraction(const map::LumpedAggregate& cluster, double lambda,
                        const linalg::Vector& pi_levels_ge1) {
  PERFORMA_EXPECTS(lambda > 0.0, "discard_fraction: lambda must be positive");
  PERFORMA_EXPECTS(pi_levels_ge1.size() == cluster.state_count(),
                   "discard_fraction: marginal length mismatch");
  const Matrix crash = crash_transitions(cluster);
  const Vector crash_rates = crash * linalg::ones(cluster.state_count());
  return linalg::dot(pi_levels_ge1, crash_rates) / lambda;
}

double utilization(const QbdBlocks& blocks) {
  const std::size_t m = blocks.phase_dim();
  // Stationary phase vector of the full phase process A = A0 + A1 + A2.
  const Vector pi =
      linalg::stationary_distribution(blocks.a0 + blocks.a1 + blocks.a2);
  const Vector e = linalg::ones(m);
  const double up = linalg::dot(pi, blocks.a0 * e);
  const double down = linalg::dot(pi, blocks.a2 * e);
  PERFORMA_EXPECTS(down > 0.0, "utilization: no service transitions");
  return up / down;
}

bool is_stable(const QbdBlocks& blocks) { return utilization(blocks) < 1.0; }

}  // namespace performa::qbd
