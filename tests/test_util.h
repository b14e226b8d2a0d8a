// Shared helpers for the performa test suite.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace performa::testing {

/// EXPECT that |a-b| <= tol * max(1, |a|, |b|): relative with an absolute
/// floor, the right shape for quantities spanning many decades.
inline void ExpectClose(double a, double b, double tol,
                        const char* what = "value") {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  EXPECT_LE(std::abs(a - b), tol * scale)
      << what << ": " << a << " vs " << b;
}

/// Random test matrix with entries uniform in [-1, 1], seeded
/// deterministically per (seed) so failures reproduce.
inline linalg::Matrix RandomMatrix(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  linalg::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = uni(rng);
  return m;
}

/// Diagonally dominant random matrix: guaranteed nonsingular.
inline linalg::Matrix RandomDominantMatrix(std::size_t n, unsigned seed) {
  linalg::Matrix m = RandomMatrix(n, seed);
  for (std::size_t r = 0; r < n; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < n; ++c) row += std::abs(m(r, c));
    m(r, r) += row + 1.0;
  }
  return m;
}

/// Random irreducible CTMC generator (all off-diagonal rates positive).
inline linalg::Matrix RandomGenerator(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.05, 2.0);
  linalg::Matrix q(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c) continue;
      q(r, c) = uni(rng);
      total += q(r, c);
    }
    q(r, r) = -total;
  }
  return q;
}

/// Names of the files beside `path` that start with its file name
/// followed by `infix` -- e.g. ".frag." finds per-worker copies of a
/// shared file, ".flight." the flight files under a prefix.
inline std::vector<std::string> SiblingFiles(const std::string& path,
                                             const std::string& infix) {
  const std::filesystem::path p(path);
  const std::string prefix = p.filename().string() + infix;
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(p.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) found.push_back(name);
  }
  return found;
}

}  // namespace performa::testing
