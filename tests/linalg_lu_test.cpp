#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "test_util.h"

namespace performa::linalg {
namespace {

using performa::testing::RandomDominantMatrix;
using performa::testing::RandomMatrix;

TEST(Lu, SolvesHandSystem) {
  Matrix a{{2, 1}, {1, 3}};
  Vector b{3, 5};
  Vector x = solve(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-14);
  EXPECT_NEAR(x[1], 1.4, 1e-14);
}

TEST(Lu, DeterminantHandComputed) {
  EXPECT_NEAR(Lu(Matrix{{2, 1}, {1, 3}}).determinant(), 5.0, 1e-14);
  // Pivoting flips the sign internally; determinant must not.
  EXPECT_NEAR(Lu(Matrix{{0, 1}, {1, 0}}).determinant(), -1.0, 1e-14);
}

TEST(Lu, SingularThrows) {
  EXPECT_THROW(Lu(Matrix{{1, 2}, {2, 4}}), NumericalError);
  EXPECT_THROW(Lu(Matrix{{0, 0}, {0, 0}}), NumericalError);
}

TEST(Lu, NonSquareThrows) {
  EXPECT_THROW(Lu(Matrix(2, 3)), InvalidArgument);
}

TEST(Lu, LengthMismatchThrows) {
  Lu lu(Matrix{{1, 0}, {0, 1}});
  EXPECT_THROW(lu.solve(Vector{1.0}), InvalidArgument);
  EXPECT_THROW(lu.solve_left(Vector{1.0, 2.0, 3.0}), InvalidArgument);
}

TEST(Lu, InverseOfIdentityIsIdentity) {
  const Matrix eye = Matrix::identity(4);
  EXPECT_LT(max_abs_diff(inverse(eye), eye), 1e-15);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a{{0, 1}, {1, 0}};
  Vector x = solve(a, Vector{2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, SolveLeftMatchesTransposedSolve) {
  const Matrix a = RandomDominantMatrix(7, 11);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  Vector b(7);
  for (double& x : b) x = uni(rng);

  const Vector x_left = Lu(a).solve_left(b);
  const Vector x_t = Lu(a.transposed()).solve(b);
  EXPECT_LT(max_abs_diff(x_left, x_t), 1e-11);
}

TEST(Lu, MatrixRhsSolve) {
  const Matrix a = RandomDominantMatrix(5, 3);
  const Matrix b = RandomMatrix(5, 4);
  const Matrix x = solve(a, b);
  EXPECT_LT(max_abs_diff(a * x, b), 1e-11);
}

TEST(Lu, SolveLeftMatrixRhs) {
  const Matrix a = RandomDominantMatrix(5, 8);
  const Matrix b = RandomMatrix(5, 9);
  const Matrix x = Lu(a).solve_left(b);
  EXPECT_LT(max_abs_diff(x * a, b), 1e-11);
}

// Property sweep across sizes and seeds: residuals of solve/inverse.
// gtest prints a parameter without operator<< as its raw bytes, and the
// CTest name embeds that text, so the case must have no padding bytes.
struct LuCase {
  std::size_t n;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<LuCase>);

class LuProperty : public ::testing::TestWithParam<LuCase> {};

TEST_P(LuProperty, ResidualsSmall) {
  const auto [n, seed] = GetParam();
  const Matrix a = RandomDominantMatrix(n, static_cast<unsigned>(seed));
  std::mt19937_64 rng(seed + 1);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  Vector b(n);
  for (double& x : b) x = uni(rng);

  const Lu lu(a);
  const Vector x = lu.solve(b);
  Vector residual = a * x;
  for (std::size_t i = 0; i < n; ++i) residual[i] -= b[i];
  EXPECT_LT(norm_inf(residual), 1e-10);

  const Matrix inv = lu.inverse();
  EXPECT_LT(max_abs_diff(a * inv, Matrix::identity(n)), 1e-9);
  EXPECT_LT(max_abs_diff(inv * a, Matrix::identity(n)), 1e-9);

  // det(A) * det(A^{-1}) == 1
  EXPECT_NEAR(lu.determinant() * Lu(inv).determinant(), 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LuProperty,
    ::testing::Values(LuCase{1, 0}, LuCase{2, 1}, LuCase{3, 2}, LuCase{5, 3},
                      LuCase{8, 4}, LuCase{16, 5}, LuCase{32, 6},
                      LuCase{64, 7}, LuCase{100, 8}));

// Regression guard: general (non-dominant) random matrices force real row
// pivoting; a permutation-handling bug in solve() once survived the
// dominant-only sweep above.
class LuPivotingProperty : public ::testing::TestWithParam<LuCase> {};

TEST_P(LuPivotingProperty, PivotedSolvesAreAccurate) {
  const auto [n, seed] = GetParam();
  const Matrix a = RandomMatrix(n, static_cast<unsigned>(seed));
  std::mt19937_64 rng(seed + 77);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  Vector b(n);
  for (double& x : b) x = uni(rng);

  const Lu lu(a);
  {
    const Vector x = lu.solve(b);
    Vector residual = a * x;
    for (std::size_t i = 0; i < n; ++i) residual[i] -= b[i];
    EXPECT_LT(norm_inf(residual), 1e-9 * std::max(1.0, norm_inf(x)));
  }
  {
    const Vector x = lu.solve_left(b);
    Vector residual = x * a;
    for (std::size_t i = 0; i < n; ++i) residual[i] -= b[i];
    EXPECT_LT(norm_inf(residual), 1e-9 * std::max(1.0, norm_inf(x)));
  }
  EXPECT_LT(max_abs_diff(a * lu.inverse(), Matrix::identity(n)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LuPivotingProperty,
    ::testing::Values(LuCase{2, 10}, LuCase{3, 1}, LuCase{3, 11},
                      LuCase{4, 12}, LuCase{5, 13}, LuCase{8, 14},
                      LuCase{8, 15}, LuCase{16, 16}, LuCase{33, 17},
                      LuCase{64, 18}));

}  // namespace
}  // namespace performa::linalg
