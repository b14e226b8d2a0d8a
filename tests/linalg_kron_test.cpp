#include "linalg/kron.h"

#include <gtest/gtest.h>

#include "linalg/ctmc.h"
#include "test_util.h"

namespace performa::linalg {
namespace {

using performa::testing::RandomGenerator;
using performa::testing::RandomMatrix;

TEST(Kron, HandComputedProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{0, 1}, {1, 0}};
  Matrix k = kron(a, b);
  ASSERT_EQ(k.rows(), 4u);
  // Block (0,0) = 1*B, block (0,1) = 2*B.
  EXPECT_EQ(k(0, 1), 1.0);
  EXPECT_EQ(k(0, 3), 2.0);
  EXPECT_EQ(k(2, 1), 3.0);
  EXPECT_EQ(k(3, 2), 4.0);
}

TEST(Kron, IdentityKronIdentityIsIdentity) {
  const Matrix k = kron(Matrix::identity(3), Matrix::identity(4));
  EXPECT_LT(max_abs_diff(k, Matrix::identity(12)), 1e-15);
}

TEST(Kron, MixedProductProperty) {
  // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
  const Matrix a = RandomMatrix(2, 1);
  const Matrix b = RandomMatrix(3, 2);
  const Matrix c = RandomMatrix(2, 3);
  const Matrix d = RandomMatrix(3, 4);
  EXPECT_LT(max_abs_diff(kron(a, b) * kron(c, d), kron(a * c, b * d)), 1e-12);
}

TEST(Kron, VectorIdentity) {
  // (A ⊗ B)(x ⊗ y) = (Ax) ⊗ (By)
  const Matrix a = RandomMatrix(3, 5);
  const Matrix b = RandomMatrix(2, 6);
  const Vector x{1.0, -2.0, 0.5};
  const Vector y{0.3, 2.0};
  EXPECT_LT(max_abs_diff(kron(a, b) * kron(x, y), kron(a * x, b * y)), 1e-13);
}

TEST(KronSum, RequiresSquare) {
  EXPECT_THROW(kron_sum(Matrix(2, 3), Matrix::identity(2)), InvalidArgument);
}

TEST(KronSum, GeneratorClosedUnderKronSum) {
  // The Kronecker sum of two generators is the generator of the joint
  // independent chain.
  const Matrix q1 = RandomGenerator(3, 7);
  const Matrix q2 = RandomGenerator(4, 8);
  const Matrix joint = kron_sum(q1, q2);
  EXPECT_TRUE(is_generator(joint));
}

TEST(KronSum, JointStationaryIsProduct) {
  // pi_joint = pi_1 ⊗ pi_2 for independent chains.
  const Matrix q1 = RandomGenerator(3, 17);
  const Matrix q2 = RandomGenerator(2, 18);
  const Vector pi1 = stationary_distribution(q1);
  const Vector pi2 = stationary_distribution(q2);
  const Vector joint = stationary_distribution(kron_sum(q1, q2));
  EXPECT_LT(max_abs_diff(joint, kron(pi1, pi2)), 1e-12);
}

// Property: exp over Kronecker sum factorizes -- checked indirectly via
// stationary vectors across a parameter sweep of chain sizes.
class KronSumProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(KronSumProperty, StationaryFactorizes) {
  const auto [n1, n2] = GetParam();
  const Matrix q1 = RandomGenerator(n1, static_cast<unsigned>(10 * n1 + n2));
  const Matrix q2 = RandomGenerator(n2, static_cast<unsigned>(20 * n2 + n1));
  const Vector joint = stationary_distribution(kron_sum(q1, q2));
  const Vector product =
      kron(stationary_distribution(q1), stationary_distribution(q2));
  EXPECT_LT(max_abs_diff(joint, product), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KronSumProperty,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{2, 2},
                                           std::pair<std::size_t, std::size_t>{2, 5},
                                           std::pair<std::size_t, std::size_t>{4, 3},
                                           std::pair<std::size_t, std::size_t>{6, 2},
                                           std::pair<std::size_t, std::size_t>{5, 5}));

}  // namespace
}  // namespace performa::linalg
