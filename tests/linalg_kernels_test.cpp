// Kernel-equivalence harness for the pluggable linalg backends.
//
// The reference backend is the executable specification; these property
// tests pin the blocked/threaded backend to it:
//
//   * GEMM / GEMM-subtract, LU factorization, multi-RHS solves and the
//     matrix exponential agree element-wise to <= 8 ulps (signed zeros
//     compare equal) across sizes 1..97 -- prime and odd sizes exercise
//     every tile-remainder path -- and across sizes >= 128 where the
//     panel/GEMM LU formulation actually engages.
//   * GEMV (the power stage of qbd::spectral_radius) agrees to 0 ulps:
//     both backends replay the original Matrix*Vector loop's rounding.
//   * Pivot decisions are *identical*, not merely close: the blocked LU
//     must choose the reference's permutation.
//   * Both backends raise the same error taxonomy (InvalidArgument,
//     NumericalError on singularity, DeadlineError on expiry) from the
//     same inputs.
//   * Results are bit-identical for any PERFORMA_THREADS value (the
//     determinism contract of DESIGN.md section 12), and pool_shutdown()
//     leaves no worker thread behind.
#include "linalg/kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "linalg/expm.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/pool.h"
#include "obs/deadline.h"
#include "test_util.h"

namespace performa::linalg {
namespace {

using performa::testing::RandomDominantMatrix;
using performa::testing::RandomMatrix;

// RAII backend override so a failing test cannot leak its backend (or a
// thread-count override) into the rest of the suite.
class BackendGuard {
 public:
  explicit BackendGuard(KernelBackend b) : saved_(kernel_backend()) {
    set_kernel_backend(b);
  }
  ~BackendGuard() { set_kernel_backend(saved_); }

 private:
  KernelBackend saved_;
};

class ThreadGuard {
 public:
  explicit ThreadGuard(unsigned n) { set_pool_threads(n); }
  ~ThreadGuard() { set_pool_threads(0); }
};

// Distance in representable doubles, the unit the equivalence contract is
// written in. Signed zeros are equal; any NaN/Inf disagreement is maximal.
std::uint64_t UlpDistance(double a, double b) {
  if (a == b) return 0;  // covers +0.0 vs -0.0
  if (!std::isfinite(a) || !std::isfinite(b)) return UINT64_MAX;
  if ((a < 0) != (b < 0)) return UINT64_MAX;
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua > ub ? ua - ub : ub - ua;
}

std::uint64_t MaxUlpDiff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    worst = std::max(worst, UlpDistance(a.data()[i], b.data()[i]));
  }
  return worst;
}

// Sizes 1..97 with every tile-remainder class represented: below/at/above
// the 4x8 micro-kernel, the 32-row GEMM strip, the 64-column solve chunk,
// and primes that are remainders against all of them at once.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17,
                              24, 31, 32, 33, 47, 48, 63, 64, 65, 79,
                              80, 89, 96, 97};

// Sizes past the 2*kPanel threshold where lu_factor dispatches the
// panel/GEMM formulation (prime 131/193 exercise ragged final panels).
const std::size_t kBlockedLuSizes[] = {128, 131, 160, 193};

Matrix RectRandom(std::size_t r, std::size_t c, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  Matrix m(r, c);
  for (auto& x : m.data()) x = uni(rng);
  return m;
}

// A random matrix with ~60% exact zeros: drives the mostly_zero probe
// into the sparse (zero-skipping) path on one operand shape and not the
// other, so both dispatch arms get compared against the reference.
Matrix SparseRandom(std::size_t r, std::size_t c, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  Matrix m(r, c, 0.0);
  for (auto& x : m.data()) {
    if (rng() % 10 < 4) x = uni(rng);
  }
  return m;
}

Matrix GemmWith(KernelBackend backend, const Matrix& a, const Matrix& b) {
  BackendGuard guard(backend);
  return a * b;
}

TEST(KernelEquivalence, GemmMatchesReferenceAcrossSizes) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Matrix a = RandomMatrix(n, static_cast<unsigned>(1000 + n));
    const Matrix b = RandomMatrix(n, static_cast<unsigned>(2000 + n));
    const Matrix ref = GemmWith(KernelBackend::kReference, a, b);
    const Matrix blk = GemmWith(KernelBackend::kBlocked, a, b);
    EXPECT_LE(MaxUlpDiff(ref, blk), 8u);
  }
}

TEST(KernelEquivalence, GemmMatchesReferenceOnRectangles) {
  // Non-square shapes: every (m, k, n) is a different remainder pattern.
  const std::size_t shapes[][3] = {{1, 97, 5},  {33, 1, 64}, {97, 13, 1},
                                   {5, 64, 33}, {64, 97, 7}, {31, 8, 89}};
  unsigned seed = 77;
  for (const auto& s : shapes) {
    SCOPED_TRACE(std::to_string(s[0]) + "x" + std::to_string(s[1]) + "x" +
                 std::to_string(s[2]));
    const Matrix a = RectRandom(s[0], s[1], ++seed);
    const Matrix b = RectRandom(s[1], s[2], ++seed);
    const Matrix ref = GemmWith(KernelBackend::kReference, a, b);
    const Matrix blk = GemmWith(KernelBackend::kBlocked, a, b);
    EXPECT_LE(MaxUlpDiff(ref, blk), 8u);
  }
}

TEST(KernelEquivalence, GemmSparseOperandTakesSameValuePath) {
  for (const std::size_t n : {17u, 64u, 97u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Matrix a = SparseRandom(n, n, 300 + static_cast<unsigned>(n));
    const Matrix b = RandomMatrix(n, 400 + static_cast<unsigned>(n));
    const Matrix ref = GemmWith(KernelBackend::kReference, a, b);
    const Matrix blk = GemmWith(KernelBackend::kBlocked, a, b);
    EXPECT_LE(MaxUlpDiff(ref, blk), 8u);
  }
}

TEST(KernelEquivalence, GemmSubMatchesReference) {
  for (const std::size_t n : {5u, 31u, 64u, 97u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Matrix a = RandomMatrix(n, 500 + static_cast<unsigned>(n));
    const Matrix b = RandomMatrix(n, 600 + static_cast<unsigned>(n));
    Matrix c_ref = RandomMatrix(n, 700 + static_cast<unsigned>(n));
    Matrix c_blk = c_ref;
    {
      BackendGuard guard(KernelBackend::kReference);
      kern::gemm_sub(n, n, n, a.data().data(), n, b.data().data(), n,
                     c_ref.data().data(), n);
    }
    {
      BackendGuard guard(KernelBackend::kBlocked);
      kern::gemm_sub(n, n, n, a.data().data(), n, b.data().data(), n,
                     c_blk.data().data(), n);
    }
    EXPECT_LE(MaxUlpDiff(c_ref, c_blk), 8u);
  }
}

// Adversarial gemv operand: magnitudes spread over 1e-150..1e150 with
// random signs (so sums cancel and products land anywhere from subnormal
// to ~1e300, still finite), plus exact zeros and subnormal entries.
double AdversarialEntry(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> mant(1.0, 10.0);
  std::uniform_int_distribution<int> expo(-150, 150);
  switch (rng() % 8) {
    case 0:
      return 0.0;
    case 1:
      return (rng() % 2 ? -1.0 : 1.0) * 4.9e-320 * mant(rng);  // subnormal
    default:
      return (rng() % 2 ? -1.0 : 1.0) * mant(rng) *
             std::pow(10.0, expo(rng));
  }
}

// y = A*x through kern::gemv on `backend`. A^T is stored with a padded
// leading dimension whose padding is NaN, and y carries a sentinel past
// its end: a kernel that reads padding or writes past row m shows up.
Vector GemvWith(KernelBackend backend, const Matrix& a, const Vector& x) {
  BackendGuard guard(backend);
  const std::size_t m = a.rows(), n = a.cols(), ld = m + 5;
  std::vector<double> at(n * ld, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) at[j * ld + i] = a(i, j);
  Vector y(m + 1, 42.0);
  kern::gemv(m, n, at.data(), ld, x.data(), y.data());
  EXPECT_EQ(y[m], 42.0) << "gemv wrote past row m";
  y.pop_back();
  return y;
}

TEST(KernelEquivalence, GemvMatchesReference) {
  // 0 ulps: both backends sum each row in ascending j with a separate
  // multiply and add, exactly like the original Matrix*Vector loop
  // (recomputed inline here). Sizes straddle the 8-lane vectors and the
  // 16-row pass, up to the cold workloads' phase counts.
  std::mt19937_64 rng(2024);
  for (const std::size_t n : {1u, 2u, 7u, 15u, 16u, 17u, 66u, 165u, 201u,
                              231u}) {
    for (const std::size_t m : {n, n + 9}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      Matrix a(m, n);
      for (double& v : a.data()) v = AdversarialEntry(rng);
      Vector x(n);
      for (double& v : x) v = AdversarialEntry(rng);
      for (const Vector& xv : {x, Vector(n, 0.0)}) {
        Vector original(m);
        for (std::size_t i = 0; i < m; ++i) {
          double acc = 0.0;
          for (std::size_t j = 0; j < n; ++j) acc += a(i, j) * xv[j];
          original[i] = acc;
        }
        const Vector ref = GemvWith(KernelBackend::kReference, a, xv);
        const Vector blk = GemvWith(KernelBackend::kBlocked, a, xv);
        for (std::size_t i = 0; i < m; ++i) {
          ASSERT_EQ(UlpDistance(original[i], ref[i]), 0u) << "row " << i;
          ASSERT_EQ(UlpDistance(ref[i], blk[i]), 0u) << "row " << i;
        }
        for (const KernelBackend b :
             {KernelBackend::kReference, KernelBackend::kBlocked}) {
          BackendGuard guard(b);
          EXPECT_EQ((a * xv), ref) << to_string(b);
        }
      }
    }
  }
}

struct LuFactors {
  Matrix lu{0, 0};
  std::vector<std::size_t> piv;
  int sign = 1;
  double min_pivot = 0.0;
};

LuFactors FactorWith(KernelBackend backend, const Matrix& a) {
  BackendGuard guard(backend);
  LuFactors f;
  f.lu = a;
  f.piv.resize(a.rows());
  f.min_pivot = std::numeric_limits<double>::infinity();
  kern::lu_factor(a.rows(), f.lu.data().data(), a.rows(), f.piv.data(),
                  &f.sign, &f.min_pivot);
  return f;
}

TEST(KernelEquivalence, LuFactorsMatchAcrossSmallSizes) {
  // Below 2*kPanel both backends share the rank-1 loop; the contract must
  // hold trivially (and exactly) there too.
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Matrix a = RandomDominantMatrix(n, 900 + static_cast<unsigned>(n));
    const LuFactors ref = FactorWith(KernelBackend::kReference, a);
    const LuFactors blk = FactorWith(KernelBackend::kBlocked, a);
    EXPECT_EQ(ref.piv, blk.piv);
    EXPECT_EQ(ref.sign, blk.sign);
    EXPECT_EQ(MaxUlpDiff(ref.lu, blk.lu), 0u);
    EXPECT_EQ(UlpDistance(ref.min_pivot, blk.min_pivot), 0u);
  }
}

TEST(KernelEquivalence, BlockedLuMatchesReferencePivotsAndFactors) {
  for (const std::size_t n : kBlockedLuSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Plain random (not diagonally dominant) so pivoting has real work:
    // row swaps happen at nearly every elimination step.
    Matrix a = RandomMatrix(n, 1100 + static_cast<unsigned>(n));
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;  // keep regular
    const LuFactors ref = FactorWith(KernelBackend::kReference, a);
    const LuFactors blk = FactorWith(KernelBackend::kBlocked, a);
    EXPECT_EQ(ref.piv, blk.piv) << "pivot chains diverged";
    EXPECT_EQ(ref.sign, blk.sign);
    EXPECT_LE(MaxUlpDiff(ref.lu, blk.lu), 8u);
    EXPECT_LE(UlpDistance(ref.min_pivot, blk.min_pivot), 8u);
  }
}

TEST(KernelEquivalence, LuSolveMultiRhsMatchesReference) {
  for (const std::size_t n : {7u, 33u, 65u, 97u}) {
    for (const std::size_t nrhs : {1u, 5u, 64u, 96u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " nrhs=" + std::to_string(nrhs));
      const Matrix a =
          RandomDominantMatrix(n, 1300 + static_cast<unsigned>(n + nrhs));
      const Matrix b =
          RectRandom(n, nrhs, 1400 + static_cast<unsigned>(n + nrhs));
      Matrix x_ref(0, 0), x_blk(0, 0);
      {
        BackendGuard guard(KernelBackend::kReference);
        x_ref = Lu(a).solve(b);
      }
      {
        BackendGuard guard(KernelBackend::kBlocked);
        x_blk = Lu(a).solve(b);
      }
      EXPECT_LE(MaxUlpDiff(x_ref, x_blk), 8u);
    }
  }
}

TEST(KernelEquivalence, LuSolveLeftMultiRowMatchesReference) {
  for (const std::size_t n : {7u, 33u, 65u, 97u}) {
    for (const std::size_t nrows : {1u, 9u, 64u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " nrows=" + std::to_string(nrows));
      const Matrix a =
          RandomDominantMatrix(n, 1500 + static_cast<unsigned>(n + nrows));
      const Matrix b =
          RectRandom(nrows, n, 1600 + static_cast<unsigned>(n + nrows));
      Matrix x_ref(0, 0), x_blk(0, 0);
      {
        BackendGuard guard(KernelBackend::kReference);
        x_ref = Lu(a).solve_left(b);
      }
      {
        BackendGuard guard(KernelBackend::kBlocked);
        x_blk = Lu(a).solve_left(b);
      }
      EXPECT_LE(MaxUlpDiff(x_ref, x_blk), 8u);
    }
  }
}

TEST(KernelEquivalence, ExpmMatchesReference) {
  // expm = Pade-13 over repeated GEMMs + LU solve + squarings: an
  // end-to-end composition of every kernel under test.
  for (const std::size_t n : {3u, 17u, 48u, 65u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::mt19937_64 rng(1700 + n);
    std::uniform_real_distribution<double> uni(0.05, 2.0);
    Matrix q(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      double total = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        if (r == c) continue;
        q(r, c) = uni(rng);
        total += q(r, c);
      }
      q(r, r) = -total;
    }
    Matrix e_ref(0, 0), e_blk(0, 0);
    {
      BackendGuard guard(KernelBackend::kReference);
      e_ref = expm(5.0 * q);
    }
    {
      BackendGuard guard(KernelBackend::kBlocked);
      e_blk = expm(5.0 * q);
    }
    EXPECT_LE(MaxUlpDiff(e_ref, e_blk), 8u);
  }
}

// --- Error taxonomy: both backends refuse the same inputs the same way ---

TEST(KernelErrorTaxonomy, SingularThrowsNumericalErrorInBothBackends) {
  for (const KernelBackend backend :
       {KernelBackend::kReference, KernelBackend::kBlocked}) {
    SCOPED_TRACE(to_string(backend));
    BackendGuard guard(backend);
    // Small: the shared rank-1 path.
    EXPECT_THROW(Lu(Matrix{{1, 2}, {2, 4}}), NumericalError);
    // Large enough for the blocked panel path, singular in the *second*
    // panel: a zero column at 140 only surfaces after one full panel and
    // its trailing update have run.
    Matrix a = RandomDominantMatrix(160, 42);
    for (std::size_t i = 0; i < 160; ++i) a(i, 140) = 0.0;
    EXPECT_THROW(Lu{a}, NumericalError);
  }
}

TEST(KernelErrorTaxonomy, ShapeErrorsAreBackendIndependent) {
  for (const KernelBackend backend :
       {KernelBackend::kReference, KernelBackend::kBlocked}) {
    SCOPED_TRACE(to_string(backend));
    BackendGuard guard(backend);
    EXPECT_THROW(Lu(Matrix(2, 3)), InvalidArgument);
    EXPECT_THROW(Matrix(2, 2) * Matrix(3, 3), InvalidArgument);
  }
}

TEST(KernelErrorTaxonomy, ExpiredDeadlineAbortsLargeLuInBothBackends) {
  for (const KernelBackend backend :
       {KernelBackend::kReference, KernelBackend::kBlocked}) {
    SCOPED_TRACE(to_string(backend));
    BackendGuard guard(backend);
    const Matrix a = RandomDominantMatrix(160, 43);
    obs::DeadlineScope scope(obs::Deadline::after_seconds(-1.0));
    EXPECT_THROW(Lu{a}, DeadlineError);
    // Small factorizations never poll: they must still complete.
    EXPECT_NO_THROW(Lu(RandomDominantMatrix(16, 44)));
  }
}

TEST(KernelErrorTaxonomy, IllConditionedStillFactorsIdentically) {
  // Near-singular but representable: a graded matrix with row scales down
  // to 1e-12. Both backends must agree on pivots, factors, and the
  // min-pivot diagnostic that feeds the condition estimate.
  const std::size_t n = 150;
  Matrix a = RandomDominantMatrix(n, 45);
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = std::pow(10.0, -12.0 * static_cast<double>(i) /
                                            static_cast<double>(n - 1));
    for (std::size_t j = 0; j < n; ++j) a(i, j) *= scale;
  }
  const LuFactors ref = FactorWith(KernelBackend::kReference, a);
  const LuFactors blk = FactorWith(KernelBackend::kBlocked, a);
  EXPECT_EQ(ref.piv, blk.piv);
  EXPECT_LE(UlpDistance(ref.min_pivot, blk.min_pivot), 8u);
  EXPECT_LE(MaxUlpDiff(ref.lu, blk.lu), 8u);
}

// --- Determinism contract: bits do not depend on the thread count ---

TEST(KernelDeterminism, GemmBitIdenticalForAnyThreadCount) {
  // 300^3 multiply-adds is far past the fan-out threshold, so 2 and 8
  // threads genuinely run the pool; 1 runs inline.
  const std::size_t n = 300;
  const Matrix a = RandomMatrix(n, 46);
  const Matrix b = RandomMatrix(n, 47);
  BackendGuard backend(KernelBackend::kBlocked);
  Matrix first(0, 0);
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadGuard guard(threads);
    const Matrix c = a * b;
    if (first.rows() == 0) {
      first = c;
    } else {
      EXPECT_EQ(MaxUlpDiff(first, c), 0u)
          << "thread count changed result bits";
    }
  }
}

TEST(KernelDeterminism, BlockedLuBitIdenticalForAnyThreadCount) {
  const Matrix a = RandomDominantMatrix(193, 48);
  BackendGuard backend(KernelBackend::kBlocked);
  LuFactors first;
  bool have_first = false;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadGuard guard(threads);
    const LuFactors f = FactorWith(KernelBackend::kBlocked, a);
    if (!have_first) {
      first = f;
      have_first = true;
    } else {
      EXPECT_EQ(first.piv, f.piv);
      EXPECT_EQ(MaxUlpDiff(first.lu, f.lu), 0u);
    }
  }
}

// --- Pool contract ---

TEST(Pool, ParallelForRunsEveryTaskExactlyOnce) {
  ThreadGuard guard(4);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  parallel_for(kTasks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(Pool, ShutdownLeavesNoWorkers) {
  ThreadGuard guard(4);
  // Force workers into existence, then shut down.
  std::atomic<std::size_t> count{0};
  parallel_for(64, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64u);
  EXPECT_GT(pool_live_workers(), 0u);
  pool_shutdown();
  EXPECT_EQ(pool_live_workers(), 0u);
  // The pool must respawn transparently after a shutdown.
  count.store(0);
  parallel_for(64, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64u);
  pool_shutdown();
}

TEST(Pool, SingleThreadRunsInlineWithoutWorkers) {
  ThreadGuard guard(1);
  std::size_t count = 0;  // no atomics needed: everything is inline
  parallel_for(128, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 128u);
  EXPECT_EQ(pool_live_workers(), 0u);
}

TEST(Pool, ThreadCountReflectsOverride) {
  ThreadGuard guard(3);
  EXPECT_EQ(pool_threads(), 3u);
}

}  // namespace
}  // namespace performa::linalg
