#include "linalg/kernels.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/errors.h"
#include "linalg/kernels_detail.h"
#include "obs/deadline.h"
#include "obs/metrics.h"

namespace performa::linalg {

namespace {

std::atomic<KernelBackend> g_backend{KernelBackend::kBlocked};

// ---------------------------------------------------------------------------
// Reference kernels: the original scratch loops, the executable spec.
// This TU is compiled with the project's default flags -- the reference
// backend IS the pre-refactor code, instruction for instruction; the tiled
// implementations live in kernels_tiled.cpp behind detail:: (see
// kernels_detail.h for the split's rationale).
// ---------------------------------------------------------------------------

// The original Lu constructor loop: rank-1 right-looking elimination with
// immediate full-row pivot swaps.
void lu_factor_ref(std::size_t n, double* a, std::size_t lda,
                   std::size_t* piv, int* pivot_sign, double* min_pivot) {
  for (std::size_t k = 0; k < n; ++k) {
    if (n >= 128 && (k & 63u) == 0 && obs::deadline_expired()) {
      throw DeadlineError("Lu: deadline expired during factorization");
    }
    std::size_t p = k;
    double best = std::abs(a[k * lda + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double cand = std::abs(a[i * lda + k]);
      if (cand > best) {
        best = cand;
        p = i;
      }
    }
    if (best == 0.0) throw NumericalError("Lu: matrix is singular");
    *min_pivot = std::min(*min_pivot, best);
    piv[k] = p;
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(a[k * lda + c], a[p * lda + c]);
      *pivot_sign = -*pivot_sign;
    }
    const double inv_pivot = 1.0 / a[k * lda + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = a[i * lda + k] * inv_pivot;
      a[i * lda + k] = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c)
        a[i * lda + c] -= m * a[k * lda + c];
    }
  }
}

// The original per-column Lu::solve: gather a column, permute, forward- and
// back-substitute, scatter it back.
void lu_solve_ref(std::size_t n, const double* lu, std::size_t ldlu,
                  const std::size_t* piv, double* x, std::size_t nrhs,
                  std::size_t ldx) {
  std::vector<double> col(n);
  for (std::size_t c = 0; c < nrhs; ++c) {
    for (std::size_t i = 0; i < n; ++i) col[i] = x[i * ldx + c];
    for (std::size_t k = 0; k < n; ++k) std::swap(col[k], col[piv[k]]);
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = k + 1; i < n; ++i) col[i] -= lu[i * ldlu + k] * col[k];
    }
    for (std::size_t k = n; k-- > 0;) {
      for (std::size_t j = k + 1; j < n; ++j) col[k] -= lu[k * ldlu + j] * col[j];
      col[k] /= lu[k * ldlu + k];
    }
    for (std::size_t i = 0; i < n; ++i) x[i * ldx + c] = col[i];
  }
}

// The original per-row Lu::solve_left: z U = b, y L = z, x = y P.
void lu_solve_left_ref(std::size_t n, const double* lu, std::size_t ldlu,
                       const std::size_t* piv, double* x, std::size_t nrows,
                       std::size_t ldx) {
  for (std::size_t r = 0; r < nrows; ++r) {
    double* z = x + r * ldx;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < k; ++i) z[k] -= z[i] * lu[i * ldlu + k];
      z[k] /= lu[k * ldlu + k];
    }
    for (std::size_t k = n; k-- > 0;) {
      for (std::size_t i = k + 1; i < n; ++i) z[k] -= z[i] * lu[i * ldlu + k];
    }
    for (std::size_t k = n; k-- > 0;) std::swap(z[k], z[piv[k]]);
  }
}

// Density probe: products against (block-)diagonal operands dominate the
// QBD inner loops, where the reference's zero-skip loop is O(n^2) while a
// dense tile sweep would be O(n^3). Bails out of the scan as soon as the
// operand is provably dense enough for tiles to win.
bool mostly_zero(const double* a, std::size_t m, std::size_t kk,
                 std::size_t lda) {
  const std::size_t total = m * kk;
  const std::size_t cutoff = total / 8;
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    for (std::size_t p = 0; p < kk; ++p) nnz += ai[p] != 0.0;
    if (nnz > cutoff) return false;
  }
  return nnz <= cutoff;
}

}  // namespace

KernelBackend kernel_backend() noexcept {
  return g_backend.load(std::memory_order_relaxed);
}

void set_kernel_backend(KernelBackend backend) noexcept {
  g_backend.store(backend, std::memory_order_relaxed);
}

const char* to_string(KernelBackend backend) noexcept {
  switch (backend) {
    case KernelBackend::kReference:
      return "reference";
    case KernelBackend::kBlocked:
      return "blocked";
  }
  return "unknown";
}

namespace kern {

void gemm(std::size_t m, std::size_t k, std::size_t n, const double* a,
          std::size_t lda, const double* b, std::size_t ldb, double* c,
          std::size_t ldc) {
  static obs::Counter& calls = obs::counter("linalg.gemm.calls");
  static obs::Counter& flops = obs::counter("linalg.gemm.flops");
  calls.add();
  flops.add(2 * m * k * n);
  if (kernel_backend() == KernelBackend::kReference) {
    detail::gemm_ref_rows<false>(0, m, k, n, a, lda, b, ldb, c, ldc);
    return;
  }
  if (m * k >= 64 && mostly_zero(a, m, k, lda)) {
    // Sparse operand: the skip loop beats dense tiles; still threaded.
    detail::gemm_ref_threaded(false, m, k, n, a, lda, b, ldb, c, ldc);
    return;
  }
  detail::gemm_tiled(false, m, k, n, a, lda, b, ldb, c, ldc);
}

void gemm_sub(std::size_t m, std::size_t k, std::size_t n, const double* a,
              std::size_t lda, const double* b, std::size_t ldb, double* c,
              std::size_t ldc) {
  if (kernel_backend() == KernelBackend::kReference) {
    detail::gemm_ref_rows<true>(0, m, k, n, a, lda, b, ldb, c, ldc);
    return;
  }
  detail::gemm_tiled(true, m, k, n, a, lda, b, ldb, c, ldc);
}

void gemv(std::size_t m, std::size_t n, const double* at, std::size_t ldat,
          const double* x, double* y) {
  if (kernel_backend() == KernelBackend::kReference) {
    detail::gemv_ref(m, n, at, ldat, x, y);
    return;
  }
  detail::gemv_tiled(m, n, at, ldat, x, y);
}

void lu_factor(std::size_t n, double* a, std::size_t lda, std::size_t* piv,
               int* pivot_sign, double* min_pivot) {
  if (kernel_backend() == KernelBackend::kReference ||
      n < 2 * detail::kPanel) {
    lu_factor_ref(n, a, lda, piv, pivot_sign, min_pivot);
    return;
  }
  detail::lu_factor_tiled(n, a, lda, piv, pivot_sign, min_pivot);
}

void lu_solve(std::size_t n, const double* lu, std::size_t ldlu,
              const std::size_t* piv, double* x, std::size_t nrhs,
              std::size_t ldx) {
  if (kernel_backend() == KernelBackend::kReference) {
    lu_solve_ref(n, lu, ldlu, piv, x, nrhs, ldx);
    return;
  }
  detail::lu_solve_tiled(n, lu, ldlu, piv, x, nrhs, ldx);
}

void lu_solve_left(std::size_t n, const double* lu, std::size_t ldlu,
                   const std::size_t* piv, double* x, std::size_t nrows,
                   std::size_t ldx) {
  if (kernel_backend() == KernelBackend::kReference) {
    lu_solve_left_ref(n, lu, ldlu, piv, x, nrows, ldx);
    return;
  }
  detail::lu_solve_left_tiled(n, lu, ldlu, piv, x, nrows, ldx);
}

}  // namespace kern

}  // namespace performa::linalg
