// Internal seam between the two kernel translation units. Not installed;
// include only from src/linalg.
//
//   kernels.cpp       -- backend state, dispatch, and the reference loops,
//                        compiled with the project's default flags exactly
//                        like the original scratch code was.
//   kernels_tiled.cpp -- the blocked/tiled/threaded implementations,
//                        compiled with the widest SIMD the build host
//                        offers (-march=native) but with FP contraction
//                        OFF: every element still performs the same IEEE
//                        multiply and add sequence in the same order, so
//                        wider vectors change throughput, never bits.
#pragma once

#include <cstddef>

namespace performa::linalg::detail {

/// LU panel width; lu_factor dispatches to the reference loop below
/// 2 * kPanel, where panel overhead exceeds the blocking win.
constexpr std::size_t kPanel = 64;

/// The i-k-j loop from the original operator*, with the sparsity skip that
/// makes products against (block-)diagonal generators O(n^2). Sub selects
/// C -= A*B; either way element (i,j) accumulates terms in ascending-k
/// order. Defined inline so both TUs instantiate identical arithmetic.
template <bool Sub>
inline void gemm_ref_rows(std::size_t i0, std::size_t i1, std::size_t kk,
                          std::size_t n, const double* a, std::size_t lda,
                          const double* b, std::size_t ldb, double* c,
                          std::size_t ldc) {
  for (std::size_t i = i0; i < i1; ++i) {
    double* ci = c + i * ldc;
    if (!Sub) {
      for (std::size_t j = 0; j < n; ++j) ci[j] = 0.0;
    }
    const double* ai = a + i * lda;
    for (std::size_t p = 0; p < kk; ++p) {
      const double aip = ai[p];
      if (aip == 0.0) continue;  // generators are sparse in practice
      const double* bp = b + p * ldb;
      if (Sub) {
        for (std::size_t j = 0; j < n; ++j) ci[j] -= aip * bp[j];
      } else {
        for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
      }
    }
  }
}

/// The original Matrix*Vector loop, reading A through its transpose: one
/// scalar accumulator per row, terms in ascending j. Defined inline for
/// the same reason as gemm_ref_rows.
inline void gemv_ref(std::size_t m, std::size_t n, const double* at,
                     std::size_t ldat, const double* x, double* y) {
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += at[j * ldat + i] * x[j];
    y[i] = acc;
  }
}

// Tiled + threaded entry points (kernels_tiled.cpp). Contracts match the
// kern:: functions they implement; `sub` selects C -= A*B.
void gemm_tiled(bool sub, std::size_t m, std::size_t kk, std::size_t n,
                const double* a, std::size_t lda, const double* b,
                std::size_t ldb, double* c, std::size_t ldc);

/// Zero-skip row loop fanned out over the pool: the blocked backend's
/// sparse-operand fast path (bit-identical to the reference loop).
void gemm_ref_threaded(bool sub, std::size_t m, std::size_t kk,
                       std::size_t n, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc);

/// SIMD matrix-vector product on the transposed operand (kern::gemv).
void gemv_tiled(std::size_t m, std::size_t n, const double* at,
                std::size_t ldat, const double* x, double* y);

/// SIMD row-vector-times-matrix product (kern::vecmat).
void vecmat_tiled(std::size_t k, std::size_t n, const double* x,
                  const double* b, std::size_t ldb, double* y);

void lu_factor_tiled(std::size_t n, double* a, std::size_t lda,
                     std::size_t* piv, int* pivot_sign, double* min_pivot);

void lu_solve_tiled(std::size_t n, const double* lu, std::size_t ldlu,
                    const std::size_t* piv, double* x, std::size_t nrhs,
                    std::size_t ldx);

void lu_solve_left_tiled(std::size_t n, const double* lu, std::size_t ldlu,
                         const std::size_t* piv, double* x,
                         std::size_t nrows, std::size_t ldx);

}  // namespace performa::linalg::detail
