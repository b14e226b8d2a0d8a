// Blocked/tiled kernel implementations -- the hot half of the backend
// split described in kernels_detail.h. This translation unit is compiled
// with the widest SIMD the build host offers (see src/linalg/CMakeLists)
// and with FP contraction disabled, so its arithmetic is the exact IEEE
// multiply/add sequence of the reference loops, just executed on wider
// vectors and more threads. See kernels.h for the equivalence and
// determinism contracts.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "linalg/errors.h"
#include "linalg/kernels_detail.h"
#include "linalg/pool.h"
#include "obs/deadline.h"

namespace performa::linalg::detail {

namespace {

constexpr std::size_t kMr = 4;        // micro-kernel rows
constexpr std::size_t kNr = 8;        // micro-kernel cols
constexpr std::size_t kRowStrip = 32; // rows per pool task in GEMM
constexpr std::size_t kColChunk = 64; // RHS columns per pool task in solves
// Fan out to the pool only when a kernel has at least this many multiply-
// adds; below it the dispatch overhead exceeds the work.
constexpr std::size_t kFanOutWork = 1u << 18;

// mr-by-nr register tile (mr <= kMr, nr <= kNr), full k sweep, accumulators
// held locally so the compiler can keep them out of memory.
template <bool Sub>
inline void micro_tile(std::size_t mr, std::size_t nr, std::size_t kk,
                       const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, double* c, std::size_t ldc) {
  double acc[kMr][kNr];
  for (std::size_t i = 0; i < mr; ++i)
    for (std::size_t j = 0; j < nr; ++j)
      acc[i][j] = Sub ? c[i * ldc + j] : 0.0;
  for (std::size_t p = 0; p < kk; ++p) {
    const double* bp = b + p * ldb;
    for (std::size_t i = 0; i < mr; ++i) {
      const double aip = a[i * lda + p];
      for (std::size_t j = 0; j < nr; ++j) {
        if (Sub) {
          acc[i][j] -= aip * bp[j];
        } else {
          acc[i][j] += aip * bp[j];
        }
      }
    }
  }
  for (std::size_t i = 0; i < mr; ++i)
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] = acc[i][j];
}

// Fixed-shape specialization of the hot interior tile: constant trip counts
// let the compiler fully unroll and vectorize the j loop.
template <bool Sub>
inline void micro_full(std::size_t kk, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc) {
  double acc[kMr][kNr];
  for (std::size_t i = 0; i < kMr; ++i)
    for (std::size_t j = 0; j < kNr; ++j)
      acc[i][j] = Sub ? c[i * ldc + j] : 0.0;
  for (std::size_t p = 0; p < kk; ++p) {
    const double* bp = b + p * ldb;
    for (std::size_t i = 0; i < kMr; ++i) {
      const double aip = a[i * lda + p];
      for (std::size_t j = 0; j < kNr; ++j) {
        if (Sub) {
          acc[i][j] -= aip * bp[j];
        } else {
          acc[i][j] += aip * bp[j];
        }
      }
    }
  }
  for (std::size_t i = 0; i < kMr; ++i)
    for (std::size_t j = 0; j < kNr; ++j) c[i * ldc + j] = acc[i][j];
}

// Explicit-SIMD interior tile. GCC compiles the generic 4x8 tile above to
// mediocre vector code, so the hot path spells out the broadcast / mul /
// add sequence with intrinsics. CRITICAL for the equivalence contract:
// mul and add stay SEPARATE instructions (never FMA), so each lane
// performs the exact rounding sequence of the scalar reference loop --
// the wide tile is bit-identical to the reference, not merely close.
#if defined(__AVX512F__)

constexpr std::size_t kVecCols = 32;  // 4 rows x 4 zmm = 16 accumulators

template <bool Sub>
inline void micro_simd(std::size_t kk, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc) {
  __m512d acc[kMr][4];
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t q = 0; q < 4; ++q)
      acc[r][q] = Sub ? _mm512_loadu_pd(c + r * ldc + 8 * q)
                      : _mm512_setzero_pd();
  for (std::size_t p = 0; p < kk; ++p) {
    __m512d bv[4];
    for (std::size_t q = 0; q < 4; ++q)
      bv[q] = _mm512_loadu_pd(b + p * ldb + 8 * q);
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m512d av = _mm512_set1_pd(a[r * lda + p]);
      for (std::size_t q = 0; q < 4; ++q) {
        const __m512d prod = _mm512_mul_pd(av, bv[q]);
        acc[r][q] = Sub ? _mm512_sub_pd(acc[r][q], prod)
                        : _mm512_add_pd(acc[r][q], prod);
      }
    }
  }
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t q = 0; q < 4; ++q)
      _mm512_storeu_pd(c + r * ldc + 8 * q, acc[r][q]);
}

#elif defined(__AVX2__)

constexpr std::size_t kVecCols = 16;  // 4 rows x 4 ymm = 16 accumulators

template <bool Sub>
inline void micro_simd(std::size_t kk, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc) {
  __m256d acc[kMr][4];
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t q = 0; q < 4; ++q)
      acc[r][q] = Sub ? _mm256_loadu_pd(c + r * ldc + 4 * q)
                      : _mm256_setzero_pd();
  for (std::size_t p = 0; p < kk; ++p) {
    __m256d bv[4];
    for (std::size_t q = 0; q < 4; ++q)
      bv[q] = _mm256_loadu_pd(b + p * ldb + 4 * q);
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m256d av = _mm256_set1_pd(a[r * lda + p]);
      for (std::size_t q = 0; q < 4; ++q) {
        const __m256d prod = _mm256_mul_pd(av, bv[q]);
        acc[r][q] = Sub ? _mm256_sub_pd(acc[r][q], prod)
                        : _mm256_add_pd(acc[r][q], prod);
      }
    }
  }
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t q = 0; q < 4; ++q)
      _mm256_storeu_pd(c + r * ldc + 4 * q, acc[r][q]);
}

#else

constexpr std::size_t kVecCols = 0;  // no SIMD tile; generic path only

#endif

template <bool Sub>
void gemm_blocked_rows(std::size_t i0, std::size_t i1, std::size_t kk,
                       std::size_t n, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc) {
  std::size_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    std::size_t j = 0;
#if defined(__AVX512F__) || defined(__AVX2__)
    for (; j + kVecCols <= n; j += kVecCols)
      micro_simd<Sub>(kk, a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc);
#endif
    for (; j + kNr <= n; j += kNr)
      micro_full<Sub>(kk, a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc);
    if (j < n)
      micro_tile<Sub>(kMr, n - j, kk, a + i * lda, lda, b + j, ldb,
                      c + i * ldc + j, ldc);
  }
  for (; i < i1; i = i1) {
    for (std::size_t j = 0; j < n; j += kNr)
      micro_tile<Sub>(i1 - i, std::min(kNr, n - j), kk, a + i * lda, lda,
                      b + j, ldb, c + i * ldc + j, ldc);
  }
}

// Row-strip driver shared by the tiled and sparse threaded paths. The
// strip size is a compile-time constant -- the decomposition depends on
// the problem shape only, never on the worker count, which is what makes
// the result bit-identical for any PERFORMA_THREADS.
template <bool Sub, bool Blocked>
void gemm_strips(std::size_t m, std::size_t kk, std::size_t n,
                 const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc) {
  const std::size_t strips = (m + kRowStrip - 1) / kRowStrip;
  auto run_strip = [&](std::size_t s) {
    const std::size_t i0 = s * kRowStrip;
    const std::size_t i1 = std::min(i0 + kRowStrip, m);
    if (Blocked) {
      gemm_blocked_rows<Sub>(i0, i1, kk, n, a, lda, b, ldb, c, ldc);
    } else {
      gemm_ref_rows<Sub>(i0, i1, kk, n, a, lda, b, ldb, c, ldc);
    }
  };
  if (strips < 2 || m * kk * n < kFanOutWork) {
    for (std::size_t s = 0; s < strips; ++s) run_strip(s);
  } else {
    parallel_for(strips, run_strip);
  }
}

// Matrix-vector micro-kernel on the transposed operand (kern::gemv). The
// row dimension runs across SIMD lanes: for each column j of A -- the
// contiguous row at + j*ldat -- every lane adds a_ij*x_j to its own row's
// accumulator. Each y[i] therefore still sums its terms in ascending j
// from 0.0, with mul and add as SEPARATE instructions (never FMA), which
// is the reference loop's exact rounding sequence. One pass updates up to
// kGemvRows rows; the pass at the bottom edge masks its loads and stores
// (masked-off lanes never touch memory), so every row shares one path.
#if defined(__AVX512F__)

constexpr std::size_t kGemvRows = 16;  // 2 zmm accumulators per pass

inline __mmask8 lane_mask(std::size_t rows) {
  return rows >= 8 ? static_cast<__mmask8>(0xff)
                   : static_cast<__mmask8>((1u << rows) - 1u);
}

inline void gemv_pass(std::size_t rows, std::size_t n, const double* at,
                      std::size_t ldat, const double* x, double* y) {
  const __mmask8 k0 = lane_mask(rows);
  const __mmask8 k1 = lane_mask(rows > 8 ? rows - 8 : 0);
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  for (std::size_t j = 0; j < n; ++j) {
    const double* col = at + j * ldat;
    const __m512d xj = _mm512_set1_pd(x[j]);
    acc0 = _mm512_add_pd(acc0,
                         _mm512_mul_pd(_mm512_maskz_loadu_pd(k0, col), xj));
    acc1 = _mm512_add_pd(
        acc1, _mm512_mul_pd(_mm512_maskz_loadu_pd(k1, col + 8), xj));
  }
  _mm512_mask_storeu_pd(y, k0, acc0);
  _mm512_mask_storeu_pd(y + 8, k1, acc1);
}

#elif defined(__AVX2__)

constexpr std::size_t kGemvRows = 16;  // 4 ymm accumulators per pass

inline __m256i lane_mask(std::size_t rows) {
  const auto live = static_cast<long long>(std::min<std::size_t>(rows, 4));
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(live),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

inline void gemv_pass(std::size_t rows, std::size_t n, const double* at,
                      std::size_t ldat, const double* x, double* y) {
  __m256i k[4];
  __m256d acc[4];
  for (std::size_t q = 0; q < 4; ++q) {
    k[q] = lane_mask(rows > 4 * q ? rows - 4 * q : 0);
    acc[q] = _mm256_setzero_pd();
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double* col = at + j * ldat;
    const __m256d xj = _mm256_set1_pd(x[j]);
    for (std::size_t q = 0; q < 4; ++q) {
      acc[q] = _mm256_add_pd(
          acc[q], _mm256_mul_pd(_mm256_maskload_pd(col + 4 * q, k[q]), xj));
    }
  }
  for (std::size_t q = 0; q < 4; ++q)
    _mm256_maskstore_pd(y + 4 * q, k[q], acc[q]);
}

#endif

}  // namespace

void gemv_tiled(std::size_t m, std::size_t n, const double* at,
                std::size_t ldat, const double* x, double* y) {
#if defined(__AVX512F__) || defined(__AVX2__)
  for (std::size_t i = 0; i < m; i += kGemvRows)
    gemv_pass(std::min(kGemvRows, m - i), n, at + i, ldat, x, y + i);
#else
  gemv_ref(m, n, at, ldat, x, y);
#endif
}

void gemm_tiled(bool sub, std::size_t m, std::size_t kk, std::size_t n,
                const double* a, std::size_t lda, const double* b,
                std::size_t ldb, double* c, std::size_t ldc) {
  if (sub) {
    gemm_strips<true, true>(m, kk, n, a, lda, b, ldb, c, ldc);
  } else {
    gemm_strips<false, true>(m, kk, n, a, lda, b, ldb, c, ldc);
  }
}

void gemm_ref_threaded(bool sub, std::size_t m, std::size_t kk,
                       std::size_t n, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc) {
  if (sub) {
    gemm_strips<true, false>(m, kk, n, a, lda, b, ldb, c, ldc);
  } else {
    gemm_strips<false, false>(m, kk, n, a, lda, b, ldb, c, ldc);
  }
}

// Blocked right-looking LU: factor a kPanel-wide column panel with the
// reference's rank-1 loop (restricted to panel columns, full-row swaps),
// forward-substitute L11 into the U12 block, then one gemm_sub for the
// trailing submatrix. Pivot choices and factor values match the reference
// exactly (see file header in kernels.h).
void lu_factor_tiled(std::size_t n, double* a, std::size_t lda,
                     std::size_t* piv, int* pivot_sign, double* min_pivot) {
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    if (n >= 128 && obs::deadline_expired()) {
      throw DeadlineError("Lu: deadline expired during factorization");
    }
    const std::size_t pe = std::min(k0 + kPanel, n);  // panel end
    // Panel factorization (sequential: pivot decisions are a chain).
    for (std::size_t k = k0; k < pe; ++k) {
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
        for (std::size_t c = k + 1; c < pe; ++c)
          a[i * lda + c] -= m * a[k * lda + c];
      }
    }
    if (pe == n) break;
    // U12 = L11^{-1} * A12, forward substitution over trailing columns.
    // Chunked over columns so the pool can help; each chunk is disjoint.
    const std::size_t ncols = n - pe;
    const std::size_t chunks = (ncols + kColChunk - 1) / kColChunk;
    auto u12_chunk = [&](std::size_t s) {
      const std::size_t j0 = pe + s * kColChunk;
      const std::size_t j1 = std::min(j0 + kColChunk, n);
      for (std::size_t t = k0; t < pe; ++t) {
        const double* at = a + t * lda;
        for (std::size_t k2 = t + 1; k2 < pe; ++k2) {
          const double l = a[k2 * lda + t];
          if (l == 0.0) continue;
          double* ak2 = a + k2 * lda;
          for (std::size_t j = j0; j < j1; ++j) ak2[j] -= l * at[j];
        }
      }
    };
    if (chunks < 2 || (pe - k0) * (pe - k0) * ncols < kFanOutWork) {
      for (std::size_t s = 0; s < chunks; ++s) u12_chunk(s);
    } else {
      parallel_for(chunks, u12_chunk);
    }
    // A22 -= L21 * U12 (ascending-k subtraction = reference update order).
    gemm_strips</*Sub=*/true, /*Blocked=*/true>(
        n - pe, pe - k0, n - pe, a + pe * lda + k0, lda, a + k0 * lda + pe,
        lda, a + pe * lda + pe, lda);
  }
}

// Multi-RHS triangular solve, chunked over right-hand-side columns so the
// chunk (n rows x <=64 cols) stays cache-resident and rows of LU stream
// contiguously -- the reference's per-column path reads LU down columns,
// which thrashes for n in the hundreds. Per-element arithmetic order is
// identical to the reference.
void lu_solve_tiled(std::size_t n, const double* lu, std::size_t ldlu,
                    const std::size_t* piv, double* x, std::size_t nrhs,
                    std::size_t ldx) {
  const std::size_t chunks = (nrhs + kColChunk - 1) / kColChunk;
  auto solve_chunk = [&](std::size_t s) {
    const std::size_t c0 = s * kColChunk;
    const std::size_t cw = std::min(kColChunk, nrhs - c0);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t p = piv[k];
      if (p != k) {
        double* xk = x + k * ldx + c0;
        double* xp = x + p * ldx + c0;
        for (std::size_t c = 0; c < cw; ++c) std::swap(xk[c], xp[c]);
      }
    }
    // The updated row is accumulated in a local buffer: the compiler
    // cannot prove the target row and the source rows don't alias (both
    // live in x), so without the buffer it spills the accumulators to
    // memory on every term instead of keeping them in registers.
    double buf[kColChunk];
    // Forward substitution, TRSM-style: solve a kPanel-row diagonal
    // block with the buffered scalar loop, then fan its contribution
    // into every row below through the SIMD gemm tiles. Element (i, c)
    // still receives its subtractions in ascending-k order -- earlier
    // blocks land via gemm before the within-block terms -- so the
    // result is bit-identical to the unblocked loop. (The backward pass
    // below cannot be blocked this way: batching the off-block columns
    // would subtract them before the within-block ones, reordering the
    // sum.)
    for (std::size_t b0 = 0; b0 < n; b0 += kPanel) {
      const std::size_t b1 = std::min(b0 + kPanel, n);
      for (std::size_t i = b0 + 1; i < b1; ++i) {
        const double* lui = lu + i * ldlu;
        double* xi = x + i * ldx + c0;
        for (std::size_t c = 0; c < cw; ++c) buf[c] = xi[c];
        for (std::size_t k = b0; k < i; ++k) {
          const double lik = lui[k];
          const double* xk = x + k * ldx + c0;
          for (std::size_t c = 0; c < cw; ++c) buf[c] -= lik * xk[c];
        }
        for (std::size_t c = 0; c < cw; ++c) xi[c] = buf[c];
      }
      if (b1 < n) {
        gemm_blocked_rows<true>(0, n - b1, b1 - b0, cw, lu + b1 * ldlu + b0,
                                ldlu, x + b0 * ldx + c0, ldx,
                                x + b1 * ldx + c0, ldx);
      }
    }
    for (std::size_t k = n; k-- > 0;) {
      const double* luk = lu + k * ldlu;
      double* xk = x + k * ldx + c0;
      for (std::size_t c = 0; c < cw; ++c) buf[c] = xk[c];
      for (std::size_t j = k + 1; j < n; ++j) {
        const double lkj = luk[j];
        const double* xj = x + j * ldx + c0;
        for (std::size_t c = 0; c < cw; ++c) buf[c] -= lkj * xj[c];
      }
      const double ukk = luk[k];
      for (std::size_t c = 0; c < cw; ++c) xk[c] = buf[c] / ukk;
    }
  };
  if (chunks < 2 || n * n * nrhs < kFanOutWork) {
    for (std::size_t s = 0; s < chunks; ++s) solve_chunk(s);
  } else {
    parallel_for(chunks, solve_chunk);
  }
}

// Left solve X A = B: rows are independent, so tasks are row strips. The
// reference walks LU down columns (lu(i,k) for fixed k); one upfront
// transpose makes every inner loop contiguous without touching the
// arithmetic order.
//
// Within a strip the rows are solved TOGETHER in a transposed scratch
// buffer (column i of the strip is contiguous), so the innermost loop
// runs across rows. A single row's substitution is a serial reduction
// the vectorizer cannot touch -- each `acc -= z[i]*u(i,k)` depends on
// the last -- but across rows the chains are independent, so a
// 64-row strip gives the FP units eight vector accumulators in flight.
// Each row still performs the reference's exact operation sequence.
void lu_solve_left_tiled(std::size_t n, const double* lu, std::size_t ldlu,
                         const std::size_t* piv, double* x,
                         std::size_t nrows, std::size_t ldx) {
  std::vector<double> lut(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k) lut[k * n + i] = lu[i * ldlu + k];
  constexpr std::size_t kRows = 64;
  if (nrows < kRows / 4) {
    // Narrow batches: the strip buffer's fixed-width arithmetic would
    // mostly compute padding lanes; solve row by row against lut.
    for (std::size_t r = 0; r < nrows; ++r) {
      double* z = x + r * ldx;
      for (std::size_t k = 0; k < n; ++k) {
        const double* ltk = lut.data() + k * n;
        double acc = z[k];
        for (std::size_t i = 0; i < k; ++i) acc -= z[i] * ltk[i];
        z[k] = acc / ltk[k];
      }
      for (std::size_t k = n; k-- > 0;) {
        const double* ltk = lut.data() + k * n;
        double acc = z[k];
        for (std::size_t i = k + 1; i < n; ++i) acc -= z[i] * ltk[i];
        z[k] = acc;
      }
      for (std::size_t k = n; k-- > 0;) std::swap(z[k], z[piv[k]]);
    }
    return;
  }
  const std::size_t strips = (nrows + kRows - 1) / kRows;
  auto solve_strip = [&](std::size_t s) {
    const std::size_t r0 = s * kRows;
    const std::size_t w = std::min(kRows, nrows - r0);
    // Gather the strip transposed; zero-filled padding lanes keep the
    // fixed-width loops finite (0 stays 0 through every substitution).
    std::vector<double> zbuf(n * kRows);
    for (std::size_t r = 0; r < w; ++r) {
      const double* z = x + (r0 + r) * ldx;
      for (std::size_t i = 0; i < n; ++i) zbuf[i * kRows + r] = z[i];
    }
    // Accumulate the active column in a local buffer (see lu_solve_tiled:
    // without it the compiler can't disprove aliasing between zk and zi
    // and spills the accumulators on every term).
    double acc[kRows];
    // Forward pass z U = b, TRSM-style over kPanel-column blocks of U:
    // solve the diagonal block with the buffered loop, then fan it into
    // the columns to the right through the SIMD gemm tiles (in zbuf the
    // batch dimension is contiguous, so the update is a plain row-major
    // gemm against lut). Ascending-i term order per element is
    // preserved, so the result is bit-identical to the unblocked loop.
    for (std::size_t b0 = 0; b0 < n; b0 += kPanel) {
      const std::size_t b1 = std::min(b0 + kPanel, n);
      for (std::size_t k = b0; k < b1; ++k) {
        const double* ltk = lut.data() + k * n;
        double* zk = zbuf.data() + k * kRows;
        for (std::size_t r = 0; r < kRows; ++r) acc[r] = zk[r];
        for (std::size_t i = b0; i < k; ++i) {
          const double uik = ltk[i];
          const double* zi = zbuf.data() + i * kRows;
          for (std::size_t r = 0; r < kRows; ++r) acc[r] -= zi[r] * uik;
        }
        const double ukk = ltk[k];
        for (std::size_t r = 0; r < kRows; ++r) zk[r] = acc[r] / ukk;
      }
      if (b1 < n) {
        gemm_blocked_rows<true>(0, n - b1, b1 - b0, kRows,
                                lut.data() + b1 * n + b0, n,
                                zbuf.data() + b0 * kRows, kRows,
                                zbuf.data() + b1 * kRows, kRows);
      }
    }
    for (std::size_t k = n; k-- > 0;) {
      const double* ltk = lut.data() + k * n;
      double* zk = zbuf.data() + k * kRows;
      for (std::size_t r = 0; r < kRows; ++r) acc[r] = zk[r];
      for (std::size_t i = k + 1; i < n; ++i) {
        const double lik = ltk[i];
        const double* zi = zbuf.data() + i * kRows;
        for (std::size_t r = 0; r < kRows; ++r) acc[r] -= zi[r] * lik;
      }
      for (std::size_t r = 0; r < kRows; ++r) zk[r] = acc[r];
    }
    for (std::size_t r = 0; r < w; ++r) {
      double* z = x + (r0 + r) * ldx;
      for (std::size_t i = 0; i < n; ++i) z[i] = zbuf[i * kRows + r];
      for (std::size_t k = n; k-- > 0;) std::swap(z[k], z[piv[k]]);
    }
  };
  if (strips < 2 || n * n * nrows < kFanOutWork) {
    for (std::size_t s = 0; s < strips; ++s) solve_strip(s);
  } else {
    parallel_for(strips, solve_strip);
  }
}

}  // namespace performa::linalg::detail
