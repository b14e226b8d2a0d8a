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
constexpr std::size_t kRowStrip = 32; // rows per pool task in GEMM
constexpr std::size_t kColChunk = 64; // RHS columns per pool task in solves
// Fan out to the pool only when a kernel has at least this many multiply-
// adds; below it the dispatch overhead exceeds the work.
constexpr std::size_t kFanOutWork = 1u << 18;

#if defined(__AVX512F__) || defined(__AVX2__)

// One SIMD vector of doubles and its lane mask, spelled once per ISA so the
// tiles below are written once. CRITICAL for the equivalence contract: mul
// and add/sub stay SEPARATE instructions (never FMA), so each lane performs
// the exact rounding sequence of the scalar reference loop -- the wide
// kernels are bit-identical to the reference, not merely close. Masked
// loads and stores never touch memory in masked-off lanes, which is what
// lets an edge tile run the same vector code as an interior one.
#if defined(__AVX512F__)

using Vec = __m512d;
using Mask = __mmask8;
constexpr std::size_t kLanes = 8;

inline Mask lane_mask(std::size_t live) {
  return live >= kLanes ? static_cast<Mask>(0xff)
                        : static_cast<Mask>((1u << live) - 1u);
}
inline Vec vload(const double* p) { return _mm512_loadu_pd(p); }
inline Vec vload(const double* p, Mask k) {
  return _mm512_maskz_loadu_pd(k, p);
}
inline void vstore(double* p, Vec v) { _mm512_storeu_pd(p, v); }
inline void vstore(double* p, Mask k, Vec v) {
  _mm512_mask_storeu_pd(p, k, v);
}
inline Vec vzero() { return _mm512_setzero_pd(); }
inline Vec vbroadcast(double x) { return _mm512_set1_pd(x); }
inline Vec vmul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
inline Vec vadd(Vec a, Vec b) { return _mm512_add_pd(a, b); }
inline Vec vsub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }

#else  // __AVX2__

using Vec = __m256d;
using Mask = __m256i;
constexpr std::size_t kLanes = 4;

inline Mask lane_mask(std::size_t live) {
  const auto n = static_cast<long long>(std::min(live, kLanes));
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}
inline Vec vload(const double* p) { return _mm256_loadu_pd(p); }
inline Vec vload(const double* p, Mask k) { return _mm256_maskload_pd(p, k); }
inline void vstore(double* p, Vec v) { _mm256_storeu_pd(p, v); }
inline void vstore(double* p, Mask k, Vec v) {
  _mm256_maskstore_pd(p, k, v);
}
inline Vec vzero() { return _mm256_setzero_pd(); }
inline Vec vbroadcast(double x) { return _mm256_set1_pd(x); }
inline Vec vmul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
inline Vec vadd(Vec a, Vec b) { return _mm256_add_pd(a, b); }
inline Vec vsub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }

#endif

// GEMM tiles are kMr rows by up to kQ vectors: 16 accumulators.
constexpr std::size_t kQ = 4;
constexpr std::size_t kVecCols = kQ * kLanes;

// Mask of the live lanes of vector q in a tile `cols` columns wide.
inline Mask vector_mask(std::size_t cols, std::size_t q) {
  return lane_mask(cols > kLanes * q ? cols - kLanes * q : 0);
}

// MR-by-(Q vectors) register tile, full k sweep, accumulators in registers:
// the broadcast / mul / add sequence of the reference loop on every lane.
// With Edge set, the last vector loads and stores only its `tail` lanes,
// so a tile at the right edge of C runs at full width too.
template <bool Sub, std::size_t MR, std::size_t Q, bool Edge>
inline void micro_simd(std::size_t kk, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc, Mask tail) {
  auto load = [tail](const double* p, std::size_t q) {
    return Edge && q + 1 == Q ? vload(p, tail) : vload(p);
  };
  Vec acc[MR][Q];
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t q = 0; q < Q; ++q)
      acc[r][q] = Sub ? load(c + r * ldc + kLanes * q, q) : vzero();
  for (std::size_t p = 0; p < kk; ++p) {
    Vec bv[Q];
    for (std::size_t q = 0; q < Q; ++q)
      bv[q] = load(b + p * ldb + kLanes * q, q);
    for (std::size_t r = 0; r < MR; ++r) {
      const Vec av = vbroadcast(a[r * lda + p]);
      for (std::size_t q = 0; q < Q; ++q) {
        const Vec prod = vmul(av, bv[q]);
        acc[r][q] = Sub ? vsub(acc[r][q], prod) : vadd(acc[r][q], prod);
      }
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t q = 0; q < Q; ++q) {
      double* cq = c + r * ldc + kLanes * q;
      if (Edge && q + 1 == Q) {
        vstore(cq, tail, acc[r][q]);
      } else {
        vstore(cq, acc[r][q]);
      }
    }
}

// MR rows of C across all n columns: full-width tiles, then one masked
// tile of 1..kQ vectors for the remaining columns.
template <bool Sub, std::size_t MR>
void gemm_row_block(std::size_t kk, std::size_t n, const double* a,
                    std::size_t lda, const double* b, std::size_t ldb,
                    double* c, std::size_t ldc) {
  std::size_t j = 0;
  for (; j + kVecCols <= n; j += kVecCols)
    micro_simd<Sub, MR, kQ, false>(kk, a, lda, b + j, ldb, c + j, ldc,
                                   lane_mask(kLanes));
  if (j == n) return;
  const std::size_t w = n - j;
  const std::size_t vecs = (w + kLanes - 1) / kLanes;
  const Mask tail = vector_mask(w, vecs - 1);
  b += j;
  c += j;
  switch (vecs) {
    case 1:
      micro_simd<Sub, MR, 1, true>(kk, a, lda, b, ldb, c, ldc, tail);
      break;
    case 2:
      micro_simd<Sub, MR, 2, true>(kk, a, lda, b, ldb, c, ldc, tail);
      break;
    case 3:
      micro_simd<Sub, MR, 3, true>(kk, a, lda, b, ldb, c, ldc, tail);
      break;
    default:
      micro_simd<Sub, MR, kQ, true>(kk, a, lda, b, ldb, c, ldc, tail);
      break;
  }
}

template <bool Sub>
void gemm_blocked_rows(std::size_t i0, std::size_t i1, std::size_t kk,
                       std::size_t n, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc) {
  std::size_t i = i0;
  for (; i + kMr <= i1; i += kMr)
    gemm_row_block<Sub, kMr>(kk, n, a + i * lda, lda, b, ldb, c + i * ldc,
                             ldc);
  a += i * lda;
  c += i * ldc;
  switch (i1 - i) {
    case 1:
      gemm_row_block<Sub, 1>(kk, n, a, lda, b, ldb, c, ldc);
      break;
    case 2:
      gemm_row_block<Sub, 2>(kk, n, a, lda, b, ldb, c, ldc);
      break;
    case 3:
      gemm_row_block<Sub, 3>(kk, n, a, lda, b, ldb, c, ldc);
      break;
    default:
      break;
  }
}

#else  // no SIMD: generic register tiles

constexpr std::size_t kNr = 8;  // micro-kernel cols

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

template <bool Sub>
void gemm_blocked_rows(std::size_t i0, std::size_t i1, std::size_t kk,
                       std::size_t n, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc) {
  for (std::size_t i = i0; i < i1; i += kMr)
    for (std::size_t j = 0; j < n; j += kNr)
      micro_tile<Sub>(std::min(kMr, i1 - i), std::min(kNr, n - j), kk,
                      a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc);
}

#endif

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
// kGemvRows rows; the pass at the bottom edge masks its loads and stores,
// so every row shares one path.
#if defined(__AVX512F__) || defined(__AVX2__)

constexpr std::size_t kGemvRows = 16;
constexpr std::size_t kGemvQ = kGemvRows / kLanes;

inline void gemv_pass(std::size_t rows, std::size_t n, const double* at,
                      std::size_t ldat, const double* x, double* y) {
  Mask k[kGemvQ];
  Vec acc[kGemvQ];
  for (std::size_t q = 0; q < kGemvQ; ++q) {
    k[q] = vector_mask(rows, q);
    acc[q] = vzero();
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double* col = at + j * ldat;
    const Vec xj = vbroadcast(x[j]);
    for (std::size_t q = 0; q < kGemvQ; ++q)
      acc[q] = vadd(acc[q], vmul(vload(col + kLanes * q, k[q]), xj));
  }
  for (std::size_t q = 0; q < kGemvQ; ++q)
    vstore(y + kLanes * q, k[q], acc[q]);
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

// Row vector times matrix, vectorized across columns: one kVecCols-wide
// block of y stays in registers while every row of B streams past it.
// Each y[j] sums x_i*b_ij from 0.0 in ascending i, skipping x_i == 0 --
// the reference loop's exact sequence.
void vecmat_tiled(std::size_t k, std::size_t n, const double* x,
                  const double* b, std::size_t ldb, double* y) {
#if defined(__AVX512F__) || defined(__AVX2__)
  for (std::size_t j = 0; j < n; j += kVecCols) {
    const std::size_t w = std::min(kVecCols, n - j);
    Mask live[kQ];
    Vec acc[kQ];
    for (std::size_t q = 0; q < kQ; ++q) {
      live[q] = vector_mask(w, q);
      acc[q] = vzero();
    }
    for (std::size_t i = 0; i < k; ++i) {
      if (x[i] == 0.0) continue;
      const Vec xi = vbroadcast(x[i]);
      const double* bi = b + i * ldb + j;
      for (std::size_t q = 0; q < kQ; ++q)
        acc[q] = vadd(acc[q], vmul(xi, vload(bi + kLanes * q, live[q])));
    }
    for (std::size_t q = 0; q < kQ; ++q)
      vstore(y + j + kLanes * q, live[q], acc[q]);
  }
#else
  gemm_ref_rows<false>(0, 1, k, n, x, k, b, ldb, y, n);
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
    // Forward substitution, TRSM-style: solve a kPanel-row diagonal block
    // row by row, then fan its contribution into every row below through
    // the SIMD gemm tiles. Element (i, c) still receives its subtractions
    // in ascending-k order -- earlier blocks land via gemm before the
    // within-block terms -- so the result is bit-identical to the
    // unblocked loop. Each single-row update is a one-row gemm_sub, which
    // keeps the row's accumulators in registers.
    for (std::size_t b0 = 0; b0 < n; b0 += kPanel) {
      const std::size_t b1 = std::min(b0 + kPanel, n);
      for (std::size_t i = b0 + 1; i < b1; ++i)
        gemm_blocked_rows<true>(0, 1, i - b0, cw, lu + i * ldlu + b0, ldlu,
                                x + b0 * ldx + c0, ldx, x + i * ldx + c0,
                                ldx);
      if (b1 < n) {
        gemm_blocked_rows<true>(0, n - b1, b1 - b0, cw, lu + b1 * ldlu + b0,
                                ldlu, x + b0 * ldx + c0, ldx,
                                x + b1 * ldx + c0, ldx);
      }
    }
    // Backward substitution, one row at a time: row k needs every later
    // row final, and its terms must arrive in ascending j, so the pass
    // cannot be blocked like the forward one (batching the off-block
    // columns would subtract them before the within-block ones).
    for (std::size_t k = n; k-- > 0;) {
      double* xk = x + k * ldx + c0;
      gemm_blocked_rows<true>(0, 1, n - k - 1, cw, lu + k * ldlu + k + 1,
                              ldlu, x + (k + 1) * ldx + c0, ldx, xk, ldx);
      const double ukk = lu[k * ldlu + k];
      for (std::size_t c = 0; c < cw; ++c) xk[c] /= ukk;
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
// buffer (column i of the strip is contiguous), so the SIMD lanes run
// across rows. A single row's substitution is a serial reduction the
// vectorizer cannot touch -- each `acc -= z[i]*u(i,k)` depends on the
// last -- but across rows the chains are independent, so a 64-row strip
// keeps eight vector accumulators in flight. Each row still performs the
// reference's exact operation sequence.
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
    // Gather the strip transposed: row i of zbuf holds z_i of every row
    // of the strip, so each update below is a row-major gemm against lut
    // over the strip's w live lanes.
    std::vector<double> zbuf(n * kRows);
    for (std::size_t r = 0; r < w; ++r) {
      const double* z = x + (r0 + r) * ldx;
      for (std::size_t i = 0; i < n; ++i) zbuf[i * kRows + r] = z[i];
    }
    double* zb = zbuf.data();
    // Forward pass z U = b, TRSM-style over kPanel-column blocks of U:
    // solve the diagonal block one column at a time (a one-row gemm_sub
    // per column, accumulators in registers), then fan it into the columns
    // to the right through the SIMD gemm tiles. Ascending-i term order per
    // element is preserved, so the result is bit-identical to the
    // unblocked loop.
    for (std::size_t b0 = 0; b0 < n; b0 += kPanel) {
      const std::size_t b1 = std::min(b0 + kPanel, n);
      for (std::size_t k = b0; k < b1; ++k) {
        double* zk = zb + k * kRows;
        gemm_blocked_rows<true>(0, 1, k - b0, w, lut.data() + k * n + b0, n,
                                zb + b0 * kRows, kRows, zk, kRows);
        const double ukk = lut[k * n + k];
        for (std::size_t r = 0; r < w; ++r) zk[r] /= ukk;
      }
      if (b1 < n) {
        gemm_blocked_rows<true>(0, n - b1, b1 - b0, w, lut.data() + b1 * n + b0,
                                n, zb + b0 * kRows, kRows, zb + b1 * kRows,
                                kRows);
      }
    }
    // Backward pass y L = z, one column at a time in descending k (see
    // lu_solve_tiled for why it cannot be blocked).
    for (std::size_t k = n; k-- > 0;) {
      gemm_blocked_rows<true>(0, 1, n - k - 1, w, lut.data() + k * n + k + 1,
                              n, zb + (k + 1) * kRows, kRows, zb + k * kRows,
                              kRows);
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
