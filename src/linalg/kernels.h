// Pluggable dense-kernel backends for the hot linear-algebra core.
//
// Two backends implement the same contracts:
//
//   kReference -- the original scratch loops, kept verbatim. This is the
//     executable specification: simple, obviously correct, single-threaded.
//   kBlocked   -- register/cache-tiled kernels with contiguous inner loops,
//     fanned out over the linalg thread pool (pool.h). The default.
//
// Equivalence contract (enforced by linalg_kernels_test): for finite inputs
// the two backends agree element-wise to <= 8 ulps (+0.0 and -0.0 are
// considered equal). The blocked kernels earn this cheaply by construction:
// every output element accumulates its terms in the SAME order as the
// reference loops (ascending k), so tiling changes memory traffic, never
// arithmetic. Pivot decisions in the blocked LU are therefore identical to
// the reference's, and both backends raise the same error taxonomy
// (InvalidArgument / NumericalError / NonFiniteError / DeadlineError).
//
// Determinism contract: blocked kernels decompose work by problem size
// only -- never by thread count -- and every pool task writes a disjoint
// output slice, so results are bit-identical for any PERFORMA_THREADS
// value. See DESIGN.md section 12.
//
// Every run uses kBlocked. kReference stays as the test oracle: the kernel
// equivalence tests switch to it with set_kernel_backend().
#pragma once

#include <cstddef>

namespace performa::linalg {

enum class KernelBackend {
  kReference,  ///< original scratch loops (executable specification)
  kBlocked,    ///< tiled + threaded kernels (default)
};

/// Active backend: kBlocked unless a test switched it.
KernelBackend kernel_backend() noexcept;

/// Override the active backend (equivalence tests).
void set_kernel_backend(KernelBackend backend) noexcept;

const char* to_string(KernelBackend backend) noexcept;

// Raw row-major kernels, dispatched on kernel_backend(). All matrices are
// dense row-major with explicit leading dimensions so the blocked LU can
// operate on sub-blocks in place. Buffers must not alias.
namespace kern {

/// C = A*B with A m-by-k, B k-by-n, C m-by-n. C is overwritten. Each
/// element accumulates terms in ascending-k order.
void gemm(std::size_t m, std::size_t k, std::size_t n, const double* a,
          std::size_t lda, const double* b, std::size_t ldb, double* c,
          std::size_t ldc);

/// C -= A*B. Each element starts from its current value and subtracts
/// terms in ascending-k order -- exactly the update order of the
/// right-looking reference LU, which is what makes the blocked trailing
/// update bit-compatible with it.
void gemm_sub(std::size_t m, std::size_t k, std::size_t n, const double* a,
              std::size_t lda, const double* b, std::size_t ldb, double* c,
              std::size_t ldc);

/// y = A*x with A m-by-n, passed TRANSPOSED: `at` holds A^T (n-by-m,
/// leading dimension ldat), so column j of A is the contiguous row
/// at + j*ldat. y (length m) is overwritten; each y[i] starts from 0.0 and
/// adds a_ij*x[j] in ascending-j order, one separate multiply and add per
/// term -- the arithmetic of the original Matrix*Vector loop, so both
/// backends agree bit for bit. Single-threaded in both backends (the
/// products it serves are a few hundred rows); x and y must not alias.
void gemv(std::size_t m, std::size_t n, const double* at, std::size_t ldat,
          const double* x, double* y);

/// In-place LU with partial pivoting: PA = LU over the n-by-n block at
/// `a`. Row swaps are applied to whole rows (multiplier columns included),
/// matching Lu's storage convention. piv[k] receives the row swapped with
/// row k at step k; pivot_sign flips per swap; min_pivot receives the
/// smallest |pivot|. Throws NumericalError when singular and DeadlineError
/// on cooperative-deadline expiry (n >= 128 only).
void lu_factor(std::size_t n, double* a, std::size_t lda, std::size_t* piv,
               int* pivot_sign, double* min_pivot);

/// Solve A*X = B in place for nrhs right-hand-side columns, given the
/// factorization produced by lu_factor. x holds B on entry, X on exit
/// (n rows, nrhs columns, leading dimension ldx).
void lu_solve(std::size_t n, const double* lu, std::size_t ldlu,
              const std::size_t* piv, double* x, std::size_t nrhs,
              std::size_t ldx);

/// Solve X*A = B in place for nrows left-hand-side rows (x is nrows-by-n
/// with leading dimension ldx).
void lu_solve_left(std::size_t n, const double* lu, std::size_t ldlu,
                   const std::size_t* piv, double* x, std::size_t nrows,
                   std::size_t ldx);

}  // namespace kern

}  // namespace performa::linalg
