// Kronecker algebra for superposing independent Markov chains.
//
// The N-server service process of the DSN'07 model is built as the
// Kronecker sum of N per-server modulating generators (Sec. 2.2 of the
// paper): Q_N = Q1 ⊕ Q1 ⊕ ... ⊕ Q1, with the modulated Poisson rates
// combining the same way on the diagonal.
#pragma once

#include "linalg/matrix.h"

namespace performa::linalg {

/// Kronecker product A ⊗ B ((ma*mb) x (na*nb)).
Matrix kron(const Matrix& a, const Matrix& b);

/// Kronecker sum A ⊕ B = A ⊗ I_b + I_a ⊗ B; both inputs must be square.
/// The generator of two independent Markov chains run jointly.
Matrix kron_sum(const Matrix& a, const Matrix& b);

/// Kronecker product of (row or column) vectors.
Vector kron(const Vector& a, const Vector& b);

}  // namespace performa::linalg
