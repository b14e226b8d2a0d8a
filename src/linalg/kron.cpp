#include "linalg/kron.h"

namespace performa::linalg {

Matrix kron(const Matrix& a, const Matrix& b) {
  PERFORMA_EXPECTS(!a.empty() && !b.empty(), "kron: empty operand");
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols(), 0.0);
  for (std::size_t ia = 0; ia < a.rows(); ++ia) {
    for (std::size_t ja = 0; ja < a.cols(); ++ja) {
      const double aij = a(ia, ja);
      if (aij == 0.0) continue;
      for (std::size_t ib = 0; ib < b.rows(); ++ib) {
        for (std::size_t jb = 0; jb < b.cols(); ++jb) {
          out(ia * b.rows() + ib, ja * b.cols() + jb) = aij * b(ib, jb);
        }
      }
    }
  }
  return out;
}

Matrix kron_sum(const Matrix& a, const Matrix& b) {
  PERFORMA_EXPECTS(a.is_square() && b.is_square(),
                   "kron_sum: operands must be square");
  return kron(a, Matrix::identity(b.rows())) +
         kron(Matrix::identity(a.rows()), b);
}

Vector kron(const Vector& a, const Vector& b) {
  PERFORMA_EXPECTS(!a.empty() && !b.empty(), "kron: empty operand");
  Vector out(a.size() * b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j)
      out[i * b.size() + j] = a[i] * b[j];
  return out;
}

}  // namespace performa::linalg
