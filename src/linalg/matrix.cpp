#include "linalg/matrix.h"

#include <cmath>
#include <ostream>
#include <string>

#include "linalg/compensated.h"
#include "linalg/kernels.h"

namespace performa::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  PERFORMA_EXPECTS((rows == 0) == (cols == 0),
                   "Matrix: dimensions must be both zero or both nonzero");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    PERFORMA_EXPECTS(row.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  PERFORMA_EXPECTS(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  PERFORMA_EXPECTS(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

Vector Matrix::row(std::size_t r) const {
  PERFORMA_EXPECTS(r < rows_, "Matrix::row: index out of range");
  return Vector(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

Vector Matrix::col(std::size_t c) const {
  PERFORMA_EXPECTS(c < cols_, "Matrix::col: index out of range");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  PERFORMA_EXPECTS(r < rows_ && v.size() == cols_,
                   "Matrix::set_row: shape mismatch");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

void Matrix::set_col(std::size_t c, const Vector& v) {
  PERFORMA_EXPECTS(c < cols_ && v.size() == rows_,
                   "Matrix::set_col: shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  PERFORMA_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                   "Matrix::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  PERFORMA_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                   "Matrix::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix& Matrix::operator/=(double s) {
  PERFORMA_EXPECTS(s != 0.0, "Matrix::operator/=: division by zero");
  for (double& x : data_) x /= s;
  return *this;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diag(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0);
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }

Matrix operator-(Matrix m) {
  for (double& x : m.data()) x = -x;
  return m;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  PERFORMA_EXPECTS(a.cols() == b.rows(), "Matrix product: shape mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  kern::gemm(a.rows(), a.cols(), b.cols(), a.data().data(), a.cols(),
             b.data().data(), b.cols(), c.data().data(), c.cols());
  return c;
}

Vector operator*(const Matrix& m, const Vector& v) {
  PERFORMA_EXPECTS(m.cols() == v.size(), "Matrix*Vector: shape mismatch");
  // The gemv kernel reads A through its transpose (column j contiguous).
  const Matrix mt = m.transposed();
  Vector out(m.rows());
  kern::gemv(m.rows(), m.cols(), mt.data().data(), mt.cols(), v.data(),
             out.data());
  return out;
}

Vector operator*(const Vector& v, const Matrix& m) {
  PERFORMA_EXPECTS(v.size() == m.rows(), "Vector*Matrix: shape mismatch");
  Vector out(m.cols(), 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] += vi * m(i, j);
  }
  return out;
}

double dot(const Vector& a, const Vector& b) {
  PERFORMA_EXPECTS(a.size() == b.size(), "dot: length mismatch");
  // Compensated (Neumaier) accumulation: dot products against tail-closure
  // vectors mix magnitudes across many orders near blow-up points, where a
  // naive sum loses exactly the digits the trust checks measure.
  return dot_compensated(a.data(), b.data(), a.size());
}

double sum(const Vector& v) noexcept {
  return sum_compensated(v.data(), v.size());
}

void axpy(double alpha, const Vector& x, Vector& y) {
  PERFORMA_EXPECTS(x.size() == y.size(), "axpy: length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vector operator+(Vector a, const Vector& b) {
  PERFORMA_EXPECTS(a.size() == b.size(), "Vector+: length mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

Vector operator-(Vector a, const Vector& b) {
  PERFORMA_EXPECTS(a.size() == b.size(), "Vector-: length mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

Vector operator*(Vector v, double s) {
  for (double& x : v) x *= s;
  return v;
}

Vector operator*(double s, Vector v) { return std::move(v) * s; }

Vector ones(std::size_t n) { return Vector(n, 1.0); }

double norm_inf(const Matrix& m) noexcept {
  double best = 0.0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) row_sum += std::abs(m(r, c));
    best = std::max(best, row_sum);
  }
  return best;
}

double norm_1(const Matrix& m) noexcept {
  double best = 0.0;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    double col_sum = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) col_sum += std::abs(m(r, c));
    best = std::max(best, col_sum);
  }
  return best;
}

double norm_fro(const Matrix& m) noexcept {
  double acc = 0.0;
  for (double x : m.data()) acc += x * x;
  return std::sqrt(acc);
}

double norm_inf(const Vector& v) noexcept {
  double best = 0.0;
  for (double x : v) best = std::max(best, std::abs(x));
  return best;
}

double norm_1(const Vector& v) noexcept {
  double acc = 0.0;
  for (double x : v) acc += std::abs(x);
  return acc;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  PERFORMA_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols(),
                   "max_abs_diff: shape mismatch");
  double best = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    best = std::max(best, std::abs(a.data()[i] - b.data()[i]));
  return best;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  PERFORMA_EXPECTS(a.size() == b.size(), "max_abs_diff: length mismatch");
  double best = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    best = std::max(best, std::abs(a[i] - b[i]));
  return best;
}

bool is_finite(const Matrix& m) noexcept {
  for (double x : m.data()) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

bool is_finite(const Vector& v) noexcept {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

void check_finite(const Matrix& m, const char* context) {
  if (!is_finite(m)) {
    throw NonFiniteError(std::string(context) +
                         ": matrix contains a NaN or infinity");
  }
}

void check_finite(const Vector& v, const char* context) {
  if (!is_finite(v)) {
    throw NonFiniteError(std::string(context) +
                         ": vector contains a NaN or infinity");
  }
}

void check_finite(double x, const char* context) {
  if (!std::isfinite(x)) {
    throw NonFiniteError(std::string(context) + ": value is NaN or infinite");
  }
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m(r, c) << (c + 1 < m.cols() ? " " : "");
    }
    os << (r + 1 < m.rows() ? "\n" : "]");
  }
  return os;
}

}  // namespace performa::linalg
